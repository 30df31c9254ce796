//! # ba-core
//!
//! The Byzantine agreement protocols of *"Communication Complexity of
//! Byzantine Agreement, Revisited"* (Abraham, Chan, Dolev, Nayak, Pass, Ren,
//! Shi — PODC 2019), plus the baselines and ablations the paper discusses.
//!
//! ## Protocol inventory
//!
//! | Constructor | Paper section | Resilience | Rounds | Honest multicasts |
//! |-------------|---------------|-----------:|-------:|-------------------|
//! | [`epoch::EpochConfig::warmup_third`] | §3.1 | `< n/3` | fixed `2R` | `Θ(nR)` |
//! | [`epoch::EpochConfig::subq_third`] | §3.2 | `< (1/3−ε)n` | fixed `2R` | `Θ(λR)` |
//! | [`epoch::EpochConfig::subq_shared`] | §3.3 Remark (insecure ablation) | — | fixed `2R` | `Θ(λR)` |
//! | [`epoch::EpochConfig::chen_micali`] | §3.2 strawman | needs memory erasure | fixed `2R` | `Θ(λR)` |
//! | [`iter::IterConfig::quadratic_half`] | App. C.1 | `< n/2` | expected O(1) | `Θ(n)`/round |
//! | [`iter::IterConfig::subq_half`] | App. C.2 (**Theorem 2**) | `< (1/2−ε)n` | expected O(1) | `Θ(λ)`/round |
//! | [`dolev_strong::DsConfig`] | baseline \[13\] | `< n − 1` | `f + 2` | `Θ(n)` |
//! | [`broadcast::run_iter_bb`] | §1.1 reduction | inherits BA | BA + 1 | BA + 1 |
//! | [`momose_ren::MrConfig::half`] | competitor: Momose–Ren (arXiv 2007.13175) | `< n/2` | `O(t)` views | `O(1)`/view + O(n) unicasts |
//! | [`cks::CksConfig::adaptive`] | competitor: Cohen–Keidar–Spiegelman (arXiv 2202.09123) | `< n/3`(repro) | `O(f)` phases | `O(1)`/phase + O(n) unicasts |
//!
//! All protocols run over [`ba_sim`]'s synchronous engine under any of the
//! paper's three corruption models, and over either eligibility backend
//! (ideal `F_mine` of Figure 1 or the Appendix D VRF compiler) via
//! [`auth::Auth`].
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use ba_core::iter::{self, IterConfig};
//! use ba_fmine::{IdealMine, MineParams};
//! use ba_sim::{CorruptionModel, Passive, SimConfig};
//!
//! // Theorem 2's protocol: n = 100 nodes, expected committee size 24.
//! let n = 100;
//! let elig = Arc::new(IdealMine::new(42, MineParams::new(n, 24.0)));
//! let cfg = IterConfig::subq_half(n, elig);
//! let sim = SimConfig::new(n, 0, CorruptionModel::Static, 42);
//! let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
//!
//! let (report, verdict) = iter::run(&cfg, &sim, inputs, Passive);
//! assert!(verdict.all_ok());
//! // Subquadratic: per-round honest multicasts track the committee size
//! // (~λ), not n — with full participation this would be ~n per round.
//! let per_round = report.metrics.honest_multicasts / report.rounds_used.max(1);
//! assert!(per_round < n as u64 / 2, "per-round multicasts: {per_round}");
//! ```

pub mod auth;
pub mod ba_from_bb;
pub mod broadcast;
pub mod cert;
pub mod cks;
pub mod dolev_strong;
pub mod epoch;
pub mod iter;
mod kernel;
pub mod momose_ren;
pub mod runnable;

pub use auth::{Auth, Evidence, FsService};
pub use cert::{
    AggregateQuorum, CertBody, CertEncoding, Certificate, CommitQuorum, CommitRef, VoteRef,
};
pub use kernel::TailMsg;
pub use runnable::Runnable;
