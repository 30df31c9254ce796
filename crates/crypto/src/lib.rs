//! # ba-crypto
//!
//! From-scratch cryptographic substrate for the reproduction of
//! *"Communication Complexity of Byzantine Agreement, Revisited"* (Abraham,
//! Chan, Dolev, Nayak, Pass, Ren, Shi — PODC 2019).
//!
//! Everything here is implemented on top of `std` only:
//!
//! * [`bigint`] — 256/512-bit integers and Montgomery modular arithmetic;
//! * [`sha256`] / [`hmac`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC, plus a
//!   deterministic DRBG;
//! * [`prime`] — Miller–Rabin and safe-prime search;
//! * [`group`] — the order-`q` subgroup of `Z_p^*` for the safe prime
//!   `p = 2^256 − 36113`;
//! * [`schnorr`] — signatures ("all messages are signed");
//! * [`aggregate`] — deterministic MuSig-style multi-signatures that
//!   compress a quorum certificate to one 64-byte signature + bitmap;
//! * [`dleq`] — Chaum–Pedersen DLEQ NIZK (the Appendix D NIZK);
//! * [`vrf`] — the DDH-based adaptively-secure VRF used for **bit-specific
//!   eligibility election** (the paper's key insight, §3.2);
//! * [`commit`] — a Merkle tree (vector commitment);
//! * [`forward_secure`] — per-slot "ephemeral" keys for the memory-erasure
//!   ablation (Chen–Micali strawman).
//!
//! ## Threat model / caveat
//!
//! The math is real (these are true Schnorr/DLEQ/VRF constructions over a
//! genuine safe-prime group), but parameters are sized for *simulation
//! throughput*, not production security: 256-bit mod-p discrete log offers
//! roughly 60-bit security, and nothing is constant-time. The reproduction
//! goal is protocol behaviour under the paper's adversary models, which never
//! include cryptanalysis; see DESIGN.md §3.
//!
//! ## Example: the full eligibility pipeline of §3.2
//!
//! ```
//! use ba_crypto::vrf::VrfSecretKey;
//!
//! // PKI setup gives node 7 a VRF key pair.
//! let sk = VrfSecretKey::from_seed(b"node-7");
//!
//! // Is node 7 on the committee allowed to ACK bit b=1 in epoch r=4?
//! let tag = b"(ACK, epoch=4, bit=1)";
//! let out = sk.evaluate(tag);
//! let difficulty = u64::MAX / 8; // committee of expected size n/8
//! let eligible = out.rho_u64() < difficulty;
//!
//! // Anyone can verify an eligibility claim from (pk, tag, out):
//! assert!(sk.public_key().verify(tag, &out));
//! # let _ = eligible;
//! ```

pub mod aggregate;
mod batch;
pub mod bigint;
pub mod commit;
pub mod dleq;
pub mod forward_secure;
pub mod group;
pub mod hmac;
pub mod prime;
pub mod schnorr;
pub mod sha256;
pub mod vrf;
