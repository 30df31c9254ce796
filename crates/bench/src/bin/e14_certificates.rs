//! E14 — certificate encodings: the vector-of-signatures quorum
//! certificate vs the aggregate multi-signature + signer-bitmap backend.
//!
//! The paper counts a quorum certificate as Θ(quorum) signatures — the
//! dominant constant in every bit bound (footnote 11 prices the vector at
//! `quorum · (32 + |sig|)` bits per certificate-bearing message). The
//! aggregate backend replaces that with **one** multi-signature plus an
//! `n`-bit signer bitmap, so the certificate share of a message drops from
//! `Θ(quorum · |sig|)` to `n + |sig|` bits while the protocol's decisions
//! are provably unchanged (the certificate attests the same quorum on the
//! same statement; see docs/CERTIFICATES.md).
//!
//! This experiment runs the signed quadratic family and the mined
//! subquadratic family under both encodings and reports:
//!
//! * `cert_bits` — the certificate share of honest traffic, whose
//!   vector/aggregate ratio at `n ≥ 256` must be ≥ 4× (the headline
//!   deliverable);
//! * the decision observables (rounds, multicasts, verdicts, decisions),
//!   asserted identical across encodings cell by cell;
//! * the mined family's silent fallback: `F_mine` tickets prove
//!   *eligibility*, not knowledge of a signing key, so there is nothing to
//!   aggregate and the aggregate-encoded run is byte-identical to vector.

use ba_bench::{header, row, CellReport, Cli, ProtocolSpec, Scenario, Sweep, SweepReport};
use ba_core::cert::CertEncoding;

fn scenarios(
    ns: &[usize],
    encoding: CertEncoding,
    make: impl Fn(usize) -> ProtocolSpec,
) -> Vec<Scenario> {
    ns.iter()
        .map(|&n| Scenario::new(format!("n={n}"), n, make(n)).cert_encoding(encoding))
        .collect()
}

/// Per-seed samples of one observable across a sweep cell.
fn samples(cell: &CellReport, obs: &str) -> Vec<f64> {
    cell.samples(obs)
}

/// Asserts that every decision observable matches seed-for-seed between the
/// vector-encoded and aggregate-encoded runs of the same grid.
fn assert_decision_identical(vector: &SweepReport, aggregate: &SweepReport) {
    const DECISION_OBSERVABLES: &[&str] = &[
        "rounds",
        "multicasts",
        "unicasts",
        "classical_msgs",
        "corrupt_sends",
        "injected_sends",
        "corruptions",
        "removals",
        "dropped_sends",
        "consistent",
        "valid",
        "terminated",
        "all_ok",
        "decision",
    ];
    for (vc, ac) in vector.cells.iter().zip(&aggregate.cells) {
        for obs in DECISION_OBSERVABLES {
            assert_eq!(
                samples(vc, obs),
                samples(ac, obs),
                "{} / {}: {obs} diverged between encodings",
                vector.title,
                vc.scenario.label
            );
        }
    }
}

fn table(vector: &SweepReport, aggregate: &SweepReport) {
    for (vc, ac) in vector.cells.iter().zip(&aggregate.cells) {
        let vbits = vc.mean("cert_bits");
        let abits = ac.mean("cert_bits");
        let ratio = if abits > 0.0 { vbits / abits } else { 1.0 };
        row(&[
            format!("{}", vc.scenario.n),
            format!("{:.1}", vbits / 1000.0),
            format!("{:.1}", abits / 1000.0),
            format!("{ratio:.1}x"),
            format!("{:.0}", vc.mean("kbits")),
            format!("{:.0}", ac.mean("kbits")),
            format!("{}/{}", ac.count("all_ok"), ac.runs.len()),
        ]);
    }
}

fn main() {
    let cli = Cli::parse("e14_certificates");
    let lambda = 24.0;
    let seeds = cli.seeds_or(20);
    let quad_ns: &[usize] = if cli.smoke() { &[16] } else { &[64, 256] };
    let subq_ns: &[usize] = if cli.smoke() { &[64] } else { &[64, 256] };

    let sweeps = vec![
        Sweep::new(
            "quadratic_half/vector",
            seeds,
            scenarios(quad_ns, CertEncoding::Vector, |_| ProtocolSpec::QuadraticHalf),
        ),
        Sweep::new(
            "quadratic_half/aggregate",
            seeds,
            scenarios(quad_ns, CertEncoding::Aggregate, |_| ProtocolSpec::QuadraticHalf),
        ),
        Sweep::new(
            "subq_half/vector",
            seeds,
            scenarios(subq_ns, CertEncoding::Vector, |_| ProtocolSpec::SubqHalf {
                lambda,
                max_iters: None,
            }),
        ),
        Sweep::new(
            "subq_half/aggregate",
            seeds,
            scenarios(subq_ns, CertEncoding::Aggregate, |_| ProtocolSpec::SubqHalf {
                lambda,
                max_iters: None,
            }),
        ),
    ];
    let reports = cli.run(sweeps);

    // A grid-wide --cert-encoding override collapses the paired sweeps onto
    // one encoding; the cross-encoding assertions only make sense without it.
    if cli.override_of("cert_encoding").is_none() {
        // Headline: identical decisions, strictly cheaper certificates.
        assert_decision_identical(&reports[0], &reports[1]);
        assert_decision_identical(&reports[2], &reports[3]);
        for (vc, ac) in reports[0].cells.iter().zip(&reports[1].cells) {
            let (vbits, abits) = (vc.mean("cert_bits"), ac.mean("cert_bits"));
            assert!(
                abits < vbits,
                "aggregate certificates must be smaller (n={}): {vbits} -> {abits}",
                vc.scenario.n
            );
            if vc.scenario.n >= 256 {
                assert!(
                    vbits >= 4.0 * abits,
                    "cert_bits must shrink >= 4x at n={}: {vbits} vs {abits}",
                    vc.scenario.n
                );
            }
        }
        // Mined regime: no signing keys behind the tickets, so the
        // aggregate request falls back to vector byte-for-byte.
        for (vc, ac) in reports[2].cells.iter().zip(&reports[3].cells) {
            assert_eq!(
                samples(vc, "cert_bits"),
                samples(ac, "cert_bits"),
                "mined-family fallback must be byte-identical (n={})",
                vc.scenario.n
            );
        }
    }

    if cli.markdown() {
        println!("# E14 — certificate encodings (lambda = {lambda}, {seeds} seeds)\n");

        println!("## quadratic_half (signed regime: real aggregation)\n");
        header(&[
            "n",
            "vector cert kbits",
            "aggregate cert kbits",
            "ratio",
            "vector kbits",
            "aggregate kbits",
            "ok",
        ]);
        table(&reports[0], &reports[1]);

        println!("\n## subq_half (mined regime: silent fallback to vector)\n");
        header(&[
            "n",
            "vector cert kbits",
            "aggregate cert kbits",
            "ratio",
            "vector kbits",
            "aggregate kbits",
            "ok",
        ]);
        table(&reports[2], &reports[3]);

        println!("\nExpected shape: the signed family's certificate bits shrink from");
        println!("Theta(quorum * |sig|) to n + |sig| per certificate (>= 4x at n >= 256)");
        println!("with every decision observable identical; the mined family cannot");
        println!("aggregate eligibility tickets and matches vector exactly.");
    }
    cli.write_outputs(&reports);
}
