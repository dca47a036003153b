//! Nightly chaos-soak and full-matrix integrity coverage.
//!
//! These tests sweep the *entire* cluster × algorithm matrix under heavy
//! fault plans — far more simulation than the tier-1 budget allows — so
//! they are `#[ignore]`d under a default `cargo test -q` and run nightly
//! in CI with `cargo test -q -- --ignored` (see
//! `.github/workflows/ci.yml`). Both fan their matrices out over the
//! scenario-parallel sweep runner; every point derives its own RNG
//! stream, so a failure reproduces identically when re-run serially.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::integrity::{
    run_allreduce_verified, IntegrityErrorKind, IntegrityPolicy, VerifiedError,
};
use dpml::core::run::{execute, RunRequest};
use dpml::fabric::presets::all_presets;
use dpml::faults::{DataFaults, FaultPlan};
use dpml_bench::sweep;

fn matrix(ppn: u32) -> Vec<Algorithm> {
    let mut algs = vec![
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Ring,
        Algorithm::BinomialReduceBcast,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::DpmlPipelined {
            leaders: 2,
            chunks: 4,
        },
    ];
    if ppn >= 4 {
        algs.push(Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::Ring,
        });
    }
    if ppn >= 16 {
        algs.push(Algorithm::Dpml {
            leaders: 16,
            inner: FlatAlg::RecursiveDoubling,
        });
    }
    algs
}

/// Every preset × algorithm × fault seed under the canonical chaos plan
/// (OS noise, brownout, link flap) *plus* wire corruption and drops: each
/// run must end bit-identical to the fault-free baseline or with a
/// structured integrity error — never a silently wrong answer.
#[test]
#[ignore = "nightly chaos soak — run with `cargo test -- --ignored`"]
fn chaos_soak_no_silent_escapes() {
    let policy = IntegrityPolicy::default();
    let mut scenarios = Vec::new();
    for preset in all_presets() {
        let spec = preset.spec(4, 4).expect("spec");
        for alg in matrix(spec.ppn) {
            for seed in 1..=5u64 {
                scenarios.push((preset.clone(), spec, alg, seed));
            }
        }
    }
    let total = scenarios.len();
    let outcomes = sweep(scenarios, |(preset, spec, alg, seed)| {
        let plan = FaultPlan {
            seed,
            data: DataFaults {
                max_retransmits: 64,
                ..DataFaults::wire(0.02, 0.01)
            },
            ..FaultPlan::canonical(seed, 0.8)
        };
        match run_allreduce_verified(&preset, &spec, alg, 65_536, &plan, policy) {
            Ok(_) => None,
            Err(VerifiedError::Integrity(e)) if e.kind != IntegrityErrorKind::VerifyMismatch => {
                None // structured error: detected, reported, acceptable
            }
            Err(e) => Some(format!(
                "{}/{} seed {seed}: silent escape or harness failure: {e:?}",
                preset.id,
                alg.name()
            )),
        }
    });
    let escapes: Vec<String> = outcomes.into_iter().flatten().collect();
    assert!(
        escapes.is_empty(),
        "{} of {total} chaos-soak runs escaped:\n{}",
        escapes.len(),
        escapes.join("\n")
    );
}

/// The full preset × algorithm × size matrix, fault-free: every run must
/// pass the engine's coverage verification (every rank holds every
/// contribution exactly where it should).
#[test]
#[ignore = "nightly full-matrix integrity — run with `cargo test -- --ignored`"]
fn full_matrix_integrity_verifies_everywhere() {
    let mut scenarios = Vec::new();
    for preset in all_presets() {
        for (nodes, ppn) in [(2u32, 2u32), (4, 4), (8, 8)] {
            let spec = preset.spec(nodes, ppn).expect("spec");
            for alg in matrix(spec.ppn) {
                for bytes in [1_024u64, 65_536, 1 << 20] {
                    scenarios.push((preset.clone(), spec, alg, bytes));
                }
            }
        }
    }
    let total = scenarios.len();
    let failures: Vec<String> = sweep(scenarios, |(preset, spec, alg, bytes)| {
        execute(&RunRequest::new(&preset, &spec, alg, bytes))
            .err()
            .map(|e| {
                format!(
                    "{}/{}x{}/{}/{bytes}B: {e}",
                    preset.id,
                    spec.num_nodes,
                    spec.ppn,
                    alg.name()
                )
            })
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} of {total} matrix points failed verification:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
