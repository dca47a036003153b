//! End-to-end fault injection through the public facade: a zero plan is
//! bit-identical to the fault-free path, and the SHArP degradation ladder
//! (denial → fallback, flaky → retry) completes verified collectives.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::resilience::{host_fallback_algorithm, run_allreduce_resilient, FaultPolicy};
use dpml::core::run::{execute, AllreduceReport, RunError, RunRequest};
use dpml::fabric::presets::{cluster_a, cluster_c, Preset};
use dpml::faults::{DataFaults, FaultPlan, ProcessFaults, SharpFaults};
use dpml::topology::ClusterSpec;

/// One attempt of `alg` under `plan`: fault effects applied, no
/// degradation ladder, errors surfaced as-is.
fn run_faulted(
    p: &Preset,
    spec: &ClusterSpec,
    alg: Algorithm,
    bytes: u64,
    plan: &FaultPlan,
) -> Result<AllreduceReport, RunError> {
    execute(&RunRequest {
        faults: Some((plan, 0)),
        ..RunRequest::new(p, spec, alg, bytes)
    })
}

#[test]
fn zero_intensity_plan_is_bit_identical_across_algorithms() {
    let p = cluster_c();
    let spec = p.spec(4, 8).expect("4x8 spec");
    for (alg, bytes) in [
        (Algorithm::RecursiveDoubling, 4 * 1024),
        (
            Algorithm::Dpml {
                leaders: 4,
                inner: FlatAlg::RecursiveDoubling,
            },
            128 * 1024,
        ),
        (
            Algorithm::DpmlPipelined {
                leaders: 4,
                chunks: 4,
            },
            1 << 20,
        ),
    ] {
        let clean = execute(&RunRequest::new(&p, &spec, alg, bytes)).expect("clean run");
        let faulted =
            run_faulted(&p, &spec, alg, bytes, &FaultPlan::zero()).expect("zero-plan run");
        assert_eq!(
            clean.latency_us.to_bits(),
            faulted.latency_us.to_bits(),
            "{}: zero plan moved the clock",
            alg.name()
        );
        assert_eq!(
            clean.report,
            faulted.report,
            "{}: zero plan changed the report",
            alg.name()
        );
        // The canonical scenario at intensity zero must behave the same.
        let canon = run_faulted(&p, &spec, alg, bytes, &FaultPlan::canonical(123, 0.0))
            .expect("canonical(0) run");
        assert_eq!(clean.latency_us.to_bits(), canon.latency_us.to_bits());
        // An armed fail-stop detector with zero scheduled crashes is
        // free: virtual time and data both stay bit-identical.
        let armed = FaultPlan {
            process: ProcessFaults {
                crashes: Vec::new(),
                lost_nodes: Vec::new(),
                detection_timeout: 1e-3,
            },
            ..FaultPlan::zero()
        };
        let watched = run_faulted(&p, &spec, alg, bytes, &armed).expect("zero-crash run");
        assert_eq!(
            clean.latency_us.to_bits(),
            watched.latency_us.to_bits(),
            "{}: zero-crash process plan moved the clock",
            alg.name()
        );
        assert_eq!(
            clean.report,
            watched.report,
            "{}: zero-crash process plan changed the report",
            alg.name()
        );
    }
}

#[test]
fn noise_slows_but_never_corrupts() {
    let p = cluster_c();
    let spec = p.spec(4, 8).expect("4x8 spec");
    let alg = Algorithm::Dpml {
        leaders: 8,
        inner: FlatAlg::RecursiveDoubling,
    };
    let clean = execute(&RunRequest::new(&p, &spec, alg, 64 * 1024)).expect("clean run");
    let plan = FaultPlan::canonical(11, 1.0);
    let noisy = run_faulted(&p, &spec, alg, 64 * 1024, &plan).expect("noisy run");
    // execute verifies internally; re-verify here to make the
    // e2e claim explicit.
    noisy
        .report
        .verify_allreduce()
        .expect("noisy run still correct");
    assert!(
        noisy.latency_us > clean.latency_us,
        "full-intensity faults must cost time: {} vs {}",
        noisy.latency_us,
        clean.latency_us
    );
}

#[test]
fn sharp_denial_degrades_to_verified_host_run() {
    let p = cluster_a();
    let spec = p.spec(4, 4).expect("4x4 spec");
    let plan = FaultPlan {
        sharp: SharpFaults {
            deny_groups: true,
            ..Default::default()
        },
        ..FaultPlan::zero()
    };
    let rep = run_allreduce_resilient(
        &p,
        &spec,
        Algorithm::SharpSocketLeader,
        256,
        &plan,
        FaultPolicy::default(),
    )
    .expect("degraded run completes");
    assert!(rep.fell_back);
    assert_eq!(rep.completed_with, host_fallback_algorithm(&spec).name());
    assert_eq!(rep.report.report.stats.sharp_ops, 0);
    assert_eq!(rep.report.report.stats.sharp_fallbacks, 1);
    rep.report
        .report
        .verify_allreduce()
        .expect("fallback run verifies");
}

#[test]
fn flaky_sharp_retries_and_accounts_time() {
    let p = cluster_a();
    let spec = p.spec(4, 4).expect("4x4 spec");
    let plan = FaultPlan {
        sharp: SharpFaults {
            flaky_attempts: 1,
            op_timeout: 5e-5,
            ..Default::default()
        },
        ..FaultPlan::zero()
    };
    let rep = run_allreduce_resilient(
        &p,
        &spec,
        Algorithm::SharpNodeLeader,
        512,
        &plan,
        FaultPolicy::default(),
    )
    .expect("flaky run completes");
    assert!(!rep.fell_back);
    assert_eq!(rep.sharp_retries, 1);
    assert_eq!(rep.report.report.stats.sharp_retries, 1);
    // One failed attempt burns the 50us op timeout plus 10us backoff.
    assert!(rep.latency_us >= rep.report.latency_us + 60.0 - 1e-9);
}

#[test]
fn wire_corruption_detected_and_retransmitted() {
    let p = cluster_c();
    let spec = p.spec(4, 8).expect("4x8 spec");
    let alg = Algorithm::Dpml {
        leaders: 4,
        inner: FlatAlg::RecursiveDoubling,
    };
    let clean = execute(&RunRequest::new(&p, &spec, alg, 256 * 1024)).expect("clean run");
    let plan = FaultPlan {
        seed: 17,
        data: DataFaults {
            max_retransmits: 64,
            ..DataFaults::wire(0.1, 0.05)
        },
        ..FaultPlan::zero()
    };
    let faulted = run_faulted(&p, &spec, alg, 256 * 1024, &plan).expect("faulted run completes");
    faulted
        .report
        .verify_allreduce()
        .expect("retransmitted run still correct");
    let st = &faulted.report.stats;
    assert!(st.retransmits > 0, "a 10%/5% wire must retransmit");
    assert!(st.corruptions_detected > 0, "CRC must catch corrupt frames");
    assert!(
        st.undetected_risk > 0.0 && st.undetected_risk < 1e-6,
        "residual risk is detections * 2^-32, got {}",
        st.undetected_risk
    );
    assert!(
        faulted.latency_us > clean.latency_us,
        "retransmits must cost time: {} vs {}",
        faulted.latency_us,
        clean.latency_us
    );
}

#[test]
fn same_seed_same_timing_different_seed_differs() {
    let p = cluster_c();
    let spec = p.spec(2, 8).expect("2x8 spec");
    let alg = Algorithm::Dpml {
        leaders: 2,
        inner: FlatAlg::RecursiveDoubling,
    };
    let a = run_faulted(&p, &spec, alg, 32 * 1024, &FaultPlan::canonical(1, 0.8)).expect("seed 1");
    let b = run_faulted(&p, &spec, alg, 32 * 1024, &FaultPlan::canonical(1, 0.8))
        .expect("seed 1 again");
    assert_eq!(
        a.latency_us.to_bits(),
        b.latency_us.to_bits(),
        "same seed must replay exactly"
    );
    let c = run_faulted(&p, &spec, alg, 32 * 1024, &FaultPlan::canonical(2, 0.8)).expect("seed 2");
    assert_ne!(
        a.latency_us.to_bits(),
        c.latency_us.to_bits(),
        "different seed, different noise"
    );
}
