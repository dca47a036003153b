//! Fault-aware execution: run collectives under an injected
//! [`FaultPlan`] with retry, backoff, and graceful fallback from SHArP
//! to host-based schedules.
//!
//! The paper's SHArP designs assume the fabric grants an aggregation
//! group and completes every operation; production fabrics deny groups
//! (resource exhaustion) and time out operations (congested or flapping
//! links). This module implements the degradation ladder an MPI library
//! uses in practice:
//!
//! 1. **Group denial** is detected at setup time → fall back immediately
//!    to a host-based schedule (no retry can help).
//! 2. **Operation timeout** is transient → retry the SHArP schedule with
//!    exponential backoff, up to [`FaultPolicy::max_sharp_retries`].
//! 3. **Retries exhausted** → fall back to the host-based schedule.
//!
//! Every path still verifies the collective's data movement, so a
//! degraded run can be slower but never wrong. The virtual-time cost of
//! failed attempts (each burns `op_timeout` waiting) and backoff is
//! accounted into [`ResilientReport::latency_us`].

use crate::algorithms::{Algorithm, FlatAlg};
use crate::run::{execute, AllreduceReport, RunError, RunRequest};
use dpml_engine::SimError;
use dpml_fabric::Preset;
use dpml_faults::FaultPlan;
use dpml_topology::ClusterSpec;
use serde::{Deserialize, Serialize};

/// Retry/backoff policy for SHArP resource faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPolicy {
    /// SHArP operation retries before falling back to a host schedule.
    pub max_sharp_retries: u32,
    /// Backoff before the first retry, doubling per retry (microseconds).
    pub backoff_us: f64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_sharp_retries: 2,
            backoff_us: 10.0,
        }
    }
}

/// Outcome of a fault-aware run: the verified report plus what the
/// degradation machinery had to do to get it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilientReport {
    /// The verified report of the schedule that completed.
    pub report: AllreduceReport,
    /// Name of the algorithm that actually completed (differs from the
    /// requested one after a fallback).
    pub completed_with: String,
    /// SHArP attempts that timed out and were retried.
    pub sharp_retries: u32,
    /// Whether the run fell back from SHArP to a host-based schedule.
    pub fell_back: bool,
    /// End-to-end latency including time burned by failed attempts and
    /// backoff (microseconds).
    pub latency_us: f64,
}

/// Run `alg` under `plan` with the full degradation ladder described in
/// the module docs. The returned report always verifies.
pub fn run_allreduce_resilient(
    preset: &Preset,
    spec: &ClusterSpec,
    alg: Algorithm,
    bytes: u64,
    plan: &FaultPlan,
    policy: FaultPolicy,
) -> Result<ResilientReport, RunError> {
    let req = RunRequest {
        faults: Some((plan, 0)),
        ..RunRequest::new(preset, spec, alg, bytes)
    };
    if !alg.needs_sharp() {
        return Ok(finish(execute(&req)?, 0, false, 0.0));
    }

    // SHArP path. Group denial is permanent: skip straight to fallback.
    if plan.sharp.deny_groups {
        return fallback(&req, 0, 0.0);
    }

    let mut retries = 0u32;
    let mut penalty_us = 0.0;
    loop {
        let attempt = RunRequest {
            faults: Some((plan, retries)),
            ..req
        };
        match execute(&attempt) {
            Ok(report) => return Ok(finish(report, retries, false, penalty_us)),
            Err(RunError::Sim(SimError::SharpTimeout { .. })) => {
                // The failed attempt sat on the fabric for the full op
                // timeout; the retry then waits out the backoff.
                penalty_us += plan.sharp.op_timeout * 1e6;
                if retries >= policy.max_sharp_retries {
                    return fallback(&req, retries, penalty_us);
                }
                penalty_us += policy.backoff_us * f64::from(1u32 << retries.min(20));
                retries += 1;
            }
            Err(RunError::Sim(SimError::SharpDenied(_))) => {
                return fallback(&req, retries, penalty_us);
            }
            Err(other) => return Err(other),
        }
    }
}

/// The host-based schedule used when SHArP is unavailable: the classic
/// single-leader hierarchy (flat recursive doubling at ppn=1) — latency
/// shaped, like the small-message sizes SHArP targets.
pub fn host_fallback_algorithm(spec: &ClusterSpec) -> Algorithm {
    if spec.ppn == 1 {
        Algorithm::RecursiveDoubling
    } else {
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        }
    }
}

/// Run the host fallback for `req` (first attempt of its fault plan).
fn fallback(req: &RunRequest, retries: u32, penalty_us: f64) -> Result<ResilientReport, RunError> {
    let host = host_fallback_algorithm(req.spec);
    debug_assert!(!host.needs_sharp(), "fallback must not require SHArP");
    let mut report = execute(&RunRequest { alg: host, ..*req })?;
    // The report records the *requested* algorithm so result tables stay
    // keyed by what the caller asked for; `completed_with` carries the
    // substitute.
    report.algorithm = req.alg.name();
    Ok(finish_with(report, host.name(), retries, true, penalty_us))
}

fn finish(
    report: AllreduceReport,
    retries: u32,
    fell_back: bool,
    penalty_us: f64,
) -> ResilientReport {
    let completed_with = report.algorithm.clone();
    finish_with(report, completed_with, retries, fell_back, penalty_us)
}

fn finish_with(
    mut report: AllreduceReport,
    completed_with: impl Into<String>,
    retries: u32,
    fell_back: bool,
    penalty_us: f64,
) -> ResilientReport {
    report.report.stats.sharp_retries = u64::from(retries);
    report.report.stats.sharp_fallbacks = u64::from(fell_back);
    let latency_us = report.latency_us + penalty_us;
    ResilientReport {
        report,
        completed_with: completed_with.into(),
        sharp_retries: retries,
        fell_back,
        latency_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_fabric::presets::{cluster_a, cluster_b};
    use dpml_faults::SharpFaults;

    #[test]
    fn zero_plan_matches_unfaulted_run() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let alg = Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        };
        let clean = RunRequest::new(&p, &spec, alg, 32 * 1024);
        let zero = FaultPlan::zero();
        let faulted = execute(&RunRequest {
            faults: Some((&zero, 0)),
            ..clean
        })
        .unwrap();
        let clean = execute(&clean).unwrap();
        assert_eq!(clean.latency_us.to_bits(), faulted.latency_us.to_bits());
        assert_eq!(clean.report, faulted.report);
    }

    #[test]
    fn denial_falls_back_and_verifies() {
        let p = cluster_a();
        let spec = p.spec(4, 4).unwrap();
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
        .unwrap();
        assert!(rep.fell_back);
        assert_eq!(rep.sharp_retries, 0);
        assert_eq!(rep.report.report.stats.sharp_fallbacks, 1);
        assert_eq!(
            rep.report.report.stats.sharp_ops, 0,
            "no SHArP op may run after denial"
        );
        assert_eq!(rep.report.algorithm, Algorithm::SharpSocketLeader.name());
        assert_eq!(rep.completed_with, host_fallback_algorithm(&spec).name());
        rep.report.report.verify_allreduce().unwrap();
    }

    #[test]
    fn transient_timeouts_retry_then_succeed() {
        let p = cluster_a();
        let spec = p.spec(4, 4).unwrap();
        let plan = FaultPlan {
            sharp: SharpFaults {
                flaky_attempts: 2,
                op_timeout: 1e-4,
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
            FaultPolicy {
                max_sharp_retries: 3,
                backoff_us: 10.0,
            },
        )
        .unwrap();
        assert!(!rep.fell_back);
        assert_eq!(rep.sharp_retries, 2);
        assert_eq!(rep.report.report.stats.sharp_ops, 1);
        // Two failed attempts burn 100us each plus 10+20us backoff.
        assert!(rep.latency_us > rep.report.latency_us + 220.0 - 1e-9);
    }

    #[test]
    fn exhausted_retries_fall_back() {
        let p = cluster_a();
        let spec = p.spec(4, 4).unwrap();
        let plan = FaultPlan {
            sharp: SharpFaults {
                flaky_attempts: 10,
                op_timeout: 1e-4,
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
            FaultPolicy {
                max_sharp_retries: 2,
                backoff_us: 10.0,
            },
        )
        .unwrap();
        assert!(rep.fell_back);
        assert_eq!(rep.sharp_retries, 2);
        rep.report.report.verify_allreduce().unwrap();
    }

    #[test]
    fn non_sharp_algorithms_pass_through() {
        let p = cluster_b();
        let spec = p.spec(2, 4).unwrap();
        let plan = FaultPlan::canonical(7, 0.5);
        let rep = run_allreduce_resilient(
            &p,
            &spec,
            Algorithm::Ring,
            8 * 1024,
            &plan,
            FaultPolicy::default(),
        )
        .unwrap();
        assert!(!rep.fell_back);
        assert_eq!(rep.sharp_retries, 0);
        assert_eq!(rep.completed_with, Algorithm::Ring.name());
    }
}
