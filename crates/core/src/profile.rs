//! One-call critical-path profiling: run a traced collective and decompose
//! its makespan into algorithm phases and bottleneck costs.
//!
//! [`profile_allreduce`] is [`crate::execute`] with tracing enabled:
//! the engine records every span, message and release edge, the
//! critical-path walker ([`dpml_engine::CriticalPath`]) attributes the
//! makespan to {latency, injection, message rate, per-flow bandwidth,
//! shared NIC capacity, compute}, and the result is summarized as a
//! serializable [`ProfileReport`] — the payload behind `dpml profile` and
//! `results/profile.json`.

use crate::algorithms::Algorithm;
use crate::run::{execute, RunError, RunRequest};
use dpml_engine::{CostKind, CriticalPath, Phase, RunReport, Zone};
use dpml_fabric::Preset;
use dpml_topology::ClusterSpec;
use serde::{Deserialize, Serialize};

/// Time attributed to one algorithm phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Total busy span time across all ranks, seconds.
    pub busy_s: f64,
    /// Time on the critical path, seconds.
    pub critical_s: f64,
}

/// Time attributed to one bottleneck cost along the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Cost name (see [`CostKind::name`]).
    pub kind: String,
    /// Time on the critical path, seconds.
    pub critical_s: f64,
}

/// Serializable summary of one profiled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Message size, bytes.
    pub bytes: u64,
    /// Cluster shape: nodes.
    pub nodes: u32,
    /// Cluster shape: processes per node.
    pub ppn: u32,
    /// Completion latency, microseconds.
    pub latency_us: f64,
    /// Zone classification of the dominant bottleneck (Figure 1 regimes).
    pub zone: String,
    /// The single largest cost kind on the critical path.
    pub dominant: String,
    /// Per-phase attribution (phases with any busy or critical time).
    pub phases: Vec<PhaseBreakdown>,
    /// Per-cost attribution (costs with critical-path time).
    pub costs: Vec<CostBreakdown>,
    /// Per-NIC / per-link / per-memory-bus occupancy.
    pub resources: Vec<dpml_engine::ResourceUsage>,
}

/// A profiled run: the summary plus the raw artifacts it was built from.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Serializable summary.
    pub profile: ProfileReport,
    /// The attributed critical path.
    pub critical: CriticalPath,
    /// The full engine report; `report.trace` is always `Some`.
    pub report: RunReport,
}

impl ProfiledRun {
    /// Typed zone classification.
    pub fn zone(&self) -> Zone {
        self.critical.zone()
    }
}

/// Compile `alg` for `bytes`, simulate it with tracing, verify the result,
/// and attribute the makespan. Block placement, as in the paper.
pub fn profile_allreduce(
    preset: &Preset,
    spec: &ClusterSpec,
    alg: Algorithm,
    bytes: u64,
) -> Result<ProfiledRun, RunError> {
    let report = execute(&RunRequest {
        trace: true,
        ..RunRequest::new(preset, spec, alg, bytes)
    })?
    .report;

    let trace = report.trace.as_ref().expect("traced run carries a trace");
    let makespan = report.makespan().seconds();
    let critical = CriticalPath::from_trace(trace, makespan, preset.fabric.nic.per_flow_bw);

    let phases = Phase::ALL
        .iter()
        .map(|&ph| PhaseBreakdown {
            phase: ph.name().to_string(),
            busy_s: trace.total_phase_time(ph),
            critical_s: critical.phase_total(ph),
        })
        .filter(|row| row.busy_s > 0.0 || row.critical_s > 0.0)
        .collect();
    let costs = CostKind::ALL
        .iter()
        .map(|&k| CostBreakdown {
            kind: k.name().to_string(),
            critical_s: critical.total_of(k),
        })
        .filter(|row| row.critical_s > 0.0)
        .collect();

    let profile = ProfileReport {
        algorithm: alg.name(),
        bytes,
        nodes: spec.num_nodes,
        ppn: spec.ppn,
        latency_us: report.latency_us(),
        zone: critical.zone().name().to_string(),
        dominant: critical.dominant().name().to_string(),
        phases,
        costs,
        resources: report.resources.clone(),
    };
    Ok(ProfiledRun {
        profile,
        critical,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FlatAlg;
    use dpml_fabric::presets::{cluster_a, cluster_b};

    #[test]
    fn profile_attributes_the_whole_makespan() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let alg = Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::RecursiveDoubling,
        };
        let run = profile_allreduce(&p, &spec, alg, 65536).unwrap();
        let makespan = run.report.makespan().seconds();
        assert!(
            (run.critical.total() - makespan).abs() < 1e-9,
            "critical {} vs makespan {}",
            run.critical.total(),
            makespan
        );
        assert!(!run.profile.phases.is_empty());
        assert!(!run.profile.costs.is_empty());
        assert!(!run.profile.resources.is_empty());
    }

    #[test]
    fn profile_has_no_unknown_phase_spans() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let alg = Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::Ring,
        };
        let run = profile_allreduce(&p, &spec, alg, 4096).unwrap();
        assert!(run.profile.phases.iter().all(|row| row.phase != "unknown"));
    }

    #[test]
    fn sharp_profile_reports_sharp_phase() {
        let p = cluster_a();
        let spec = p.spec(4, 4).unwrap();
        let run = profile_allreduce(&p, &spec, Algorithm::SharpSocketLeader, 1024).unwrap();
        assert!(run.profile.phases.iter().any(|row| row.phase == "sharp"));
    }
}
