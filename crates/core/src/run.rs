//! The one run path: a [`RunRequest`] names a scenario, [`execute`]
//! compiles, simulates and verifies it, and [`execute_batch`] runs many
//! in parallel. The resilience, integrity, healing, profiling and
//! checkpointed-sweep policies are built on these two and on
//! [`simulate`], the single place a simulator is set up.

use crate::algorithms::Algorithm;
use dpml_engine::{RunReport, SimConfig, Simulator, WorldProgram};
use dpml_fabric::Preset;
use dpml_faults::FaultPlan;
use dpml_sharp::SharpFabric;
use dpml_topology::{ClusterSpec, Placement, RankMap};
use serde::{Deserialize, Serialize};

/// Engine abort budgets of a [`RunRequest`]. `Default` is an unbudgeted
/// run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunOpts {
    /// Abort with `EventBudgetExceeded` after this many events.
    pub event_budget: Option<u64>,
    /// Abort with `TimeBudgetExceeded` past this virtual time (seconds).
    pub time_budget_s: Option<f64>,
}

/// The outcome of one verified allreduce simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllreduceReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Message size in bytes.
    pub bytes: u64,
    /// Completion latency in microseconds.
    pub latency_us: f64,
    /// The full engine report.
    pub report: RunReport,
}

/// Error from [`execute`] and [`simulate`].
#[derive(Debug)]
pub enum RunError {
    /// The cluster/switch description itself was invalid.
    Topology(dpml_topology::TopologyError),
    /// Schedule compilation failed.
    Build(crate::algorithms::BuildError),
    /// Simulation failed (deadlock, missing oracle, ...).
    Sim(dpml_engine::sim::SimError),
    /// The simulated collective produced a wrong result.
    Verify(dpml_engine::VerifyError),
    /// A SHArP design was requested on a fabric without SHArP.
    NoSharpOnFabric,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Topology(e) => write!(f, "topology: {e}"),
            RunError::Build(e) => write!(f, "build: {e}"),
            RunError::Sim(e) => write!(f, "simulation: {e}"),
            RunError::Verify(e) => write!(f, "verification: {e}"),
            RunError::NoSharpOnFabric => write!(f, "SHArP design on a fabric without SHArP"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<dpml_topology::TopologyError> for RunError {
    fn from(e: dpml_topology::TopologyError) -> Self {
        RunError::Topology(e)
    }
}

impl From<crate::algorithms::BuildError> for RunError {
    fn from(e: crate::algorithms::BuildError) -> Self {
        RunError::Build(e)
    }
}

impl From<dpml_engine::sim::SimError> for RunError {
    fn from(e: dpml_engine::sim::SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<dpml_engine::VerifyError> for RunError {
    fn from(e: dpml_engine::VerifyError) -> Self {
        RunError::Verify(e)
    }
}

/// One scenario and how to run it: a cluster, a rank placement, an
/// algorithm and a message size, plus the engine budgets, an optional
/// fault plan and whether to record a timeline. [`RunRequest::new`] gives
/// the paper's setting (block placement, no budget, no faults, no trace);
/// override fields with struct-update syntax.
#[derive(Debug, Clone, Copy)]
pub struct RunRequest<'a> {
    /// Cluster preset: fabric speeds and switch tree.
    pub preset: &'a Preset,
    /// Cluster shape.
    pub spec: &'a ClusterSpec,
    /// The algorithm to compile.
    pub alg: Algorithm,
    /// Message size in bytes.
    pub bytes: u64,
    /// Rank placement (block vs cyclic).
    pub placement: Placement,
    /// Engine abort budgets.
    pub opts: RunOpts,
    /// Fault plan and the retry attempt it applies to (see
    /// [`dpml_faults::SharpFaults::flaky_attempts`]). A zero plan
    /// reproduces the unfaulted run bit for bit.
    pub faults: Option<(&'a FaultPlan, u32)>,
    /// Record a full execution timeline in `report.trace`.
    pub trace: bool,
}

impl<'a> RunRequest<'a> {
    /// The paper's setting: block placement, unbudgeted, fault-free,
    /// untraced.
    pub fn new(preset: &'a Preset, spec: &'a ClusterSpec, alg: Algorithm, bytes: u64) -> Self {
        RunRequest {
            preset,
            spec,
            alg,
            bytes,
            placement: Placement::Block,
            opts: RunOpts::default(),
            faults: None,
            trace: false,
        }
    }

    /// The rank map this request's placement lays out.
    pub fn map(&self) -> RankMap {
        match self.placement {
            Placement::Block => RankMap::block(self.spec),
            Placement::Cyclic => RankMap::cyclic(self.spec),
        }
    }
}

/// Compile the request's algorithm, simulate it, verify the result, and
/// report the latency. A budget trip surfaces as [`RunError::Sim`]
/// (`EventBudgetExceeded` / `TimeBudgetExceeded`).
pub fn execute(req: &RunRequest) -> Result<AllreduceReport, RunError> {
    let map = req.map();
    let world = req.alg.build(&map, req.bytes)?;
    let report = simulate(req.preset, &map, &world, &req.opts, req.faults, req.trace)?;
    report.verify_allreduce()?;
    Ok(AllreduceReport {
        algorithm: req.alg.name(),
        bytes: req.bytes,
        latency_us: report.latency_us(),
        report,
    })
}

/// [`execute`] over independent requests on the scenario-parallel
/// runner. Each request is a closed world, so the results are
/// byte-identical to a serial loop and return in input order regardless
/// of completion order (DESIGN.md §11).
pub fn execute_batch(reqs: &[RunRequest]) -> Vec<Result<AllreduceReport, RunError>> {
    use rayon::prelude::*;
    reqs.par_iter().map(execute).collect()
}

/// Simulate an already-compiled `world` on `preset` under the placement
/// `map`, and return the engine report unverified. This is the one place
/// that builds a simulator: it attaches the SHArP oracle when the world
/// uses SHArP groups (or fails with [`RunError::NoSharpOnFabric`]), the
/// budgets, the fault plan and tracing. Callers that compile their own
/// schedules (healing continuations, self-verifying worlds, application
/// profiles) call it directly; everything else goes through [`execute`].
pub fn simulate(
    preset: &Preset,
    map: &RankMap,
    world: &WorldProgram,
    opts: &RunOpts,
    faults: Option<(&FaultPlan, u32)>,
    trace: bool,
) -> Result<RunReport, RunError> {
    let cfg = SimConfig::new(map.clone(), preset.fabric.clone(), preset.switch)?;
    let oracle = if world.sharp_groups.is_empty() {
        None
    } else {
        let params = preset.fabric.sharp.ok_or(RunError::NoSharpOnFabric)?;
        Some(SharpFabric::new(params, cfg.tree.clone(), map.clone()))
    };
    let mut sim = Simulator::new(&cfg);
    if let Some(oracle) = &oracle {
        sim = sim.with_sharp(oracle);
    }
    if let Some(events) = opts.event_budget {
        sim = sim.with_event_budget(events);
    }
    if let Some(s) = opts.time_budget_s {
        sim = sim.with_time_budget(s);
    }
    if let Some((plan, attempt)) = faults {
        sim = sim.with_faults(plan).with_fault_attempt(attempt);
    }
    if trace {
        sim = sim.with_trace();
    }
    Ok(sim.run(world)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FlatAlg;
    use dpml_fabric::presets::{cluster_a, cluster_b};

    #[test]
    fn runs_and_verifies() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let alg = Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::RecursiveDoubling,
        };
        let rep = execute(&RunRequest::new(&p, &spec, alg, 65536)).unwrap();
        assert!(rep.latency_us > 0.0);
        assert_eq!(rep.algorithm, "dpml-l4");
    }

    #[test]
    fn sharp_on_non_sharp_fabric_is_an_error() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let req = RunRequest::new(&p, &spec, Algorithm::SharpNodeLeader, 256);
        assert!(matches!(execute(&req), Err(RunError::NoSharpOnFabric)));
    }

    #[test]
    fn sharp_runs_on_cluster_a() {
        let p = cluster_a();
        let spec = p.spec(4, 4).unwrap();
        let req = RunRequest::new(&p, &spec, Algorithm::SharpSocketLeader, 256);
        assert_eq!(execute(&req).unwrap().report.stats.sharp_ops, 1);
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_and_trips_on_tiny_budgets() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let alg = Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::RecursiveDoubling,
        };
        let plain = RunRequest::new(&p, &spec, alg, 65536);
        let budgeted = |event_budget, time_budget_s| {
            execute(&RunRequest {
                opts: RunOpts {
                    event_budget,
                    time_budget_s,
                },
                ..plain
            })
        };
        let roomy = budgeted(Some(10_000_000), Some(10.0)).unwrap();
        let plain = execute(&plain).unwrap();
        assert_eq!(plain.latency_us.to_bits(), roomy.latency_us.to_bits());

        assert!(matches!(
            budgeted(Some(3), None).unwrap_err(),
            RunError::Sim(dpml_engine::sim::SimError::EventBudgetExceeded(_))
        ));
        assert!(matches!(
            budgeted(None, Some(1e-9)).unwrap_err(),
            RunError::Sim(dpml_engine::sim::SimError::TimeBudgetExceeded(_))
        ));
    }

    #[test]
    fn cyclic_placement_verifies_and_slows_a_small_ring() {
        // A small ring under cyclic placement sends every neighbour hop
        // across the network instead of through shared memory.
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let block = RunRequest::new(&p, &spec, Algorithm::Ring, 1024);
        let cyclic = RunRequest {
            placement: Placement::Cyclic,
            ..block
        };
        let block = execute(&block).unwrap();
        let cyclic = execute(&cyclic).unwrap();
        cyclic.report.verify_allreduce().unwrap();
        assert!(
            cyclic.latency_us > block.latency_us,
            "cyclic {:.1}us vs block {:.1}us",
            cyclic.latency_us,
            block.latency_us
        );
    }

    #[test]
    fn batch_matches_serial_in_input_order() {
        let p = cluster_b();
        let spec = p.spec(2, 4).unwrap();
        let reqs: Vec<RunRequest> = [Algorithm::Ring, Algorithm::RecursiveDoubling]
            .into_iter()
            .flat_map(|alg| [64, 4096].map(|bytes| RunRequest::new(&p, &spec, alg, bytes)))
            .collect();
        let batch = execute_batch(&reqs);
        assert_eq!(batch.len(), reqs.len());
        for (req, got) in reqs.iter().zip(&batch) {
            let want = execute(req).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!((&got.algorithm, got.bytes), (&want.algorithm, want.bytes));
            assert_eq!(got.latency_us.to_bits(), want.latency_us.to_bits());
        }
    }

    #[test]
    fn build_error_propagates() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let alg = Algorithm::Dpml {
            leaders: 9,
            inner: FlatAlg::Ring,
        };
        let err = execute(&RunRequest::new(&p, &spec, alg, 1024)).unwrap_err();
        assert!(matches!(err, RunError::Build(_)));
    }
}
