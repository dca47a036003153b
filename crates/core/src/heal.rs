//! Fail-stop healing for DPML: detect a crashed rank mid-collective,
//! re-elect leaders around it, and re-execute only the lost partitions
//! from surviving shared-memory state.
//!
//! ## Why DPML heals cheaply
//!
//! DPML's phase 1 deposits every rank's contribution to every partition
//! into node shared memory *before* any inter-node traffic. A fail-stop
//! crash kills the process but not the shared segment, so once a rank is
//! past the gather barrier its data is durable on its node. Healing a
//! dead leader `j` therefore needs only:
//!
//! 1. **Re-election** — [`LeaderSet::heal`] promotes a surviving local
//!    rank into leader index `j` on the dead node.
//! 2. **Re-fold** — the leaders of partition `j` (healed on the dead
//!    node, unchanged elsewhere) re-run the phase-2 fold from the
//!    surviving gather slots.
//! 3. **Re-allreduce** — partition `j` alone repeats phase 3 over the
//!    healed leader communicator: `1/l` of the vector, not all of it.
//! 4. **Re-publish** — survivors copy the full vector out of the publish
//!    slots (partitions `j' != j` were already fully reduced and
//!    published before the event queue drained, so they are preset from
//!    the checkpointed shared state).
//!
//! A cold restart instead re-runs the whole collective from scratch
//! after the same detection delay. The healed path wins because the
//! continuation moves `1/l` of the bytes over the wire and skips phase 1
//! entirely.
//!
//! ## When healing is impossible
//!
//! * **Whole-node loss** — the node's shared segment died with it; the
//!   deposits are gone. Cold restart.
//! * **Crash before the gather barrier** — the dead rank's contribution
//!   may exist nowhere but its own (lost) address space. The completion
//!   ledger's program counter decides: the gather barrier instruction
//!   only starts after every phase-1 copy completed, so
//!   `pc > first_barrier_index` proves the deposits landed. Cold
//!   restart otherwise.

use crate::algorithms::flat::emit_flat_range;
use crate::algorithms::{Algorithm, FlatAlg};
use crate::run::{execute, simulate, AllreduceReport, RunError, RunOpts, RunRequest};
use dpml_engine::program::{BufKey, ByteRange, ProgramBuilder, BUF_RESULT};
use dpml_engine::{CoverageMap, Instr, PendingOp, SimError, WorldProgram};
use dpml_fabric::Preset;
use dpml_faults::{FaultPlan, ProcessFaults};
use dpml_topology::{ClusterSpec, LeaderPolicy, LeaderSet, NodeId, Rank, RankMap};
use serde::{Deserialize, Serialize};

/// Fixed virtual-time cost of invoking the healing planner (failure
/// broadcast + leader re-election agreement), microseconds.
pub const REPLAN_BASE_US: f64 = 5.0;
/// Per-rank cost of re-generating and distributing a replanned program,
/// microseconds.
pub const REPLAN_PER_RANK_US: f64 = 0.5;

/// Accounting for one fail-stop recovery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Ranks that died, ascending.
    pub dead_ranks: Vec<u32>,
    /// When the failure detector fired: crash time plus the plan's
    /// detection timeout, microseconds from collective start.
    pub detected_at_us: f64,
    /// End-to-end latency of the healed run: detection + re-planning +
    /// continuation makespan, microseconds.
    pub healed_latency_us: f64,
    /// End-to-end latency of the alternative: detection + a full
    /// fault-free re-run, microseconds.
    pub cold_restart_latency_us: f64,
    /// Ranks whose programs the healing planner re-generated: the healed
    /// leader communicators of every lost partition plus the survivors
    /// on nodes that lost a rank.
    pub replanned_ranks: Vec<u32>,
    /// Leader re-elections applied, as `(node, leader index, replacement
    /// local rank)`.
    pub reelections: Vec<(u32, u32, u32)>,
}

/// What a fail-stop run of DPML came to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FailstopOutcome {
    /// No rank died; the report is bit-identical to an unfaulted run
    /// under the same non-process faults.
    Clean {
        /// The verified run.
        report: AllreduceReport,
    },
    /// A rank died and the collective was healed: survivors hold the
    /// full reduction, including the dead ranks' contributions recovered
    /// from their shared-memory deposits.
    Healed {
        /// The verified continuation run (latency is the continuation
        /// makespan only; see [`RecoveryReport::healed_latency_us`] for
        /// end-to-end).
        report: AllreduceReport,
        /// Recovery accounting.
        recovery: RecoveryReport,
    },
    /// A rank died and healing was impossible; the collective re-ran
    /// from scratch after the detection timeout.
    ColdRestart {
        /// The verified restarted run.
        report: AllreduceReport,
        /// Recovery accounting (`healed_latency_us` equals
        /// `cold_restart_latency_us`: the restart *was* the recovery).
        recovery: RecoveryReport,
        /// Why a heal could not be attempted.
        reason: String,
    },
}

impl FailstopOutcome {
    /// The verified report of whichever schedule completed.
    pub fn report(&self) -> &AllreduceReport {
        match self {
            FailstopOutcome::Clean { report }
            | FailstopOutcome::Healed { report, .. }
            | FailstopOutcome::ColdRestart { report, .. } => report,
        }
    }

    /// Recovery accounting, if any rank died.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        match self {
            FailstopOutcome::Clean { .. } => None,
            FailstopOutcome::Healed { recovery, .. }
            | FailstopOutcome::ColdRestart { recovery, .. } => Some(recovery),
        }
    }

    /// End-to-end latency including detection and recovery, microseconds.
    pub fn total_latency_us(&self) -> f64 {
        match self {
            FailstopOutcome::Clean { report } => report.latency_us,
            FailstopOutcome::Healed { recovery, .. } => recovery.healed_latency_us,
            FailstopOutcome::ColdRestart { recovery, .. } => recovery.cold_restart_latency_us,
        }
    }
}

/// Run a DPML allreduce under `plan`, healing fail-stop crashes when the
/// dead ranks' deposits survive and falling back to a cold restart when
/// they do not. Every path returns a verified result: survivors always
/// end with the full reduction over the whole vector.
pub fn run_dpml_failstop(
    preset: &Preset,
    spec: &ClusterSpec,
    leaders: u32,
    inner: FlatAlg,
    bytes: u64,
    plan: &FaultPlan,
) -> Result<FailstopOutcome, RunError> {
    let alg = Algorithm::Dpml { leaders, inner };
    let req = RunRequest {
        faults: Some((plan, 0)),
        ..RunRequest::new(preset, spec, alg, bytes)
    };
    match execute(&req) {
        Ok(report) => Ok(FailstopOutcome::Clean { report }),
        Err(RunError::Sim(SimError::RankDead {
            rank,
            time,
            pending_ops,
        })) => heal_after_crash(&req, leaders, inner, plan, rank, time, &pending_ops),
        Err(e) => Err(e),
    }
}

/// Recover the DPML run `req` (run under `plan`) after `first_rank` died
/// at `time`: heal it from the surviving deposits, or cold-restart it.
fn heal_after_crash(
    req: &RunRequest,
    leaders: u32,
    inner: FlatAlg,
    plan: &FaultPlan,
    first_rank: u32,
    time: f64,
    pending_ops: &[PendingOp],
) -> Result<FailstopOutcome, RunError> {
    let (alg, bytes, spec) = (req.alg, req.bytes, req.spec);
    // The continuation (and the hypothetical restart) run after the
    // crash; they see the plan's noise and link faults but no further
    // process deaths.
    let scrubbed = FaultPlan {
        process: ProcessFaults::default(),
        ..plan.clone()
    };
    let clean = execute(&RunRequest {
        faults: Some((&scrubbed, 0)),
        ..*req
    })?;
    let detected_at_us = (time + plan.process.detection_timeout) * 1e6;
    let cold_restart_latency_us = detected_at_us + clean.latency_us;

    // The ledger records one "crashed" entry per dead rank.
    let mut dead: Vec<u32> = pending_ops
        .iter()
        .filter(|op| op.what.starts_with("crashed"))
        .map(|op| op.rank)
        .collect();
    if !dead.contains(&first_rank) {
        dead.push(first_rank);
    }
    dead.sort_unstable();
    dead.dedup();

    let map = req.map();
    let cold = |reason: String, dead: &[u32]| FailstopOutcome::ColdRestart {
        report: clean.clone(),
        recovery: RecoveryReport {
            dead_ranks: dead.to_vec(),
            detected_at_us,
            healed_latency_us: cold_restart_latency_us,
            cold_restart_latency_us,
            replanned_ranks: Vec::new(),
            reelections: Vec::new(),
        },
        reason,
    };

    // Whole-node loss kills the shared segment along with the deposits.
    for n in 0..spec.num_nodes {
        let members = map.ranks_on_node(NodeId(n));
        if members.iter().all(|r| dead.contains(&r.0)) {
            return Ok(cold(
                format!("node {n} lost every rank; its shared-memory deposits died with it"),
                &dead,
            ));
        }
    }

    // Deposits-safe check against the original schedule: the crashed
    // program counter must be past the gather barrier.
    let world = alg.build(&map, bytes)?;
    for &d in &dead {
        let prog = &world.programs[d as usize];
        let first_barrier = prog
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Barrier { .. }));
        let pc = pending_ops
            .iter()
            .find(|op| op.rank == d && op.what.starts_with("crashed"))
            .map_or(0, |op| op.pc);
        let safe = matches!(first_barrier, Some(fb) if pc > fb);
        if !safe {
            return Ok(cold(
                format!(
                    "rank {d} died at pc {pc} before finishing its phase-1 \
                     shared-memory deposits; its contribution is unrecoverable"
                ),
                &dead,
            ));
        }
    }

    let dead_ranks: Vec<Rank> = dead.iter().map(|&d| Rank(d)).collect();
    let set = LeaderPolicy::PerNode(leaders).build(&map)?;
    let healed = set.heal(&dead_ranks);
    let mut affected: Vec<u32> = dead_ranks
        .iter()
        .filter_map(|&d| set.leader_index(d))
        .collect();
    affected.sort_unstable();
    affected.dedup();
    let l = set.leaders_per_node();
    let parts: Vec<ByteRange> = (0..l)
        .map(|j| ByteRange::whole(bytes).subrange(l, j))
        .collect();

    let cont = build_continuation(&map, &set, &healed, &parts, bytes, &dead, &affected, inner);
    let faults = Some((&scrubbed, 0));
    let report = simulate(req.preset, &map, &cont, &RunOpts::default(), faults, false)?;
    report.verify_allreduce_excluding(&dead)?;

    let mut replanned: Vec<u32> = affected
        .iter()
        .flat_map(|&j| healed.leader_comm(j))
        .map(|r| r.0)
        .collect();
    for &d in &dead {
        let node = map.node_of(Rank(d));
        replanned.extend(
            map.ranks_on_node(node)
                .iter()
                .map(|r| r.0)
                .filter(|r| !dead.contains(r)),
        );
    }
    replanned.sort_unstable();
    replanned.dedup();

    let replan_us = REPLAN_BASE_US + REPLAN_PER_RANK_US * replanned.len() as f64;
    let healed_latency_us = detected_at_us + replan_us + report.latency_us();
    let latency_us = report.latency_us();
    Ok(FailstopOutcome::Healed {
        report: AllreduceReport {
            algorithm: format!("{}-healed", alg.name()),
            bytes,
            latency_us,
            report,
        },
        recovery: RecoveryReport {
            dead_ranks: dead,
            detected_at_us,
            healed_latency_us,
            cold_restart_latency_us,
            replanned_ranks: replanned,
            reelections: healed
                .replacements()
                .iter()
                .map(|(n, j, lr)| (n.0, *j, lr.0))
                .collect(),
        },
    })
}

/// Coverage of a fully-reduced range: every rank's contribution.
pub(crate) fn full_cov(p: u32, start: u64, end: u64) -> CoverageMap {
    let mut m = CoverageMap::empty();
    for r in 0..p {
        m.union_merge(&CoverageMap::singleton(r, start, end), start, end);
    }
    m
}

/// Build the continuation world: resume the collective from the
/// checkpointed shared-memory state the crash left behind.
///
/// Preset state (what provably survived, see the module docs):
/// * gather slots of every *affected* partition hold each local rank's
///   phase-1 deposit — including the dead ranks', which the
///   deposits-safe check guaranteed;
/// * publish slots of every *unaffected* partition hold the full
///   reduction on every node.
///
/// Dead ranks get empty programs; each node's publish barrier is
/// re-registered over its survivors only.
///
/// Also reused by [`crate::integrity`] with `dead = []` and
/// `healed == orig`: re-reducing a partition whose inter-leader exchange
/// exhausted its retransmit budget is exactly a heal with nobody dead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_continuation(
    map: &RankMap,
    orig: &LeaderSet,
    healed: &LeaderSet,
    parts: &[ByteRange],
    bytes: u64,
    dead: &[u32],
    affected: &[u32],
    inner: FlatAlg,
) -> WorldProgram {
    let spec = *map.spec();
    let ppn = spec.ppn;
    let l = orig.leaders_per_node();
    let p = map.world_size();
    let mut w = WorldProgram::new(p, bytes);
    let mut b = ProgramBuilder::new();
    let is_dead = |r: Rank| dead.contains(&r.0);

    let slot_base = b.fresh_shared(l * ppn);
    let slot = |j: u32, i: u32| BufKey::Shared(slot_base + j * ppn + i);
    let bcast_base = b.fresh_shared(l);

    for j in 0..l {
        let part = parts[j as usize];
        if part.is_empty() {
            continue;
        }
        if affected.contains(&j) {
            for node in 0..spec.num_nodes {
                let members = map.ranks_on_node(NodeId(node));
                for (i, &r) in members.iter().enumerate() {
                    w.preset_shared(
                        node,
                        slot_base + j * ppn + i as u32,
                        CoverageMap::singleton(r.0, part.start, part.end),
                    );
                }
            }
        } else {
            let cov = full_cov(p, part.start, part.end);
            for node in 0..spec.num_nodes {
                w.preset_shared(node, bcast_base + j, cov.clone());
            }
        }
    }

    // Phase 2': leaders of the lost partitions re-fold from the
    // surviving deposits (the healed leader on the dead node, the
    // original leaders elsewhere — `healed` routes both).
    for node in 0..spec.num_nodes {
        let node = NodeId(node);
        for &j in affected {
            let part = parts[j as usize];
            if part.is_empty() {
                continue;
            }
            let leader = healed.leader_rank(node, j);
            debug_assert!(!is_dead(leader), "healed leader must survive");
            let prog = w.rank(leader);
            prog.copy(slot(j, 0), BUF_RESULT, part, false);
            if ppn > 1 {
                let srcs: Vec<BufKey> = (1..ppn).map(|i| slot(j, i)).collect();
                prog.reduce(srcs, BUF_RESULT, part);
            }
        }
    }

    // Phase 3': the lost partitions alone repeat the inter-node
    // allreduce, over the healed leader communicators.
    for &j in affected {
        let part = parts[j as usize];
        if part.is_empty() {
            continue;
        }
        let comm = healed.leader_comm(j);
        emit_flat_range(&mut w, &mut b, &comm, BUF_RESULT, part, inner);
    }

    // Phase 4': publish the re-reduced partitions, then every survivor
    // copies the whole vector out of the publish slots. (Survivors were
    // all blocked at their publish barriers when the crash drained the
    // queue, so none of them completed phase 4 in the original run.)
    for node in 0..spec.num_nodes {
        let node = NodeId(node);
        let members = map.ranks_on_node(node);
        let survivors: Vec<Rank> = members.iter().copied().filter(|&r| !is_dead(r)).collect();
        let need_barrier = affected.iter().any(|&j| !parts[j as usize].is_empty());
        let publish_done = if need_barrier {
            let id = b.fresh_barrier();
            w.register_barrier(id, survivors.clone());
            Some(id)
        } else {
            None
        };
        for &r in &survivors {
            let my_socket = map.socket_of(r);
            let prog = w.rank(r);
            for &j in affected {
                let part = parts[j as usize];
                if !part.is_empty() && healed.leader_rank(node, j) == r {
                    prog.copy(BUF_RESULT, BufKey::Shared(bcast_base + j), part, false);
                }
            }
            if let Some(id) = publish_done {
                prog.barrier(id);
            }
            for j in 0..l {
                let part = parts[j as usize];
                if part.is_empty() {
                    continue;
                }
                let is_affected = affected.contains(&j);
                let publisher = if is_affected {
                    healed.leader_rank(node, j)
                } else {
                    orig.leader_rank(node, j)
                };
                if is_affected && publisher == r {
                    continue; // the healed leader already holds it
                }
                let cross = map.socket_of(publisher) != my_socket;
                prog.copy(BufKey::Shared(bcast_base + j), BUF_RESULT, part, cross);
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_fabric::presets::cluster_a;

    fn spec_4x4(preset: &Preset) -> ClusterSpec {
        preset.spec(4, 4).unwrap()
    }

    fn crash_plan(rank: u32, at: f64) -> FaultPlan {
        FaultPlan {
            process: ProcessFaults::single(rank, at),
            ..FaultPlan::zero()
        }
    }

    #[test]
    fn zero_crash_plan_is_clean_and_bit_identical() {
        let p = cluster_a();
        let spec = spec_4x4(&p);
        let alg = Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        };
        let clean = execute(&RunRequest::new(&p, &spec, alg, 64 * 1024)).unwrap();
        let out = run_dpml_failstop(
            &p,
            &spec,
            2,
            FlatAlg::RecursiveDoubling,
            64 * 1024,
            &FaultPlan::zero(),
        )
        .unwrap();
        let FailstopOutcome::Clean { report } = out else {
            panic!("expected clean outcome");
        };
        assert_eq!(clean.latency_us.to_bits(), report.latency_us.to_bits());
        assert_eq!(clean.report, report.report);
    }

    #[test]
    fn dead_leader_heals_and_beats_cold_restart() {
        let p = cluster_a();
        let spec = spec_4x4(&p);
        let alg = Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        };
        // Crash mid-phase-3: past the deposits, before completion.
        let clean_us = execute(&RunRequest::new(&p, &spec, alg, 1 << 20))
            .unwrap()
            .latency_us;
        // Rank 6 = node 1, local 2 = leader index 1 under PerNode(2)
        // (leaders spread across sockets at locals 0 and 2).
        let out = run_dpml_failstop(
            &p,
            &spec,
            2,
            FlatAlg::RecursiveDoubling,
            1 << 20,
            &crash_plan(6, 0.6 * clean_us * 1e-6),
        )
        .unwrap();
        let FailstopOutcome::Healed { report, recovery } = out else {
            panic!("expected a heal, got {out:?}");
        };
        assert_eq!(recovery.dead_ranks, vec![6]);
        assert!(
            recovery.healed_latency_us < recovery.cold_restart_latency_us,
            "healed {} must beat cold restart {}",
            recovery.healed_latency_us,
            recovery.cold_restart_latency_us
        );
        // Re-election happened on node 1 for leader index 1.
        assert_eq!(recovery.reelections.len(), 1);
        assert_eq!(recovery.reelections[0].0, 1);
        assert_eq!(recovery.reelections[0].1, 1);
        // The healed comm (4 nodes) plus node 1's survivors (3) minus
        // overlap: replanned ranks include every index-1 leader.
        assert!(recovery.replanned_ranks.len() >= 4);
        report.report.verify_allreduce_excluding(&[6]).unwrap();
    }

    #[test]
    fn dead_non_leader_heals_without_reelection() {
        let p = cluster_a();
        let spec = spec_4x4(&p);
        let alg = Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        };
        let clean_us = execute(&RunRequest::new(&p, &spec, alg, 1 << 18))
            .unwrap()
            .latency_us;
        // Rank 3 = node 0, local 3: not a leader under PerNode(2).
        let out = run_dpml_failstop(
            &p,
            &spec,
            2,
            FlatAlg::RecursiveDoubling,
            1 << 18,
            &crash_plan(3, 0.7 * clean_us * 1e-6),
        )
        .unwrap();
        let FailstopOutcome::Healed { report, recovery } = out else {
            panic!("expected a heal, got {out:?}");
        };
        assert!(recovery.reelections.is_empty());
        assert!(recovery.healed_latency_us < recovery.cold_restart_latency_us);
        report.report.verify_allreduce_excluding(&[3]).unwrap();
    }

    #[test]
    fn crash_at_time_zero_cold_restarts() {
        let p = cluster_a();
        let spec = spec_4x4(&p);
        // Dying at t=0 aborts the phase-1 deposits: unrecoverable.
        let out = run_dpml_failstop(
            &p,
            &spec,
            2,
            FlatAlg::RecursiveDoubling,
            1 << 18,
            &crash_plan(6, 0.0),
        )
        .unwrap();
        let FailstopOutcome::ColdRestart {
            reason, recovery, ..
        } = out
        else {
            panic!("expected a cold restart, got {out:?}");
        };
        assert!(reason.contains("deposits"), "reason: {reason}");
        assert_eq!(
            recovery.healed_latency_us.to_bits(),
            recovery.cold_restart_latency_us.to_bits()
        );
    }

    #[test]
    fn whole_node_loss_cold_restarts() {
        let p = cluster_a();
        let spec = spec_4x4(&p);
        let plan = FaultPlan {
            process: ProcessFaults {
                lost_nodes: vec![2],
                ..Default::default()
            },
            ..FaultPlan::zero()
        };
        let out =
            run_dpml_failstop(&p, &spec, 2, FlatAlg::RecursiveDoubling, 1 << 16, &plan).unwrap();
        let FailstopOutcome::ColdRestart { reason, .. } = out else {
            panic!("expected a cold restart, got {out:?}");
        };
        assert!(reason.contains("node 2"), "reason: {reason}");
    }

    #[test]
    fn heals_under_every_inner_algorithm() {
        let p = cluster_a();
        let spec = spec_4x4(&p);
        for inner in [
            FlatAlg::RecursiveDoubling,
            FlatAlg::Rabenseifner,
            FlatAlg::Ring,
        ] {
            let clean_us = execute(&RunRequest::new(
                &p,
                &spec,
                Algorithm::Dpml { leaders: 4, inner },
                1 << 20,
            ))
            .unwrap()
            .latency_us;
            let out = run_dpml_failstop(
                &p,
                &spec,
                4,
                inner,
                1 << 20,
                &crash_plan(9, 0.5 * clean_us * 1e-6),
            )
            .unwrap();
            let FailstopOutcome::Healed { report, recovery } = out else {
                panic!("{inner:?}: expected a heal, got {out:?}");
            };
            assert!(recovery.healed_latency_us < recovery.cold_restart_latency_us);
            report.report.verify_allreduce_excluding(&[9]).unwrap();
        }
    }
}
