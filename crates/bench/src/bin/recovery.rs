//! Fail-stop recovery sweep — what does healing a crashed DPML leader
//! cost compared to restarting the collective from scratch?
//! (DESIGN.md §8; EXPERIMENTS.md `recovery` row.)
//!
//! On Cluster A, crashes leader index 1 (node 1) at several points of the
//! fault-free timeline, across message sizes and leaders-per-node, and
//! reports the healed end-to-end latency (detection + re-plan +
//! continuation) against the cold-restart alternative (detection + full
//! re-run). Early crashes — before the dead rank finished its phase-1
//! shared-memory deposits — are unrecoverable and fall back to the cold
//! restart, which the sweep shows explicitly.
//!
//! Usage: `recovery [--nodes N]`

use dpml_bench::{arg_num, fmt_bytes, fmt_us, save_results, Table};
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::heal::{run_dpml_failstop, FailstopOutcome};
use dpml_core::run::{execute, RunRequest};
use dpml_fabric::presets::cluster_a;
use dpml_faults::{FaultPlan, ProcessFaults};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    leaders: u32,
    bytes: u64,
    crash_rank: u32,
    crash_frac: f64,
    crash_at_us: f64,
    outcome: String,
    detected_at_us: f64,
    healed_latency_us: f64,
    cold_restart_latency_us: f64,
    restart_over_healed: f64,
    replanned_ranks: usize,
}

#[derive(Serialize)]
struct Results {
    nodes: u32,
    ppn: u32,
    sweep: Vec<Point>,
}

const SIZES: [u64; 2] = [64 * 1024, 1 << 20];
const LEADER_COUNTS: [u32; 2] = [2, 8];
const CRASH_FRACS: [f64; 3] = [0.1, 0.6, 0.85];

fn main() {
    let nodes = arg_num("--nodes", 4u32);
    let preset = cluster_a();
    let spec = preset.spec(nodes, 28).expect("spec");
    let ppn = spec.ppn;

    println!(
        "fail-stop recovery sweep on {} ({nodes} nodes x {ppn} ppn)",
        preset.fabric.name
    );

    let mut sweep = Vec::new();
    let mut table = Table::new([
        "leaders", "bytes", "crash@", "outcome", "healed", "restart", "ratio",
    ]);
    for leaders in LEADER_COUNTS {
        for bytes in SIZES {
            let alg = Algorithm::Dpml {
                leaders,
                inner: FlatAlg::RecursiveDoubling,
            };
            let clean_us = execute(&RunRequest::new(&preset, &spec, alg, bytes))
                .expect("clean run")
                .latency_us;
            // Leader index 1 on node 1 (leaders sit at locals j*ppn/l).
            let crash_rank = ppn + ppn / leaders;
            for frac in CRASH_FRACS {
                let plan = FaultPlan {
                    process: ProcessFaults::single(crash_rank, frac * clean_us * 1e-6),
                    ..FaultPlan::zero()
                };
                let out = run_dpml_failstop(
                    &preset,
                    &spec,
                    leaders,
                    FlatAlg::RecursiveDoubling,
                    bytes,
                    &plan,
                )
                .expect("fail-stop run");
                let (outcome, recovery) = match &out {
                    FailstopOutcome::Clean { .. } => {
                        panic!("crash at {frac} of the timeline cannot be clean")
                    }
                    FailstopOutcome::Healed { recovery, .. } => ("healed", recovery),
                    FailstopOutcome::ColdRestart { recovery, .. } => ("cold-restart", recovery),
                };
                let ratio = recovery.cold_restart_latency_us / recovery.healed_latency_us;
                table.row([
                    format!("{leaders}"),
                    fmt_bytes(bytes),
                    format!("{:.0}%", frac * 100.0),
                    outcome.to_string(),
                    fmt_us(recovery.healed_latency_us),
                    fmt_us(recovery.cold_restart_latency_us),
                    format!("{ratio:.2}x"),
                ]);
                sweep.push(Point {
                    leaders,
                    bytes,
                    crash_rank,
                    crash_frac: frac,
                    crash_at_us: frac * clean_us,
                    outcome: outcome.to_string(),
                    detected_at_us: recovery.detected_at_us,
                    healed_latency_us: recovery.healed_latency_us,
                    cold_restart_latency_us: recovery.cold_restart_latency_us,
                    restart_over_healed: ratio,
                    replanned_ranks: recovery.replanned_ranks.len(),
                });
            }
        }
    }
    table.print();

    let results = Results { nodes, ppn, sweep };
    let path = save_results("recovery", &results).expect("write results");
    println!("\nwrote {}", path.display());
}
