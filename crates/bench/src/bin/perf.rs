//! Engine performance baseline — wall-clock and events/sec across the
//! cluster × algorithm × size matrix (DESIGN.md §11; EXPERIMENTS.md
//! `perf` row).
//!
//! Every sweep point compiles, simulates, and verifies one allreduce via
//! [`execute`] and reports the discrete-event throughput
//! (`stats.events / wall`). The matrix deliberately includes the
//! engine's worst case — `ring` at the largest shape and size, where the
//! flow count and coverage-map pressure peak — so regressions on the hot
//! path cannot hide behind cheap points.
//!
//! Writes `results/perf_wallclock.json`. CI runs `perf --quick` and
//! fails if any point's events/sec drops more than 25% below the
//! committed baseline (see `.github/workflows/ci.yml` and
//! `scripts/perf_check.py`).
//!
//! Usage: `perf [--quick] [--nodes N] [--ppn P] [--reps R] [--no-flight] [--out NAME]`
//!   --quick      CI matrix: 8×8 shape (seconds, not minutes) plus one
//!                paper-shaped DPML point, Cluster B 64×28 `dpml:16` 64 KB
//!   --reps       simulate each point R times, report the best (default 3
//!                in quick mode, 1 otherwise) — damps scheduler noise on
//!                loaded CI machines
//!   --no-flight  disable the always-on flight recorder for this run; CI
//!                compares a `--no-flight` run against a default run on
//!                the largest point to bound the recorder's overhead
//!                (DESIGN.md §14 budgets it at <2% events/s)
//!   --out        results file stem (default `perf_wallclock`), so the
//!                overhead comparison can write both runs side by side

use dpml_bench::{arg_flag, arg_num, arg_value, fmt_bytes, save_results, sweep, Table};
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::run::{execute, RunRequest};
use dpml_engine::flight;
use dpml_fabric::{presets, Preset};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    cluster: String,
    algorithm: String,
    nodes: u32,
    ppn: u32,
    bytes: u64,
    latency_us: f64,
    events: u64,
    peak_flows: u64,
    wall_s: f64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct Results {
    quick: bool,
    /// True when the flight recorder was left on (the default).
    flight: bool,
    nodes: u32,
    ppn: u32,
    sizes: Vec<u64>,
    workers: usize,
    total_wall_s: f64,
    /// The largest sweep point (most simulated events): the acceptance
    /// gate for engine fast-path work compares this point's
    /// events_per_sec across engine versions.
    largest_point: String,
    largest_events_per_sec: f64,
    points: Vec<Point>,
}

fn clusters() -> Vec<(&'static str, Preset)> {
    vec![
        ("a", presets::cluster_a()),
        ("b", presets::cluster_b()),
        ("c", presets::cluster_c()),
        ("d", presets::cluster_d()),
    ]
}

fn algorithms(ppn: u32) -> Vec<Algorithm> {
    let mut algs = vec![
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Ring,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::Dpml {
            leaders: (ppn / 2).max(2),
            inner: FlatAlg::Ring,
        },
        Algorithm::DpmlPipelined {
            leaders: 2,
            chunks: 4,
        },
    ];
    if ppn >= 16 {
        algs.push(Algorithm::Dpml {
            leaders: 16,
            inner: FlatAlg::RecursiveDoubling,
        });
    }
    algs
}

fn main() {
    let quick = arg_flag("--quick");
    let no_flight = arg_flag("--no-flight");
    if no_flight {
        flight::global().set_enabled(false);
    }
    let out_name = arg_value("--out").unwrap_or_else(|| "perf_wallclock".into());
    let (def_nodes, def_ppn) = if quick { (8, 8) } else { (16, 16) };
    let nodes: u32 = arg_num("--nodes", def_nodes);
    let ppn: u32 = arg_num("--ppn", def_ppn);
    let sizes: Vec<u64> = vec![65536, 1 << 20];
    let reps: u32 = arg_num("--reps", if quick { 3 } else { 1 });

    // Build the matrix; each point is an independent scenario for the
    // parallel sweep runner (pure — no RNG stream needed).
    let mut matrix: Vec<(String, Preset, Algorithm, u64, u32, u32)> = Vec::new();
    for (tag, preset) in clusters() {
        for alg in algorithms(ppn) {
            for &bytes in &sizes {
                matrix.push((tag.to_string(), preset.clone(), alg, bytes, nodes, ppn));
            }
        }
    }
    if quick {
        // One paper-shaped point: Cluster B at 64 nodes × 28 ranks,
        // `dpml:16` on 64 KB (~170k events). At 8×8 only `ring` clears
        // the gate's event floor, so without it no DPML point — none of
        // the intra-node copy/reduce path DPML lives on — is gated.
        let alg = Algorithm::Dpml {
            leaders: 16,
            inner: FlatAlg::RecursiveDoubling,
        };
        matrix.push(("b".into(), presets::cluster_b(), alg, 65536, 64, 28));
    }

    let t0 = Instant::now();
    let points: Vec<Point> = sweep(matrix, |(tag, preset, alg, bytes, nodes, ppn)| {
        let spec = preset
            .spec(nodes, ppn)
            .unwrap_or_else(|e| panic!("cluster {tag} {nodes}x{ppn}: {e}"));
        // Best-of-R: the simulation is deterministic, so the variation
        // across repetitions is pure scheduler/frequency noise and the
        // minimum wall is the honest throughput measurement.
        let mut wall = f64::INFINITY;
        let mut rep = None;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let r = execute(&RunRequest::new(&preset, &spec, alg, bytes)).unwrap_or_else(|e| {
                panic!("cluster {tag} {nodes}x{ppn} {} @ {bytes}: {e}", alg.name())
            });
            wall = wall.min(start.elapsed().as_secs_f64());
            rep = Some(r);
        }
        let rep = rep.expect("at least one rep");
        let events = rep.report.stats.events;
        Point {
            cluster: tag,
            algorithm: alg.name(),
            nodes,
            ppn,
            bytes,
            latency_us: rep.latency_us,
            events,
            peak_flows: rep.report.stats.peak_flows as u64,
            wall_s: wall,
            events_per_sec: events as f64 / wall.max(1e-9),
        }
    });
    let total_wall_s = t0.elapsed().as_secs_f64();

    let mut table = Table::new(
        [
            "cluster",
            "algorithm",
            "shape",
            "size",
            "events",
            "wall",
            "events/s",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    for p in &points {
        table.row(vec![
            p.cluster.clone(),
            p.algorithm.clone(),
            format!("{}x{}", p.nodes, p.ppn),
            fmt_bytes(p.bytes),
            p.events.to_string(),
            format!("{:.3}s", p.wall_s),
            format!("{:.0}", p.events_per_sec),
        ]);
    }
    table.print();

    let largest = points
        .iter()
        .max_by_key(|p| p.events)
        .expect("non-empty matrix");
    let largest_point = format!(
        "{}/{}/{}x{}/{}",
        largest.cluster, largest.algorithm, largest.nodes, largest.ppn, largest.bytes
    );
    println!(
        "\nlargest sweep point: {largest_point} — {} events, {:.0} events/s, {:.3}s wall \
         ({:.3}s total, {} worker(s))",
        largest.events,
        largest.events_per_sec,
        largest.wall_s,
        total_wall_s,
        rayon::current_num_threads(),
    );

    let results = Results {
        quick,
        flight: !no_flight,
        nodes,
        ppn,
        sizes,
        workers: rayon::current_num_threads(),
        total_wall_s,
        largest_point,
        largest_events_per_sec: largest.events_per_sec,
        points,
    };
    let path = save_results(&out_name, &results).expect("write results");
    println!("wrote {}", path.display());
}
