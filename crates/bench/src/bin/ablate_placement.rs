//! Ablation — rank placement sensitivity.
//!
//! Flat algorithms assume "nearby ranks are cheap": under cyclic placement
//! (rank `r` on node `r mod h`) their low-distance exchanges all cross the
//! network and latency degrades. DPML discovers node boundaries from the
//! rank map, so its schedule is placement-robust — an emergent benefit of
//! the hierarchical structure worth quantifying.
//!
//! Usage: `ablate_placement [--nodes N]`

use dpml_bench::{arg_num, fmt_bytes, fmt_us, save_results, Table};
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::run::{execute, RunRequest};
use dpml_fabric::presets::cluster_b;
use dpml_topology::Placement;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    algorithm: String,
    placement: &'static str,
    bytes: u64,
    latency_us: f64,
}

fn main() {
    let preset = cluster_b();
    let nodes = arg_num("--nodes", 8u32);
    let spec = preset.default_spec(nodes).expect("spec");
    let algs = [
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Dpml {
            leaders: 8,
            inner: FlatAlg::RecursiveDoubling,
        },
    ];
    println!(
        "placement ablation on {} ({} nodes x {} ppn)",
        preset.fabric.name, nodes, spec.ppn
    );
    let mut points = Vec::new();
    let mut table = Table::new([
        "algorithm",
        "size",
        "block (us)",
        "cyclic (us)",
        "cyclic penalty",
    ]);
    for alg in algs {
        for bytes in [4 * 1024u64, 256 * 1024] {
            let block = RunRequest::new(&preset, &spec, alg, bytes);
            let cyclic = RunRequest {
                placement: Placement::Cyclic,
                ..block
            };
            let block = execute(&block).expect("block run").latency_us;
            let cyclic = execute(&cyclic).expect("cyclic run").latency_us;
            table.row([
                alg.name(),
                fmt_bytes(bytes),
                fmt_us(block),
                fmt_us(cyclic),
                format!("{:.2}x", cyclic / block),
            ]);
            points.push(Point {
                algorithm: alg.name(),
                placement: "block",
                bytes,
                latency_us: block,
            });
            points.push(Point {
                algorithm: alg.name(),
                placement: "cyclic",
                bytes,
                latency_us: cyclic,
            });
        }
    }
    table.print();
    let path = save_results("ablate_placement", &points).expect("write results");
    println!("\nsaved {} points to {}", points.len(), path.display());
}
