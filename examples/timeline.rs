//! Trace a DPML allreduce and export a Chrome-tracing timeline: see the
//! four phases of the paper's Figure 2 laid out across ranks.
//!
//! Run with: `cargo run --release --example timeline`
//! then load `results/dpml_timeline.json` in chrome://tracing or
//! ui.perfetto.dev. (`dpml profile` writes the same artifact plus a
//! critical-path attribution table.)

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::run::{execute, RunRequest};
use dpml::engine::SpanKind;
use dpml::fabric::presets::cluster_b;

fn main() {
    let preset = cluster_b();
    let spec = preset.spec(4, 8).expect("4 nodes x 8 ranks");
    let alg = Algorithm::Dpml {
        leaders: 4,
        inner: FlatAlg::RecursiveDoubling,
    };
    let rep = execute(&RunRequest {
        trace: true,
        ..RunRequest::new(&preset, &spec, alg, 256 * 1024)
    })
    .expect("verified run")
    .report;
    let trace = rep.trace.as_ref().expect("trace enabled");

    println!(
        "{} on {} ranks: {:.1}us, {} spans, {} messages traced",
        alg.name(),
        spec.world_size(),
        rep.latency_us(),
        trace.spans.len(),
        trace.messages.len()
    );
    println!("\ntime by activity (all ranks):");
    for kind in [
        SpanKind::Copy,
        SpanKind::Reduce,
        SpanKind::SendInject,
        SpanKind::Wait,
        SpanKind::Barrier,
    ] {
        println!(
            "  {:<8} {:>10.1} us",
            kind.name(),
            trace.total_time(kind) * 1e6
        );
    }

    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/dpml_timeline.json";
    std::fs::write(path, trace.to_chrome_json()).expect("write trace");
    println!("\nwrote {path} — open it in chrome://tracing or ui.perfetto.dev");
}
