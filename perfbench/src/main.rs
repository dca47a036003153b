//! `dpml-perfbench`: one benchmark for the DPML simulator and its serve
//! daemon. See `perfbench/README.md` for the workloads, the metrics and
//! how each metric maps to a layer.
//!
//! ```text
//! dpml-perfbench --workload figures|scale_10k|serve_mix --seed N --seconds S --trace 0|1
//!                [--reference FILE] [--dpml-bin PATH] [--serve-rate R]
//!                [--scratch DIR] [--spans-out FILE]
//! dpml-perfbench --write-reference FILE
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are end to end; with `--trace 1` they are
//! per layer. The process exits 1 when any output check fails.

mod engine;
mod serve;
mod trace;
mod util;

use serde_json::{json, Value};
use std::path::PathBuf;

/// End-to-end metrics, reported by untraced runs of every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("scenarios_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics, reported by traced runs of every workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.config_s", "s"),
    ("core.build_s", "s"),
    ("core.instrs", "count"),
    ("engine.run_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.messages", "count"),
    ("engine.inter_node_bytes", "bytes"),
    ("engine.copies", "count"),
    ("engine.reduces", "count"),
    ("engine.sharp_ops", "count"),
    ("engine.peak_flows", "count"),
    ("engine.verify_s", "s"),
    ("engine.coverage_segments", "count"),
    ("engine.teardown_s", "s"),
    ("bench.self_s", "s"),
    ("bench.sweep_busy_ratio", "ratio"),
    ("bench.scenario_s_max", "s"),
    ("serve.admit_us_p50", "us"),
    ("serve.admit_us_p99", "us"),
    ("serve.admit_us_n", "count"),
    ("serve.journal_append_us_p50", "us"),
    ("serve.journal_append_us_p99", "us"),
    ("serve.journal_append_us_n", "count"),
    ("serve.journal_bytes_per_job", "bytes"),
    ("serve.hit_us_p50", "us"),
    ("serve.hit_us_p99", "us"),
    ("serve.hit_us_n", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.complete_us_p50", "us"),
    ("serve.complete_us_p99", "us"),
    ("serve.complete_us_n", "count"),
    ("serve.execute_us_p50", "us"),
    ("serve.execute_us_p99", "us"),
    ("serve.execute_us_n", "count"),
    ("serve.wait_us", "us"),
    ("serve.shed_ratio", "ratio"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    reference: PathBuf,
    dpml_bin: PathBuf,
    serve_rate: f64,
    scratch: PathBuf,
    spans_out: Option<PathBuf>,
}

fn value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    fn num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
        match value(args, flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {flag} `{v}`")),
        }
    }
    Ok(Args {
        workload: value(args, "--workload").ok_or("--workload is required")?,
        seed: num(args, "--seed", 1)?,
        seconds: num(args, "--seconds", 10.0)?,
        traced: num::<u8>(args, "--trace", 0)? == 1,
        reference: value(args, "--reference")
            .unwrap_or_else(|| "perfbench/reference.json".into())
            .into(),
        dpml_bin: value(args, "--dpml-bin")
            .unwrap_or_else(|| "target/release/dpml".into())
            .into(),
        serve_rate: num(args, "--serve-rate", 2000.0)?,
        scratch: value(args, "--scratch")
            .unwrap_or_else(|| ".perfbench-scratch".into())
            .into(),
        spans_out: value(args, "--spans-out").map(PathBuf::from),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = value(&argv, "--write-reference") {
        let sets = [engine::figures(), engine::scale_10k()];
        let sets: Vec<&[engine::Scenario]> = sets.iter().map(Vec::as_slice).collect();
        if let Err(e) = engine::write_reference(path.as_ref(), &sets) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    let result = match args.workload.as_str() {
        "figures" | "scale_10k" => run_engine(&args),
        "serve_mix" => serve::run(&serve::Settings {
            dpml_bin: args.dpml_bin.clone(),
            scratch: args.scratch.clone(),
            seed: args.seed,
            seconds: args.seconds,
            rate: args.serve_rate,
            traced: args.traced,
            spans_out: args.spans_out.clone(),
        }),
        other => Err(format!(
            "unknown workload `{other}` (figures|scale_10k|serve_mix)"
        )),
    };
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let metrics = run
        .metrics
        .conform(if args.traced { PER_LAYER } else { END_TO_END });
    metrics.print_table();
    let correct = run.failed == 0;
    let line = json!({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics.to_json(),
    });
    println!(
        "{}",
        serde_json::to_string(&line).unwrap_or_else(|_| Value::Null.to_string())
    );
    if !correct {
        std::process::exit(1);
    }
}

fn run_engine(args: &Args) -> Result<engine::Run, String> {
    let reference = engine::Reference::load(&args.reference)?;
    let scenarios = if args.workload == "figures" {
        engine::figures()
    } else {
        engine::scale_10k()
    };
    let plan = engine::Plan::new(&scenarios, &reference);
    Ok(if args.traced {
        engine::measure_traced(&plan, args.seed, args.seconds, args.spans_out.as_deref())
    } else {
        engine::measure(&plan, args.seed, args.seconds)
    })
}
