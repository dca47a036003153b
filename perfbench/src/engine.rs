//! The engine workloads, `figures` and `scale_10k`: paper-figure
//! scenarios run through the sweep runner, each one driven through the
//! public primitives `RankMap::block` → `SimConfig::new` →
//! `Algorithm::build` → `Simulator::run` → `RunReport::verify_allreduce`,
//! with a clock reading between every two calls.

use crate::trace::{self, Recorder, Span};
use crate::util::{median, peak_rss_mb, quantile, Metrics, Rng};
use dpml_core::algorithms::Algorithm;
use dpml_core::selector::Library;
use dpml_engine::{RunReport, SimConfig, Simulator, WorldProgram};
use dpml_fabric::Preset;
use dpml_sharp::SharpFabric;
use dpml_topology::RankMap;
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;

/// One simulated allreduce of a paper figure.
pub struct Scenario {
    /// Stable name, the key of the committed reference.
    pub key: String,
    preset: Preset,
    nodes: u32,
    ppn: u32,
    alg: Algorithm,
    bytes: u64,
}

impl Scenario {
    /// `choice` names what picked the algorithm (a leader count or a
    /// library), so the key stays put if algorithm names change.
    fn new(
        figure: &str,
        preset: &Preset,
        nodes: u32,
        ppn: u32,
        choice: &str,
        alg: Algorithm,
        bytes: u64,
    ) -> Self {
        Scenario {
            key: format!("{figure}/{}/{nodes}x{ppn}/{choice}/{bytes}", preset.id),
            preset: preset.clone(),
            nodes,
            ppn,
            alg,
            bytes,
        }
    }
}

impl Scenario {
    /// One scenario of a serve job; keyed but not in the reference.
    pub fn of_job(preset: &Preset, nodes: u32, ppn: u32, alg: Algorithm, bytes: u64) -> Self {
        Scenario::new("serve", preset, nodes, ppn, &alg.name(), alg, bytes)
    }
}

/// Fig. 4–7 leader sweeps (DPML with 1–16 leaders per node) and the
/// Fig. 9 library comparison on Clusters A–D at the paper's job sizes,
/// over every other paper size (`quick_sizes`: 4 B … 1 MB).
pub fn figures() -> Vec<Scenario> {
    let sizes = dpml_bench::quick_sizes();
    let mut out = Vec::new();
    for (id, nodes, fig) in [
        ("a", 16, "fig4"),
        ("b", 64, "fig5"),
        ("c", 64, "fig6"),
        ("d", 32, "fig7"),
    ] {
        let preset = Preset::by_id(id).expect("paper preset");
        for &bytes in &sizes {
            for leaders in [1u32, 2, 4, 8, 16] {
                let alg = Algorithm::parse(&format!("dpml:{}", leaders.min(preset.default_ppn)))
                    .expect("dpml spec");
                let choice = format!("l{leaders}");
                out.push(Scenario::new(
                    fig,
                    &preset,
                    nodes,
                    preset.default_ppn,
                    &choice,
                    alg,
                    bytes,
                ));
            }
        }
    }
    for (id, nodes) in [("a", 16), ("b", 64), ("c", 64), ("d", 32)] {
        let preset = Preset::by_id(id).expect("paper preset");
        let spec = preset.default_spec(nodes).expect("paper shape");
        // Intel MPI is absent on Clusters A and B, as in the paper.
        let libs: &[Library] = if matches!(id, "a" | "b") {
            &[Library::Mvapich2, Library::DpmlTuned]
        } else {
            &[Library::Mvapich2, Library::IntelMpi, Library::DpmlTuned]
        };
        for &bytes in &sizes {
            for lib in libs {
                let alg = lib.choose(&preset, &spec, bytes);
                out.push(Scenario::new(
                    "fig9",
                    &preset,
                    nodes,
                    spec.ppn,
                    label(*lib),
                    alg,
                    bytes,
                ));
            }
        }
    }
    out
}

fn label(lib: Library) -> &'static str {
    match lib {
        Library::Mvapich2 => "mvapich2",
        Library::IntelMpi => "intel-mpi",
        Library::DpmlTuned => "dpml-tuned",
    }
}

/// Fig. 10: the three libraries' selections on Cluster D at
/// 160 nodes × 64 ppn = 10,240 ranks, at 64 B, 64 KB and 1 MB.
pub fn scale_10k() -> Vec<Scenario> {
    let preset = Preset::by_id("d").expect("cluster D");
    let spec = preset.spec(160, 64).expect("10,240-rank shape");
    let mut out = Vec::new();
    for bytes in [64u64, 64 << 10, 1 << 20] {
        for lib in [Library::Mvapich2, Library::IntelMpi, Library::DpmlTuned] {
            let alg = lib.choose(&preset, &spec, bytes);
            out.push(Scenario::new(
                "fig10",
                &preset,
                160,
                64,
                label(lib),
                alg,
                bytes,
            ));
        }
    }
    out
}

/// What a scenario simulated: the fields the committed reference pins.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    latency_bits: u64,
    messages: u64,
    inter_node_messages: u64,
    inter_node_bytes: u64,
    copies: u64,
    reduces: u64,
    sharp_ops: u64,
    events: u64,
    peak_flows: u64,
}

impl Observed {
    fn of(report: &RunReport) -> Self {
        let s = &report.stats;
        Observed {
            latency_bits: report.latency_us().to_bits(),
            messages: s.messages,
            inter_node_messages: s.inter_node_messages,
            inter_node_bytes: s.inter_node_bytes,
            copies: s.copies,
            reduces: s.reduces,
            sharp_ops: s.sharp_ops,
            events: s.events,
            peak_flows: s.peak_flows as u64,
        }
    }

    fn to_json(&self) -> Value {
        json!({
            "latency_us": f64::from_bits(self.latency_bits),
            "latency_bits": format!("{:016x}", self.latency_bits),
            "messages": self.messages,
            "inter_node_messages": self.inter_node_messages,
            "inter_node_bytes": self.inter_node_bytes,
            "copies": self.copies,
            "reduces": self.reduces,
            "sharp_ops": self.sharp_ops,
            "events": self.events,
            "peak_flows": self.peak_flows,
        })
    }

    fn from_json(v: &Value) -> Option<Self> {
        let n = |k: &str| v.get(k).and_then(Value::as_u64);
        Some(Observed {
            latency_bits: u64::from_str_radix(v.get("latency_bits")?.as_str()?, 16).ok()?,
            messages: n("messages")?,
            inter_node_messages: n("inter_node_messages")?,
            inter_node_bytes: n("inter_node_bytes")?,
            copies: n("copies")?,
            reduces: n("reduces")?,
            sharp_ops: n("sharp_ops")?,
            events: n("events")?,
            peak_flows: n("peak_flows")?,
        })
    }
}

/// Host-side accounting of one scenario.
struct Outcome {
    index: usize,
    result: Result<Observed, String>,
    /// Time before `Simulator::run`: topology, config and program build.
    setup_s: f64,
    /// Dispatch to teardown, the scenario's busy time on its worker.
    total_s: f64,
    instrs: u64,
    coverage_segments: u64,
    worker: ThreadId,
    spans: Vec<Span>,
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Run one scenario through the public primitives, with a span around
/// every call when `rec` is enabled.
fn run_one(sc: &Scenario, index: usize, mut rec: Recorder) -> Outcome {
    let t0 = Instant::now();
    let root = rec.add("bench.scenario", None, t0, t0);
    let mut out = Outcome {
        index,
        result: Err(String::new()),
        setup_s: 0.0,
        total_s: 0.0,
        instrs: 0,
        coverage_segments: 0,
        worker: std::thread::current().id(),
        spans: Vec::new(),
    };
    out.result = (|| {
        let spec = sc
            .preset
            .spec(sc.nodes, sc.ppn)
            .map_err(|e| format!("shape: {e}"))?;
        let map = RankMap::block(&spec);
        let cfg = SimConfig::new(map.clone(), sc.preset.fabric.clone(), sc.preset.switch)
            .map_err(|e| format!("config: {e}"))?;
        let oracle = match (sc.alg.needs_sharp(), sc.preset.fabric.sharp) {
            (false, _) => None,
            (true, Some(params)) => Some(SharpFabric::new(params, cfg.tree.clone(), map.clone())),
            (true, None) => return Err("SHArP design on a fabric without SHArP".to_string()),
        };
        let t1 = Instant::now();
        rec.add("topology.config", root, t0, t1);
        let world: WorldProgram = sc
            .alg
            .build(&map, sc.bytes)
            .map_err(|e| format!("build: {e}"))?;
        let t2 = Instant::now();
        rec.add("core.build", root, t1, t2);
        out.setup_s = secs(t0, t2);
        out.instrs = world.total_instrs() as u64;
        let sim = Simulator::new(&cfg);
        let report = match &oracle {
            Some(o) => sim.with_sharp(o).run(&world),
            None => sim.run(&world),
        }
        .map_err(|e| format!("simulate: {e}"))?;
        let t3 = Instant::now();
        rec.add("engine.run", root, t2, t3);
        let verified = report.verify_allreduce();
        let t4 = Instant::now();
        rec.add("engine.verify", root, t3, t4);
        verified.map_err(|e| format!("verify: {e}"))?;
        let observed = Observed::of(&report);
        out.coverage_segments = report
            .result_coverage
            .iter()
            .map(|c| c.num_segments() as u64)
            .sum();
        let t5 = Instant::now();
        drop(world);
        drop(report);
        rec.add("engine.teardown", root, t5, Instant::now());
        Ok(observed)
    })();
    let end = Instant::now();
    out.total_s = secs(t0, end);
    rec.close(root, end);
    out.spans = rec.into_spans();
    out
}

/// Simulated outputs every scenario must reproduce exactly.
pub struct Reference(HashMap<String, Observed>);

impl Reference {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut map = HashMap::new();
        for (key, v) in doc
            .get("scenarios")
            .and_then(Value::as_object)
            .ok_or("reference has no `scenarios` object")?
            .iter()
        {
            map.insert(
                key.clone(),
                Observed::from_json(v).ok_or(format!("bad reference entry {key}"))?,
            );
        }
        Ok(Reference(map))
    }

    fn check(&self, key: &str, got: &Observed) -> Result<(), String> {
        match self.0.get(key) {
            None => Err(format!("{key}: no reference output")),
            Some(want) if want != got => Err(format!(
                "{key}: simulated output differs from the reference\n  want {want:?}\n  got  {got:?}"
            )),
            Some(_) => Ok(()),
        }
    }
}

/// A workload's scenarios, their reference outputs, and the cost class
/// that orders them in a pass.
pub struct Plan<'a> {
    scenarios: &'a [Scenario],
    reference: &'a Reference,
    /// ⌊log2⌋ of each scenario's reference event count.
    classes: Vec<u32>,
}

impl<'a> Plan<'a> {
    pub fn new(scenarios: &'a [Scenario], reference: &'a Reference) -> Self {
        let classes = scenarios
            .iter()
            .map(|s| {
                reference
                    .0
                    .get(&s.key)
                    .map_or(0, |o| o.events.max(1).ilog2())
            })
            .collect();
        Plan {
            scenarios,
            reference,
            classes,
        }
    }

    /// Longest cost class first, as a sweep should be scheduled; the seed
    /// permutes the scenarios within each class. A wholly seeded order
    /// would make wall time hinge on where the seed puts the straggler.
    fn order(&self, rng: &mut Rng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.scenarios.len()).collect();
        rng.shuffle(&mut order);
        order.sort_by_key(|&i| std::cmp::Reverse(self.classes[i]));
        order
    }
}

/// One sweep-runner call over the whole scenario set.
struct Pass {
    wall_s: f64,
    outcomes: Vec<Outcome>,
}

fn run_pass(plan: &Plan, rng: &mut Rng, epoch: Instant, traced: bool, pass: usize) -> Pass {
    let order = plan.order(rng);
    let base = (pass * plan.scenarios.len()) as u64;
    let t = Instant::now();
    let outcomes = dpml_bench::sweep(order, |i| {
        run_one(
            &plan.scenarios[i],
            i,
            Recorder::new(epoch, base + i as u64, traced),
        )
    });
    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        outcomes,
    }
}

/// Whole passes, at least one, for as close to `seconds` as whole passes allow.
fn run_passes(plan: &Plan, rng: &mut Rng, seconds: f64, epoch: Instant, traced: bool) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(run_pass(plan, rng, epoch, traced, passes.len()));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / passes.len() as f64 > seconds {
            return passes;
        }
    }
}

/// Outcome tally of one pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Simulated events of the scenarios that passed every check.
    events: u64,
}

/// Check every outcome of a pass against the reference.
fn check(plan: &Plan, pass: &Pass) -> Tally {
    let mut t = Tally::default();
    for o in &pass.outcomes {
        t.attempted += 1;
        let key = &plan.scenarios[o.index].key;
        let verdict = o
            .result
            .as_ref()
            .map_err(|e| format!("{key}: {e}"))
            .and_then(|got| plan.reference.check(key, got).map(|()| got.events));
        match verdict {
            Ok(n) => t.events += n,
            Err(e) => {
                t.failed += 1;
                eprintln!("FAILED {e}");
            }
        }
    }
    t
}

pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn workers_seen(passes: &[Pass]) -> usize {
    passes
        .iter()
        .map(|p| {
            p.outcomes
                .iter()
                .map(|o| o.worker)
                .collect::<HashSet<_>>()
                .len()
        })
        .max()
        .unwrap_or(0)
}

fn wall_s(passes: &[Pass]) -> f64 {
    passes.iter().map(|p| p.wall_s).sum()
}

fn describe(plan: &Plan, passes: &[Pass], what: &str) {
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!(
        "{what}: {} scenarios per pass on {} sweep workers, serial engine; pass walls [{}] s",
        plan.scenarios.len(),
        workers_seen(passes),
        walls.join(", ")
    );
}

/// Each scenario's fastest execution across the passes of a run, by
/// scenario index. The reference box shares its host with other tenants:
/// a plain CPU loop on it swings by ±30% over a few seconds. The best of
/// several executions filters those bursts out; a median over passes of
/// the pass wall time does not.
fn best_of(plan: &Plan, passes: &[Pass], f: fn(&Outcome) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; plan.scenarios.len()];
    for o in passes.iter().flat_map(|p| &p.outcomes) {
        best[o.index] = best[o.index].min(f(o));
    }
    best
}

/// A pass's sweep wall time at the given scenario times: the sweep
/// runner's assignment, where each free worker takes the next scenario
/// in order, replayed on `workers` workers.
fn replay_wall(pass: &Pass, times: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    for o in &pass.outcomes {
        let next = free
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *next += times[o.index];
    }
    free.into_iter().fold(0.0, f64::max)
}

/// The untraced run: end-to-end metrics. Times are each scenario's best
/// of the run's passes ([`best_of`]); the wall time of a pass is the
/// median over passes of [`replay_wall`] at those times.
pub fn measure(plan: &Plan, seed: u64, seconds: f64) -> Run {
    let passes = run_passes(plan, &mut Rng::new(seed), seconds, Instant::now(), false);
    let tallies: Vec<Tally> = passes.iter().map(|p| check(plan, p)).collect();
    let total = best_of(plan, &passes, |o| o.total_s);
    let setup = best_of(plan, &passes, |o| o.setup_s);
    let workers = workers_seen(&passes);
    let mut walls: Vec<f64> = passes
        .iter()
        .map(|p| replay_wall(p, &total, workers))
        .collect();
    let wall = median(&mut walls);
    describe(plan, &passes, "untraced");
    println!("best-time pass wall {wall:.3} s");
    let n = passes.len() as f64;
    let per_pass = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>() as f64 / n;
    let mut total_ms: Vec<f64> = total.iter().map(|t| t * 1e3).collect();
    let mut m = Metrics::default();
    m.put(
        "scenarios_per_s",
        per_pass(|t| t.attempted - t.failed) / wall,
        "1/s",
    );
    m.put("events_per_s", per_pass(|t| t.events) / wall, "1/s");
    m.put("setup_s", setup.iter().sum(), "s");
    m.put("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    m.put("p50_ms", quantile(&mut total_ms, 0.5), "ms");
    m.put("p99_ms", quantile(&mut total_ms, 0.99), "ms");
    m.put("req_per_s", per_pass(|t| t.attempted) / wall, "1/s");
    Run {
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        metrics: m,
    }
}

/// The traced run: untraced passes, then as many traced passes in the
/// same scenario orders. Per-layer times are per pass of the traced
/// set; counts are those of one pass, so they repeat exactly. The
/// tracing overhead compares the two sets' wall time.
pub fn measure_traced(plan: &Plan, seed: u64, seconds: f64, spans_out: Option<&Path>) -> Run {
    let plain = run_passes(
        plan,
        &mut Rng::new(seed),
        seconds / 2.0,
        Instant::now(),
        false,
    );
    describe(plan, &plain, "untraced");
    let epoch = Instant::now();
    let mut rng = Rng::new(seed);
    let traced: Vec<Pass> = (0..plain.len())
        .map(|i| run_pass(plan, &mut rng, epoch, true, i))
        .collect();
    describe(plan, &traced, "traced");
    let tallies: Vec<Tally> = plain
        .iter()
        .chain(&traced)
        .map(|p| check(plan, p))
        .collect();
    let n = traced.len() as f64;

    let spans: Vec<Span> = traced
        .iter()
        .flat_map(|p| &p.outcomes)
        .flat_map(|o| o.spans.iter().cloned())
        .collect();
    let layers = trace::self_times(&spans);
    let self_s = |name: &str| layers.get(name).copied().unwrap_or(0.0) / n;
    let all = || traced.iter().flat_map(|p| &p.outcomes);
    let busy: f64 = all().map(|o| o.total_s).sum();
    let workers = workers_seen(&traced).max(1) as f64;

    let mut m = Metrics::default();
    put_engine_layers(&mut m, &traced[0].outcomes, &layers, n);
    m.put("bench.self_s", self_s("bench.scenario"), "s");
    m.put(
        "bench.sweep_busy_ratio",
        busy / (workers * wall_s(&traced)),
        "ratio",
    );
    m.put(
        "bench.scenario_s_max",
        all().map(|o| o.total_s).fold(0.0, f64::max),
        "s",
    );
    m.put("trace.spans", spans.len() as f64 / n, "count");
    m.put(
        "trace.overhead",
        wall_s(&traced) / wall_s(&plain) - 1.0,
        "ratio",
    );
    if let Some(path) = spans_out {
        write_spans(path, &spans);
    }
    Run {
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        metrics: m,
    }
}

/// The topology, core and engine layer metrics: self times per pass
/// (`passes` traced passes behind `layers`) and the counts of one pass.
fn put_engine_layers(
    m: &mut Metrics,
    one_pass: &[Outcome],
    layers: &BTreeMap<&str, f64>,
    passes: f64,
) {
    let self_s = |name: &str| layers.get(name).copied().unwrap_or(0.0) / passes;
    let oks: Vec<&Observed> = one_pass
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .collect();
    let sum = |f: fn(&Observed) -> u64| oks.iter().map(|o| f(o)).sum::<u64>() as f64;
    m.put("topology.config_s", self_s("topology.config"), "s");
    m.put("core.build_s", self_s("core.build"), "s");
    m.put(
        "core.instrs",
        one_pass.iter().map(|o| o.instrs).sum::<u64>() as f64,
        "count",
    );
    m.put("engine.run_s", self_s("engine.run"), "s");
    m.put(
        "engine.ns_per_event",
        self_s("engine.run") * 1e9 / sum(|o| o.events).max(1.0),
        "ns",
    );
    m.put("engine.events", sum(|o| o.events), "count");
    m.put("engine.messages", sum(|o| o.messages), "count");
    m.put(
        "engine.inter_node_bytes",
        sum(|o| o.inter_node_bytes),
        "bytes",
    );
    m.put("engine.copies", sum(|o| o.copies), "count");
    m.put("engine.reduces", sum(|o| o.reduces), "count");
    m.put("engine.sharp_ops", sum(|o| o.sharp_ops), "count");
    m.put(
        "engine.peak_flows",
        oks.iter().map(|o| o.peak_flows).max().unwrap_or(0) as f64,
        "count",
    );
    m.put("engine.verify_s", self_s("engine.verify"), "s");
    m.put(
        "engine.coverage_segments",
        one_pass.iter().map(|o| o.coverage_segments).sum::<u64>() as f64,
        "count",
    );
    m.put("engine.teardown_s", self_s("engine.teardown"), "s");
}

/// Serial traced runs of `scenarios` without the sweep runner: the
/// engine layers under the serve workload's jobs. Returns the spans and
/// the number of scenarios that failed.
pub fn layer_breakdown(m: &mut Metrics, scenarios: &[Scenario]) -> (Vec<Span>, u64) {
    let epoch = Instant::now();
    let outcomes: Vec<Outcome> = scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| run_one(sc, i, Recorder::new(epoch, i as u64, true)))
        .collect();
    let spans: Vec<Span> = outcomes
        .iter()
        .flat_map(|o| o.spans.iter().cloned())
        .collect();
    put_engine_layers(m, &outcomes, &trace::self_times(&spans), 1.0);
    let failed = outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
    (spans, failed)
}

pub fn write_spans(path: &Path, spans: &[Span]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    match serde_json::to_string(&trace::to_json(spans)) {
        Ok(text) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("could not write spans to {}: {e}", path.display());
            } else {
                println!("wrote {} spans to {}", spans.len(), path.display());
            }
        }
        Err(e) => eprintln!("could not encode spans: {e}"),
    }
}

/// Run every scenario once and write its simulated outputs as the
/// reference, in scenario order.
pub fn write_reference(path: &Path, sets: &[&[Scenario]]) -> Result<(), String> {
    let mut entries = Map::new();
    for scenarios in sets {
        let outcomes = dpml_bench::sweep((0..scenarios.len()).collect(), |i| {
            run_one(&scenarios[i], i, Recorder::new(Instant::now(), 0, false))
        });
        for o in outcomes {
            let key = &scenarios[o.index].key;
            let got = o.result.map_err(|e| format!("{key}: {e}"))?;
            entries.insert(key.clone(), got.to_json());
        }
    }
    let doc = json!({
        "schema": 1,
        "note": "Simulated outputs of every engine scenario; produced by `--write-reference`. Never regenerate it to make a change pass.",
        "scenarios": Value::Object(entries),
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}
