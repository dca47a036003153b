//! End-to-end telemetry tests: the `watch` stream, the `metrics`
//! exposition, the `dpml top` renderer over live frames, and post-mortem
//! bundles cross-checked against the journal.

use dpml_engine::flight::PostmortemBundle;
use dpml_serve::journal::{replay_file, Record};
use dpml_serve::top::Dashboard;
use dpml_serve::{start, Client, JobKind, JobSpec, ServeConfig, Submission};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dpml-telemetry-e2e-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn base_cfg(name: &str) -> ServeConfig {
    let journal_path = std::env::temp_dir().join(format!(
        "dpml-telemetry-e2e-{}-{name}.journal",
        std::process::id()
    ));
    std::fs::remove_file(&journal_path).ok();
    ServeConfig {
        journal_path,
        // Sample fast so watch windows carry signal within test time.
        sample_interval_ms: 50,
        ..ServeConfig::default()
    }
}

fn sim_spec(bytes: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Simulate,
        preset: "b".into(),
        nodes: 4,
        ppn: 4,
        algorithms: vec!["dpml:4".into()],
        sizes: vec![bytes],
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

/// `watch` streams parseable frames with live rates: after running jobs,
/// at least one frame must show a nonzero per-second rate, and `dpml
/// top`'s renderer must produce a dashboard from those frames.
#[test]
fn watch_streams_frames_with_nonzero_rates_and_top_renders() {
    let cfg = base_cfg("watch");
    let handle = start(cfg).unwrap();

    // Generate traffic on one connection...
    let mut submitter = connect(handle.addr);
    for bytes in [4096u64, 8192, 16384, 65536] {
        let sub = submitter.submit_and_wait(&sim_spec(bytes)).unwrap();
        assert!(matches!(sub, Submission::Finished { .. }), "{sub:?}");
    }

    // ...then subscribe on another and keep submitting while watching.
    let mut watcher = connect(handle.addr);
    watcher.watch_start(30, 6).unwrap();
    let mut dash = Dashboard::new();
    let mut frames = Vec::new();
    for i in 0u64..6 {
        // Interleave fresh work so the watch windows see deltas (cache
        // hits count too — the submit counter always moves).
        let _ = submitter.submit_and_wait(&sim_spec(4096 + i));
        let frame = watcher.next_frame().unwrap().expect("stream open");
        assert_eq!(frame.seq, i);
        let screen = dash.render("test", &frame);
        assert!(screen.contains(&format!("frame #{}", frame.seq)));
        assert!(screen.contains("events/s"));
        frames.push(frame);
    }

    // Frames after the first have a real window.
    assert!(frames.iter().skip(1).all(|f| f.window_ms > 0));
    // At least one frame saw traffic: a nonzero submitted-rate.
    assert!(
        frames
            .iter()
            .any(|f| f.rate("serve.submitted").unwrap_or(0.0) > 0.0),
        "no frame saw a nonzero serve.submitted rate"
    );
    // Cumulative engine.events must be visible in the stats payload.
    let last = frames.last().unwrap();
    assert!(last.stats.counter("engine.events").unwrap_or(0) > 0);

    // The stream ended after `frames` frames: the connection is back in
    // request/response mode.
    watcher.ping().unwrap();

    handle.shutdown();
    assert_eq!(handle.wait(), 0);
}

/// The `metrics` verb emits Prometheus-style exposition: every sample
/// preceded by a `# TYPE` line, counters suffixed `_total`, histogram
/// summaries with quantile labels, and the serve.shed counter present.
#[test]
fn metrics_verb_emits_lintable_exposition() {
    let cfg = base_cfg("metrics");
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);
    c.submit_and_wait(&sim_spec(65536)).unwrap();

    let text = c.metrics().unwrap();
    assert!(text.contains("# TYPE dpml_serve_queue_depth gauge"));
    assert!(text.contains("# TYPE dpml_serve_submitted_total counter"));
    assert!(text.contains("# TYPE dpml_serve_job_us summary"));
    assert!(text.contains("dpml_serve_job_us{quantile=\"0.99\"}"));
    assert!(text.contains("dpml_engine_events_total"));
    // A job shorter than a millisecond (this one, in a release build)
    // must still register a non-zero time.
    let stats = c.stats().unwrap();
    let job = stats
        .histograms
        .iter()
        .find(|h| h.name == "serve.job_us")
        .expect("job-time histogram");
    assert!(job.count >= 1 && job.mean > 0.0, "{job:?}");

    // Inline lint: the same invariants scripts/metrics_lint.py enforces.
    let mut typed = std::collections::HashSet::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "no blank lines in exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(matches!(kind, "counter" | "gauge" | "summary"), "{line}");
            if kind == "counter" {
                assert!(name.ends_with("_total"), "counter without _total: {line}");
            }
            typed.insert(name.to_string());
        } else {
            let sample = line.split(['{', ' ']).next().unwrap();
            assert!(sample.starts_with("dpml_"), "unnamespaced metric: {line}");
            let base = sample
                .strip_suffix("_sum")
                .or_else(|| sample.strip_suffix("_count"))
                .unwrap_or(sample);
            assert!(typed.contains(base), "sample without TYPE: {line}");
        }
    }

    handle.shutdown();
    assert_eq!(handle.wait(), 0);
}

/// A worker panic dumps a post-mortem bundle whose job context and trace
/// tail line up with the journal: same job id, same attempts, and a
/// journal position that covers every record up to the panic.
#[test]
fn worker_panic_dumps_bundle_matching_journal() {
    let mut cfg = base_cfg("postmortem");
    let postmortem_dir = temp_dir("postmortem-bundles");
    cfg.postmortem_dir = Some(postmortem_dir.clone());
    cfg.max_retries = 4;
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    let mut spec = sim_spec(32768);
    spec.panic_attempts = 2; // panic twice, then succeed
    let sub = c.submit_and_wait(&spec).unwrap();
    let Submission::Finished { id, outcome, .. } = sub else {
        panic!("rejected: {sub:?}");
    };
    assert!(outcome.is_done(), "{outcome:?}");

    handle.shutdown();
    assert_eq!(handle.wait(), 0);

    // Two panics → two bundles (each capped-jittered retry re-panics
    // until attempt 2).
    let mut bundles: Vec<PathBuf> = std::fs::read_dir(&postmortem_dir)
        .expect("postmortem dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    bundles.sort();
    assert_eq!(bundles.len(), 2, "expected one bundle per panic");

    let replay = replay_file(&journal_path).unwrap();
    let starts: Vec<u32> = replay
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Start { id: rid, attempt } if *rid == id => Some(*attempt),
            _ => None,
        })
        .collect();
    assert_eq!(starts, vec![0, 1, 2], "journal shows all three attempts");

    for (i, path) in bundles.iter().enumerate() {
        let bundle = PostmortemBundle::load(path).unwrap();
        assert_eq!(bundle.reason, "worker_panic");
        // Job context matches the journaled job.
        let job = bundle.job.as_ref().expect("job context present");
        let bundle_id = job.get("id").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(bundle_id, id);
        let attempt = job.get("attempt").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(attempt as usize, i, "bundle {i} captured attempt {i}");
        // The trace tail must contain this job's lifecycle up to the
        // panic: its admit (first bundle), the panicking start, and the
        // panic itself, in order.
        let kinds_for_job: Vec<&str> = bundle
            .trace_tail
            .iter()
            .filter(|e| e.job == Some(id))
            .map(|e| e.kind.as_str())
            .collect();
        assert!(
            kinds_for_job.contains(&"job.start") && kinds_for_job.contains(&"job.panic"),
            "bundle {i} trace tail missing start/panic: {kinds_for_job:?}"
        );
        // Journal position covers every record journaled pre-panic: at
        // least the Admit and the Start of the captured attempt.
        let pos = bundle.journal_position.expect("journal position present");
        assert!(pos > 0);
        let prefix = {
            let bytes = std::fs::read(&journal_path).unwrap();
            dpml_serve::journal::replay_bytes(&bytes[..pos as usize])
        };
        assert!(
            prefix
                .records
                .iter()
                .any(|r| matches!(r, Record::Admit { id: rid, .. } if *rid == id)),
            "bundle {i} journal prefix lacks the Admit"
        );
        assert!(
            prefix
                .records
                .iter()
                .any(|r| matches!(r, Record::Start { id: rid, attempt } if *rid == id && *attempt as usize == i)),
            "bundle {i} journal prefix lacks Start attempt {i}"
        );
        // And the bundle carries a metrics snapshot.
        assert!(bundle.metrics.is_some());
    }

    std::fs::remove_dir_all(&postmortem_dir).ok();
    std::fs::remove_file(&journal_path).ok();
}

/// The bundle cap stops a crash loop from filling the disk.
#[test]
fn postmortem_bundles_are_capped() {
    let mut cfg = base_cfg("postmortem-cap");
    let postmortem_dir = temp_dir("postmortem-cap-bundles");
    cfg.postmortem_dir = Some(postmortem_dir.clone());
    cfg.max_postmortems = 3;
    cfg.max_retries = 6;
    cfg.retry_base_ms = 1.0;
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    // 6 panics across two jobs, cap 3.
    for bytes in [1024u64, 2048] {
        let mut spec = sim_spec(bytes);
        spec.panic_attempts = 3;
        c.submit_and_wait(&spec).unwrap();
    }

    handle.shutdown();
    assert_eq!(handle.wait(), 0);

    let count = std::fs::read_dir(&postmortem_dir).unwrap().count();
    assert_eq!(count, 3, "cap must hold");
    std::fs::remove_dir_all(&postmortem_dir).ok();
}
