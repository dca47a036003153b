//! Differential checks of equivalences the engine relies on.
//!
//! The golden suite digests only *traced* runs (`profile_allreduce`),
//! while the figures, the CLI and `dpml serve` run *untraced*. Families
//! 1–3 tie the two together: for randomized geometry × algorithm ×
//! seeded fault plans, a plain `Simulator::run` and a `with_trace()` run
//! must produce the same serialized [`RunReport`] once the traced run's
//! `trace` and `resources` are cleared — or the same structured
//! [`SimError`]. Family 4 checks that storage faults never leak into
//! results: a checkpointed sweep persisted through a fault-injected
//! [`CheckpointStore`] ends on the same checkpoint bytes as one with no
//! store, and its save log repeats exactly under the same seed.
//!
//! Any divergence is mined into `tests/corpus/` in the chaos
//! reproducer format (`dpml::chaos::corpus::Reproducer`), so a failing
//! case becomes a permanent regression fixture replayable by the
//! nightly corpus job — the panic message names the file.
//!
//! Together the families run 256 cases per CI invocation (112 + 64 +
//! 56 + 24).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpml::chaos::{Reproducer, Scenario};
use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::{run_allreduce_checkpointed, ChunkControl, RunOpts, SweepCheckpoint, SweepEnd};
use dpml::engine::sim::SimError;
use dpml::engine::{SimConfig, Simulator};
use dpml::fabric::presets::{cluster_b, cluster_c, cluster_d, Preset};
use dpml::faults::storage::{StorageFaultPlan, StorageFaults};
use dpml::faults::{DataFaults, FaultPlan, LinkFault, ProcessFault};
use dpml::serve::checkpoint::CheckpointStore;
use dpml::topology::RankMap;
use proptest::prelude::*;

/// Deterministic algorithm pick from small integers, paired with its
/// `Algorithm::parse` spelling so a mined reproducer replays the exact
/// same schedule. SHArP designs are excluded: they need an oracle and
/// are locked down separately by the golden suite.
fn pick_algorithm(
    alg_pick: usize,
    flat_pick: usize,
    leaders: u32,
    chunks: u32,
) -> (Algorithm, String) {
    let (inner, inner_spec) = match flat_pick % 3 {
        0 => (FlatAlg::RecursiveDoubling, "rd"),
        1 => (FlatAlg::Rabenseifner, "rab"),
        _ => (FlatAlg::Ring, "ring"),
    };
    match alg_pick % 7 {
        0 => (Algorithm::RecursiveDoubling, "rd".into()),
        1 => (Algorithm::Rabenseifner, "rab".into()),
        2 => (Algorithm::Ring, "ring".into()),
        3 => (Algorithm::BinomialReduceBcast, "binomial".into()),
        4 => (
            Algorithm::SingleLeader { inner },
            format!("single-leader:{inner_spec}"),
        ),
        5 => (
            Algorithm::Dpml { leaders, inner },
            format!("dpml:{leaders}:{inner_spec}"),
        ),
        _ => (
            Algorithm::DpmlPipelined { leaders, chunks },
            format!("dpml-pipelined:{leaders}:{chunks}"),
        ),
    }
}

fn pick_preset(preset_pick: usize) -> Preset {
    match preset_pick % 3 {
        0 => cluster_b(),
        1 => cluster_c(),
        _ => cluster_d(),
    }
}

/// Run one raw engine case, traced or not. `Ok` carries the full
/// serialized report — every field — so the comparison can't miss a
/// divergence the way a latency check could; `Err` carries the
/// structured engine error verbatim. A traced report has its timeline
/// and resource occupancy cleared first: those are what tracing adds,
/// everything else must match the untraced run.
fn sim_case(
    preset: &Preset,
    nodes: u32,
    ppn: u32,
    alg: Algorithm,
    bytes: u64,
    plan: &FaultPlan,
    traced: bool,
) -> Result<String, SimError> {
    let spec = preset
        .spec(nodes, ppn)
        .expect("geometry in generator range");
    let map = RankMap::block(&spec);
    let cfg = SimConfig::new(map.clone(), preset.fabric.clone(), preset.switch)
        .expect("preset fabric is always consistent");
    let world = alg
        .build(&map, bytes)
        .expect("generator picks valid schedules");
    let sim = Simulator::new(&cfg).with_faults(plan);
    let sim = if traced { sim.with_trace() } else { sim };
    sim.run(&world).map(|mut rep| {
        if traced {
            assert!(rep.trace.take().is_some(), "traced run carries a trace");
            rep.resources.clear();
        }
        serde_json::to_string(&rep).expect("RunReport serializes")
    })
}

/// Run a case untraced and traced and compare; on divergence, mine the
/// case into `tests/corpus/` as a chaos reproducer and panic with the
/// mined path so CI failures arrive with their regression fixture
/// already written.
fn expect_trace_invariant(
    preset: &Preset,
    nodes: u32,
    ppn: u32,
    alg: Algorithm,
    alg_spec: &str,
    bytes: u64,
    plan: &FaultPlan,
) {
    let plain = sim_case(preset, nodes, ppn, alg, bytes, plan, false);
    let traced = sim_case(preset, nodes, ppn, alg, bytes, plan, true);
    if plain == traced {
        return;
    }
    let sc = scenario(preset, nodes, ppn, alg_spec, bytes);
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let notes = format!(
        "engine-differential: untraced vs traced divergence on {}",
        sc.id()
    );
    let mined = Reproducer::capture(&sc, plan, &notes)
        .save(&corpus)
        .map(|p| p.display().to_string())
        .unwrap_or_else(|e| format!("<corpus save failed: {e}>"));
    let clip = |r: &Result<String, SimError>| match r {
        Ok(json) => {
            let head: String = json.chars().take(160).collect();
            format!("Ok({head}…)")
        }
        Err(e) => format!("Err({}: {e})", e.label()),
    };
    panic!(
        "traced run diverged from untraced on {}\n\
         reproducer mined to {mined}\n  untraced: {}\n  traced:   {}",
        sc.id(),
        clip(&plain),
        clip(&traced),
    );
}

fn scenario(preset: &Preset, nodes: u32, ppn: u32, alg_spec: &str, bytes: u64) -> Scenario {
    Scenario {
        preset: preset.id.to_string(),
        nodes,
        ppn,
        alg: alg_spec.to_string(),
        bytes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(112))]

    /// Family 1: clean runs and the canonical chaos plan (OS noise,
    /// brownout, link flap) across random geometry, algorithms and sizes.
    /// The happy path and the perturbed-but-successful path must both be
    /// bit-identical.
    #[test]
    fn traced_matches_untraced_on_random_worlds(
        preset_pick in 0usize..3,
        nodes in 1u32..6,
        ppn in 1u32..6,
        bytes in 1u64..16_384,
        alg_pick in 0usize..7,
        flat_pick in 0usize..3,
        l_seed in 0u32..8,
        k in 1u32..5,
        seed in 0u64..1_000_000,
        intensity_pick in 0usize..4,
    ) {
        let preset = pick_preset(preset_pick);
        let (alg, alg_spec) = pick_algorithm(alg_pick, flat_pick, 1 + l_seed % ppn, k);
        let plan = if intensity_pick == 0 {
            FaultPlan::zero()
        } else {
            FaultPlan::canonical(seed, 0.25 * intensity_pick as f64)
        };
        expect_trace_invariant(&preset, nodes, ppn, alg, &alg_spec, bytes, &plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Family 2: silent-data-corruption plans. Wire corruption, drops,
    /// and shm bit-flips drive the engine's retransmission machinery;
    /// small retry budgets push some cases onto the
    /// `RetryBudgetExhausted` error path, so both the recovered-report
    /// bytes and the structured failures get compared.
    #[test]
    fn traced_matches_untraced_under_data_faults(
        nodes in 1u32..5,
        ppn in 1u32..5,
        bytes in 64u64..32_768,
        alg_pick in 0usize..7,
        flat_pick in 0usize..3,
        l_seed in 0u32..8,
        seed in 0u64..1_000_000,
        corrupt_pm in 0u32..80,
        drop_pm in 0u32..40,
        flip_pm in 0u32..20,
        retries in 1u32..64,
        burst_pick in 0usize..3,
    ) {
        let preset = cluster_b();
        let (alg, alg_spec) = pick_algorithm(alg_pick, flat_pick, 1 + l_seed % ppn, 2);
        let mut data = DataFaults::wire(corrupt_pm as f64 / 1000.0, drop_pm as f64 / 1000.0);
        data.shm_flip_rate = flip_pm as f64 / 1000.0;
        data.max_retransmits = retries;
        data.burst = match burst_pick {
            0 => None,
            1 => Some((0.0, 50e-6)),
            _ => Some((10e-6, 200e-6)),
        };
        let plan = FaultPlan { seed, data, ..FaultPlan::zero() };
        expect_trace_invariant(&preset, nodes, ppn, alg, &alg_spec, bytes, &plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(56))]

    /// Family 3: hard failures. Severed links and fail-stop rank
    /// crashes surface structured `LinkDown` / `RankDead` errors — the
    /// traced run must diagnose the identical node/rank at the identical
    /// virtual time, not merely "an" error. Late crash times
    /// also exercise the run-completed-before-the-crash success path.
    #[test]
    fn traced_matches_untraced_under_link_and_process_faults(
        preset_pick in 0usize..3,
        nodes in 2u32..6,
        ppn in 1u32..5,
        bytes in 1u64..8_192,
        alg_pick in 0usize..7,
        flat_pick in 0usize..3,
        l_seed in 0u32..8,
        seed in 0u64..1_000_000,
        sever_pick in 0usize..3,
        crash_rank_seed in 0u32..64,
        crash_at_us in 0u32..400,
    ) {
        let preset = pick_preset(preset_pick);
        let (alg, alg_spec) = pick_algorithm(alg_pick, flat_pick, 1 + l_seed % ppn, 3);
        let mut plan = FaultPlan { seed, ..FaultPlan::zero() };
        match sever_pick {
            // Sever one node's link from t=0.
            0 => plan.links.push(LinkFault {
                node: Some(nodes - 1),
                start: 0.0,
                end: None,
                bw_factor: 0.0,
                msg_rate_factor: 1.0,
            }),
            // Crash one rank at a randomized virtual time.
            1 => plan.process.crashes.push(ProcessFault {
                rank: crash_rank_seed % (nodes * ppn),
                crash_at: crash_at_us as f64 * 1e-6,
            }),
            // Both at once: whichever fault bites first must win
            // identically with and without tracing.
            _ => {
                plan.links.push(LinkFault {
                    node: Some(0),
                    start: 30e-6,
                    end: None,
                    bw_factor: 0.0,
                    msg_rate_factor: 1.0,
                });
                plan.process.crashes.push(ProcessFault {
                    rank: crash_rank_seed % (nodes * ppn),
                    crash_at: crash_at_us as f64 * 1e-6,
                });
            }
        }
        expect_trace_invariant(&preset, nodes, ppn, alg, &alg_spec, bytes, &plan);
    }
}

/// Distinguishes the per-case temp dirs of concurrent test binaries and
/// successive proptest cases.
static STORE_TAG: AtomicU64 = AtomicU64::new(0);

/// Drive a full checkpointed sweep. With `storage = Some((seed, torn‰,
/// flip‰))` every chunk is persisted through a [`CheckpointStore`] under
/// that seeded storage-fault plan; with `None` there is no store at all.
/// Returns the serialized final checkpoint, the per-save outcome log, and
/// whatever the store recovers afterwards.
fn checkpointed_sweep(
    scenarios: &[(Algorithm, u64)],
    chunk: u32,
    storage: Option<(u64, u32, u32)>,
) -> (String, Vec<String>, Option<String>) {
    let preset = cluster_b();
    let spec = preset.spec(3, 2).unwrap();
    let dir = std::env::temp_dir().join(format!(
        "dpml-ediff-{}-{}",
        std::process::id(),
        STORE_TAG.fetch_add(1, Ordering::Relaxed)
    ));
    let store = storage.map(|(seed, torn_pm, flip_pm)| {
        let faults = StorageFaults::new(StorageFaultPlan {
            torn_write_rate: torn_pm as f64 / 100.0,
            bit_flip_rate: flip_pm as f64 / 100.0,
            ..StorageFaultPlan::quiet(seed)
        });
        CheckpointStore::new(&dir, 1).with_faults(Some(Arc::new(faults)))
    });
    let mut ckpt = SweepCheckpoint::new("ediff".into(), scenarios.len() as u32, chunk);
    let mut saves = Vec::new();
    let end = run_allreduce_checkpointed(
        &preset,
        &spec,
        scenarios,
        &mut ckpt,
        |_| ChunkControl::Proceed(RunOpts::default()),
        |snapshot| {
            if let Some(store) = &store {
                saves.push(match store.save(9, snapshot) {
                    Ok(()) => "ok".to_string(),
                    Err(e) => format!("err: {e}"),
                });
            }
        },
    );
    assert_eq!(end, SweepEnd::Completed);
    let recovered = store
        .as_ref()
        .and_then(|store| store.load(9, "ediff", scenarios.len() as u32, chunk))
        .map(|l| {
            format!(
                "fallbacks={} ckpt={}",
                l.fallbacks,
                serde_json::to_string(&l.ckpt).unwrap()
            )
        });
    std::fs::remove_dir_all(&dir).ok();
    (serde_json::to_string(&ckpt).unwrap(), saves, recovered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Family 4: storage-fault plans through the checkpoint pipeline.
    /// A sweep persisted through a store with seeded torn writes and bit
    /// flips must end on the same checkpoint bytes as a sweep with no
    /// store — the store is a sink, never an input. Running the faulted
    /// sweep twice must repeat the save outcome log (which writes tore,
    /// which bits flipped) and the post-hoc recovery result exactly.
    #[test]
    fn storage_faults_never_leak_into_checkpointed_sweeps(
        storage_seed in 0u64..1_000_000,
        torn_pm in 0u32..35,
        flip_pm in 0u32..35,
        chunk in 1u32..4,
        size_pick in 0usize..3,
    ) {
        let bytes = [512u64, 4_096, 16_384][size_pick];
        let scenarios = vec![
            (Algorithm::Ring, bytes),
            (Algorithm::RecursiveDoubling, bytes),
            (Algorithm::Dpml { leaders: 2, inner: FlatAlg::RecursiveDoubling }, bytes),
            (Algorithm::Rabenseifner, bytes / 2 + 1),
            (Algorithm::DpmlPipelined { leaders: 2, chunks: 2 }, bytes),
            (Algorithm::BinomialReduceBcast, bytes),
        ];
        let faults = Some((storage_seed, torn_pm, flip_pm));
        let stored = checkpointed_sweep(&scenarios, chunk, faults);
        let again = checkpointed_sweep(&scenarios, chunk, faults);
        let unstored = checkpointed_sweep(&scenarios, chunk, None);
        prop_assert!(!stored.1.is_empty(), "the store saw no checkpoint");
        prop_assert_eq!(
            &stored.0, &unstored.0,
            "storage faults leaked into the final checkpoint (storage seed {})", storage_seed
        );
        prop_assert_eq!(
            &stored.1, &again.1,
            "storage-fault save log did not repeat (storage seed {})", storage_seed
        );
        prop_assert_eq!(
            &stored.2, &again.2,
            "recovered checkpoint did not repeat (storage seed {})", storage_seed
        );
    }
}
