//! End-to-end failure paths: broken schedules must produce structured,
//! diagnosable errors through the public facade — never hangs or panics.

use dpml::core::algorithms::Algorithm;
use dpml::engine::program::BUF_INPUT;
use dpml::engine::{BufKey, ByteRange, SimConfig, SimError, Simulator, WorldProgram};
use dpml::fabric::presets::cluster_b;
use dpml::faults::{FaultPlan, ProcessFaults};
use dpml::topology::{Rank, RankMap};

fn config(nodes: u32, ppn: u32) -> SimConfig {
    let preset = cluster_b();
    let spec = preset.spec(nodes, ppn).expect("spec");
    SimConfig::new(RankMap::block(&spec), preset.fabric, preset.switch).expect("topology")
}

#[test]
fn receive_without_sender_reports_blocked_ranks() {
    let cfg = config(2, 1);
    let mut w = WorldProgram::new(2, 64);
    // Rank 0 waits for a message rank 1 never sends; rank 1 finishes.
    let p = w.rank(Rank(0));
    let r = p.irecv(Rank(1), 0, BufKey::Priv(2));
    p.wait_all(vec![r]);
    let err = Simulator::new(&cfg).run(&w).unwrap_err();
    match err {
        SimError::Deadlock { blocked } => {
            assert_eq!(
                blocked.len(),
                1,
                "exactly the stuck rank is reported: {blocked:?}"
            );
            let (rank, _pc, why) = &blocked[0];
            assert_eq!(*rank, 0);
            assert!(
                !why.is_empty(),
                "the reason string must say what the rank waits on"
            );
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn mismatched_tags_deadlock_both_ranks() {
    let cfg = config(2, 1);
    let mut w = WorldProgram::new(2, 64);
    // Both ranks send with one tag and receive on another: classic tag
    // mismatch — every rank ends up blocked and named in the error.
    for r in 0..2u32 {
        let peer = Rank(1 - r);
        let p = w.rank(Rank(r));
        let s = p.isend(peer, 1, BUF_INPUT, ByteRange::whole(64));
        let recv = p.irecv(peer, 2, BufKey::Priv(2));
        p.wait_all(vec![s, recv]);
    }
    let err = Simulator::new(&cfg).run(&w).unwrap_err();
    match err {
        SimError::Deadlock { blocked } => {
            let ranks: Vec<u32> = blocked.iter().map(|(r, _, _)| *r).collect();
            assert_eq!(
                ranks,
                vec![0, 1],
                "both ranks must be reported: {blocked:?}"
            );
            let msg = SimError::Deadlock { blocked }.to_string();
            assert!(msg.contains("deadlock"), "{msg}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn event_budget_stops_runaway_programs() {
    let cfg = config(2, 2);
    let mut w = WorldProgram::new(4, 1024);
    // A legitimate but chatty program: ping-pong enough times that a tiny
    // event budget trips before completion.
    for round in 0..50u32 {
        for r in 0..4u32 {
            let peer = Rank(r ^ 1);
            let p = w.rank(Rank(r));
            let s = p.isend(peer, round, BUF_INPUT, ByteRange::whole(1024));
            let recv = p.irecv(peer, round, BufKey::Priv(2));
            p.wait_all(vec![s, recv]);
        }
    }
    let err = Simulator::new(&cfg)
        .with_event_budget(100)
        .run(&w)
        .unwrap_err();
    match err {
        SimError::EventBudgetExceeded(budget) => assert_eq!(budget, 100),
        other => panic!("expected EventBudgetExceeded, got {other:?}"),
    }
    // The same program completes under the default budget.
    Simulator::new(&cfg)
        .run(&w)
        .expect("completes without the artificial cap");
}

#[test]
fn time_budget_converts_slow_runs_into_errors() {
    let cfg = config(2, 1);
    let mut w = WorldProgram::new(2, 8 << 20);
    for r in 0..2u32 {
        let peer = Rank(1 - r);
        let p = w.rank(Rank(r));
        let s = p.isend(peer, 0, BUF_INPUT, ByteRange::whole(8 << 20));
        let recv = p.irecv(peer, 0, BufKey::Priv(2));
        p.wait_all(vec![s, recv]);
    }
    // An 8MB exchange takes milliseconds of virtual time; a 10us budget
    // must trip.
    let err = Simulator::new(&cfg)
        .with_time_budget(10e-6)
        .run(&w)
        .unwrap_err();
    assert!(
        matches!(err, SimError::TimeBudgetExceeded(_)),
        "got {err:?}"
    );
}

/// A fail-stop crash tears down the dead rank's in-flight transfers in
/// send order, so the crash ledger — and the order in which survivors
/// are resumed — is the same on every run, not an artifact of hash-map
/// iteration. Each run builds a fresh simulator in this process, the
/// setting in which a per-instance hash seed would show.
#[test]
fn crash_ledger_is_identical_across_repeated_runs() {
    let cfg = config(4, 4);
    let alg = Algorithm::parse("dpml:4").expect("known algorithm");
    let world = alg.build(&cfg.map, 1 << 20).expect("dpml:4 builds on 4x4");
    let clean = Simulator::new(&cfg).run(&world).expect("fault-free run");
    let plan = FaultPlan {
        process: ProcessFaults::single(0, 0.5 * clean.makespan().seconds()),
        ..FaultPlan::zero()
    };
    let run = || {
        Simulator::new(&cfg)
            .with_faults(&plan)
            .run(&world)
            .expect_err("rank 0 dies mid-collective")
    };
    let first = run();
    let SimError::RankDead {
        rank: 0,
        ref pending_ops,
        ..
    } = first
    else {
        panic!("expected rank 0 dead, got {first:?}");
    };
    assert!(
        pending_ops.iter().any(|op| op.what.starts_with("aborted")),
        "the crash must cut transfers short: {pending_ops:?}"
    );
    for i in 1..24 {
        assert_eq!(run(), first, "run {i} diverged from run 0");
    }
}
