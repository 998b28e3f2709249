//! Differential property for the incrementally maintained GC and memory
//! bookkeeping (`live_anchors`, `spillable`, the resident byte total and
//! the index item counters): under test builds the checker recomputes
//! all of it by walking its state after every `receive`, `tick`, spill
//! pass, reload and restore (`OnlineChecker::check_resident_index`), so
//! driving random GC-heavy sessions through every mutation path is the
//! whole test. The paths driven here: out-of-order arrival plans under
//! `Checking { max_txns: 4..32 }`, deep stragglers that reload spilled
//! segments, a checkpoint written and restored mid-stream, and a
//! 1 → 2 → 1 shard reshard.

use crate::feed::{feed_plan, FeedConfig};
use crate::{OnlineChecker, OnlineGcPolicy, ShardedChecker, SimSchedule};
use aion_types::{Checker, DataKind, History, IsolationLevel, LevelPolicy, SessionId, Transaction};
use aion_workload::{generate_history, KeyDist, LevelMix, WorkloadSpec};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Case {
    history: History,
    levels: LevelPolicy,
    max_txns: usize,
    timeout_ms: u64,
    plan_seed: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (40usize..160, 2usize..8, 1usize..6, 2u64..30, 0u64..1_000),
        (0usize..5, any::<bool>()),
        (4usize..32, 1u64..60, any::<u64>()),
    )
        .prop_map(
            |(
                (txns, sessions, ops, keys, seed),
                (level, list),
                (max_txns, timeout_ms, plan_seed),
            )| {
                let kind = if list { DataKind::List } else { DataKind::Kv };
                let spec = WorkloadSpec::default()
                    .with_txns(txns)
                    .with_sessions(sessions)
                    .with_ops_per_txn(ops)
                    .with_keys(keys)
                    .with_kind(kind)
                    .with_seed(seed)
                    .with_dist(KeyDist::Uniform);
                let mut history = generate_history(&spec, IsolationLevel::Si);
                let levels = match level {
                    0 => LevelPolicy::Uniform(IsolationLevel::ReadCommitted),
                    1 => LevelPolicy::Uniform(IsolationLevel::ReadAtomic),
                    2 => LevelPolicy::Uniform(IsolationLevel::Si),
                    3 => LevelPolicy::Uniform(IsolationLevel::Ser),
                    _ => {
                        LevelMix::per_txn(1.0, 1.0, 1.0, 1.0).stamp(&mut history, seed);
                        LevelPolicy::per_txn(IsolationLevel::Si)
                    }
                };
                Case { history, levels, max_txns, timeout_ms, plan_seed }
            },
        )
}

/// An out-of-order plan (small batches, delays wider than the batch
/// interval) in which session 0 is held back to the very end: its
/// transactions arrive after their neighbours were finalized and
/// spilled, so they anchor below the GC horizon and reload segments.
fn plan(case: &Case) -> Vec<(u64, Transaction)> {
    let cfg = FeedConfig {
        batch_size: 8,
        batch_interval_ms: 4,
        delay_mean_ms: 10.0,
        delay_std_ms: 6.0,
        seed: case.plan_seed,
    };
    let (late, mut arrivals): (Vec<_>, Vec<_>) =
        feed_plan(&case.history, &cfg).into_iter().partition(|(_, t)| t.sid == SessionId(0));
    let end = arrivals.last().map_or(0, |(at, _)| *at);
    arrivals.extend(late.into_iter().map(|(_, t)| (end, t)));
    arrivals
}

fn builder(case: &Case) -> crate::OnlineCheckerBuilder {
    OnlineChecker::builder()
        .kind(case.history.kind)
        .levels(case.levels.clone())
        .ext_timeout_ms(case.timeout_ms)
        .gc(OnlineGcPolicy::Checking { max_txns: case.max_txns })
}

/// Drive a single checker; with `cut`, checkpoint and restore there.
/// Returns the final checkpoint bytes.
fn drive_single(case: &Case, arrivals: &[(u64, Transaction)], cut: Option<usize>) -> Vec<u8> {
    let mut ck = builder(case).build().expect("in-memory session");
    for (i, (at, txn)) in arrivals.iter().enumerate() {
        if cut == Some(i) {
            let snap = ck.checkpoint().expect("checkpoint");
            ck = OnlineChecker::restore(&snap).expect("restore");
        }
        ck.tick(*at);
        ck.receive(txn.clone(), *at);
    }
    ck.tick(u64::MAX);
    ck.checkpoint().expect("final checkpoint")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_gc_bookkeeping_matches_brute_force(case in arb_case(), cut_at in 0.0f64..1.0) {
        let arrivals = plan(&case);
        let cut = (arrivals.len() as f64 * cut_at) as usize;

        // Single checker, uninterrupted and restored from a mid-stream
        // checkpoint: the rebuilt bookkeeping must drive the same spill
        // decisions as the incrementally kept one, so the final
        // checkpoints are byte-identical.
        let straight = drive_single(&case, &arrivals, None);
        let restored = drive_single(&case, &arrivals, Some(cut));
        prop_assert!(straight == restored, "restore changed the session (cut {})", cut);

        // Sharded 1 -> 2 -> 1: each reshard rebuilds the workers'
        // bookkeeping from merged state; every worker step re-checks it.
        let sched = SimSchedule::random(case.plan_seed);
        let mut ck = builder(&case).shards(1).build_sharded_sim(sched).expect("sim session");
        let reshards = [(arrivals.len() / 3, 2), (2 * arrivals.len() / 3, 1)];
        for (i, (at, txn)) in arrivals.iter().enumerate() {
            if let Some(&(_, n)) = reshards.iter().find(|(cut, _)| *cut == i) {
                let snap = ck.checkpoint().expect("checkpoint");
                ck = ShardedChecker::restore_resharded_sim(&snap, n, sched).expect("reshard");
            }
            ck.tick(*at);
            ck.feed(txn.clone(), *at);
        }
        ck.tick(u64::MAX);
        let out = ck.finish();
        prop_assert_eq!(out.stats.finalized, out.stats.received);
    }
}

/// The differential plan must actually reach the paths it claims to
/// drive: spill passes and deep-straggler reloads. One fixed case is
/// enough to pin that.
#[test]
fn differential_plan_reaches_spills_and_reloads() {
    let spec = WorkloadSpec::default()
        .with_txns(150)
        .with_sessions(4)
        .with_ops_per_txn(4)
        .with_keys(12)
        .with_seed(7)
        .with_dist(KeyDist::Uniform);
    let case = Case {
        history: generate_history(&spec, IsolationLevel::Si),
        levels: LevelPolicy::Uniform(IsolationLevel::Si),
        max_txns: 8,
        timeout_ms: 5,
        plan_seed: 3,
    };
    let mut ck = builder(&case).build().expect("in-memory session");
    for (at, txn) in plan(&case) {
        ck.tick(at);
        ck.receive(txn, at);
    }
    assert!(ck.stats().gc_spills > 0, "the plan must spill");
    assert!(ck.stats().reloaded_txns > 0, "the held-back session must reload spilled segments");
}
