//! Checkpoint/restore differential properties: interrupting a session
//! at an arbitrary arrival boundary — checkpoint, drop the checker,
//! restore from the bytes — must change *nothing* observable. For the
//! single checker the guarantee is exact: the resumed session emits
//! byte-identical events and its final checkpoint is byte-identical to
//! the uninterrupted session's. For the sharded checker (whose event
//! interleaving is scheduling-dependent) the guarantee is the final
//! outcome and violation multiset, including across a shard-count
//! change (`restore_resharded`).
//!
//! This is the differential argument behind aion-serve's
//! checkpoint-survives-a-daemon-restart cycle, run as a property over
//! random workloads, injected anomalies, all isolation levels plus a
//! per-transaction mixed policy, and random cut points.

use aion_online::{OnlineChecker, ShardedChecker, SimSchedule};
use aion_types::{
    Checker, History, IsolationLevel, LevelPolicy, Outcome, SessionId, SplitMix64, Transaction,
};
use aion_workload::{generate_history, KeyDist, LevelMix, WorkloadSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (30usize..100, 1usize..8, 1usize..6, 0.0f64..1.0, 2u64..30, 0u64..500).prop_map(
        |(txns, sessions, ops, reads, keys, seed)| {
            WorkloadSpec::default()
                .with_txns(txns)
                .with_sessions(sessions)
                .with_ops_per_txn(ops)
                .with_read_ratio(reads)
                .with_keys(keys)
                .with_seed(seed)
                .with_dist(KeyDist::Uniform)
        },
    )
}

/// One anomaly injector per case, so restored sessions also resume
/// *mid-violation* (pending EXT windows, half-observed conflicts).
#[derive(Clone, Copy, Debug)]
enum Inject {
    None,
    LostUpdate,
    WriteSkew,
    ReadSkew,
    DirtyWrite,
    DuplicateTid,
}

fn arb_inject() -> impl Strategy<Value = Inject> {
    prop_oneof![
        Just(Inject::None),
        Just(Inject::LostUpdate),
        Just(Inject::WriteSkew),
        Just(Inject::ReadSkew),
        Just(Inject::DirtyWrite),
        Just(Inject::DuplicateTid),
    ]
}

fn inject(h: &mut History, what: Inject, seed: u64) {
    match what {
        Inject::None => {}
        Inject::LostUpdate => {
            aion_storage::inject_lost_update(h, 0.3, seed);
        }
        Inject::WriteSkew => {
            aion_storage::inject_write_skew(h, 0.3, seed);
        }
        Inject::ReadSkew => {
            aion_storage::inject_read_skew(h, 0.3, seed);
        }
        Inject::DirtyWrite => {
            aion_storage::inject_dirty_write(h, 0.3, seed);
        }
        Inject::DuplicateTid => {
            aion_storage::inject_duplicate_tid(h, 0.3, seed);
        }
    }
}

/// The checking policy under test: every uniform level, plus the
/// per-transaction mixed policy over a stamped four-way level mix.
#[derive(Clone, Copy, Debug)]
enum Policy {
    Uniform(IsolationLevel),
    Mixed,
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Uniform(IsolationLevel::ReadCommitted)),
        Just(Policy::Uniform(IsolationLevel::ReadAtomic)),
        Just(Policy::Uniform(IsolationLevel::Si)),
        Just(Policy::Uniform(IsolationLevel::Ser)),
        Just(Policy::Mixed),
    ]
}

impl Policy {
    fn level_policy(self) -> LevelPolicy {
        match self {
            Policy::Uniform(l) => LevelPolicy::Uniform(l),
            Policy::Mixed => LevelPolicy::per_txn(IsolationLevel::Si),
        }
    }

    /// A mixed policy only exercises the per-arrival dispatch if the
    /// history actually declares differing levels.
    fn prepare(self, h: &mut History, seed: u64) {
        if let Policy::Mixed = self {
            LevelMix::per_txn(1.0, 1.0, 1.0, 1.0).stamp(h, seed);
        }
    }
}

/// A random arrival order that preserves per-session order (AION's
/// input assumption) — same shuffle the shard-equivalence suite uses.
fn session_respecting_shuffle(h: &History, seed: u64) -> Vec<Transaction> {
    let mut rng = SplitMix64::new(seed);
    let mut queues: Vec<(SessionId, Vec<usize>, usize)> =
        h.sessions().into_iter().map(|(sid, idxs)| (sid, idxs, 0)).collect();
    queues.sort_by_key(|(sid, _, _)| *sid);
    let mut out = Vec::with_capacity(h.len());
    let mut live: Vec<usize> = (0..queues.len()).collect();
    while !live.is_empty() {
        let pick = rng.below(live.len() as u64) as usize;
        let qi = live[pick];
        let (_, idxs, pos) = &mut queues[qi];
        out.push(h.txns[idxs[*pos]].clone());
        *pos += 1;
        if *pos == idxs.len() {
            live.swap_remove(pick);
        }
    }
    out
}

/// What one run observes: every event from arrival `cut` onward (as
/// debug strings), the checkpoint bytes taken after the last arrival,
/// and the final outcome.
struct Observed {
    tail_events: Vec<String>,
    final_snapshot: Vec<u8>,
    outcome: Outcome,
}

/// Drive a single checker over the arrivals; when `interrupt` is set,
/// checkpoint at arrival boundary `cut`, drop the checker, and resume
/// from the bytes.
fn drive_single(
    policy: LevelPolicy,
    h: &History,
    arrivals: &[Transaction],
    cut: usize,
    interrupt: bool,
) -> Observed {
    let mut ck =
        OnlineChecker::builder().kind(h.kind).levels(policy).build().expect("open session");
    let mut tail_events = Vec::new();
    for (i, txn) in arrivals.iter().enumerate() {
        if interrupt && i == cut {
            let snap = ck.checkpoint().expect("checkpoint");
            drop(ck);
            ck = OnlineChecker::restore(&snap).expect("restore");
        }
        let now = i as u64;
        let mut evs = ck.tick(now);
        evs.extend(ck.feed(txn.clone(), now));
        if i >= cut {
            tail_events.extend(evs.iter().map(|e| format!("{e:?}")));
        }
    }
    let final_snapshot = ck.checkpoint().expect("final checkpoint");
    tail_events.extend(ck.tick(u64::MAX).iter().map(|e| format!("{e:?}")));
    Observed { tail_events, final_snapshot, outcome: ck.finish() }
}

/// Drive a sharded checker; when `restore_shards` is set, checkpoint at
/// `cut` and restore onto that many workers (possibly a different
/// count).
fn drive_sharded(
    policy: LevelPolicy,
    h: &History,
    arrivals: &[Transaction],
    shards: usize,
    cut: usize,
    restore_shards: Option<usize>,
) -> Outcome {
    let mut ck = OnlineChecker::builder()
        .kind(h.kind)
        .levels(policy)
        .shards(shards)
        .build_sharded()
        .expect("open session");
    for (i, txn) in arrivals.iter().enumerate() {
        if restore_shards == Some(shards) && i == cut {
            let snap = ck.checkpoint().expect("checkpoint");
            drop(ck);
            ck = ShardedChecker::restore(&snap).expect("restore");
        } else if let Some(n) = restore_shards.filter(|&n| n != shards) {
            if i == cut {
                let snap = ck.checkpoint().expect("checkpoint");
                drop(ck);
                ck = ShardedChecker::restore_resharded(&snap, n).expect("restore resharded");
            }
        }
        let now = i as u64;
        ck.tick(now);
        ck.feed(txn.clone(), now);
    }
    ck.tick(u64::MAX);
    ck.finish()
}

/// Violation multiset as sortable strings (Violation has no Ord).
fn violation_set(o: &Outcome) -> Vec<String> {
    let mut v: Vec<String> = o.report.violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort_unstable();
    v
}

fn assert_same_outcome(a: &Outcome, b: &Outcome, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.is_ok(), b.is_ok(), "verdict differs: {}", what);
    prop_assert_eq!(violation_set(a), violation_set(b), "violation sets differ: {}", what);
    prop_assert_eq!(a.txns, b.txns, "txn counts differ: {}", what);
    prop_assert_eq!(a.stats.finalized, b.stats.finalized, "finalized counts differ: {}", what);
    prop_assert_eq!(a.flips.total_flips, b.flips.total_flips, "flip totals differ: {}", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single checker, any level, any anomaly, any cut point: the
    /// interrupted run's post-cut events are byte-identical to the
    /// uninterrupted run's, and so is its final checkpoint.
    #[test]
    fn restored_single_checker_is_byte_identical(
        spec in arb_spec(),
        what in arb_inject(),
        policy in arb_policy(),
        shuffle_seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        inject(&mut h, what, spec.seed.wrapping_add(1));
        policy.prepare(&mut h, 42);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cut = ((cut_frac * arrivals.len() as f64) as usize).min(arrivals.len());
        let lp = policy.level_policy();
        let plain = drive_single(lp.clone(), &h, &arrivals, cut, false);
        let resumed = drive_single(lp, &h, &arrivals, cut, true);
        prop_assert_eq!(
            &plain.tail_events, &resumed.tail_events,
            "post-restore events must be byte-identical (cut {})", cut
        );
        prop_assert_eq!(
            &plain.final_snapshot, &resumed.final_snapshot,
            "final checkpoints must be byte-identical (cut {})", cut
        );
        assert_same_outcome(&plain.outcome, &resumed.outcome, "single resume")?;
    }

    /// Sharded checker, N ∈ {1..4}: checkpoint/restore at any cut point
    /// preserves the final outcome and violation multiset; restoring
    /// onto a *different* shard count preserves them too.
    #[test]
    fn restored_sharded_checker_matches(
        spec in arb_spec(),
        what in arb_inject(),
        shards in 1usize..5,
        reshard in 1usize..5,
        shuffle_seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        inject(&mut h, what, spec.seed.wrapping_add(1));
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cut = ((cut_frac * arrivals.len() as f64) as usize).min(arrivals.len());
        let lp = LevelPolicy::Uniform(IsolationLevel::Si);
        let plain = drive_sharded(lp.clone(), &h, &arrivals, shards, cut, None);
        let resumed = drive_sharded(lp.clone(), &h, &arrivals, shards, cut, Some(shards));
        assert_same_outcome(&plain, &resumed, "sharded resume")?;
        let resharded = drive_sharded(lp, &h, &arrivals, shards, cut, Some(reshard));
        assert_same_outcome(&plain, &resharded, "resharded resume")?;
    }

    /// Snapshot under schedule: the sharded checkpoint is taken while a
    /// deterministic *adversarial* transport (deferred deliveries,
    /// dropped clock broadcasts, stalled workers — `SimSchedule`) is
    /// perturbing the coordinator conversation, and the restored run
    /// resumes under a *different* adversarial schedule. Verdict and
    /// violation multiset must still match the plain threaded run: a
    /// checkpoint cut is correct at *any* reachable coordinator state,
    /// not just the quiesced ones the threaded tests happen to visit.
    #[test]
    fn checkpoint_under_adversarial_schedule_matches(
        spec in arb_spec(),
        what in arb_inject(),
        shards in 2usize..5,
        reshard in 1usize..5,
        shuffle_seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
        sched_seed in 0u64..1_000_000,
    ) {
        let mut h = generate_history(&spec, IsolationLevel::Si);
        inject(&mut h, what, spec.seed.wrapping_add(1));
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let cut = ((cut_frac * arrivals.len() as f64) as usize).min(arrivals.len());
        let lp = LevelPolicy::Uniform(IsolationLevel::Si);
        let plain = drive_sharded(lp.clone(), &h, &arrivals, shards, cut, None);

        let mut ck = OnlineChecker::builder()
            .kind(h.kind)
            .levels(lp)
            .shards(shards)
            .build_sharded_sim(SimSchedule::pathological(sched_seed))
            .expect("open sim session");
        for (i, txn) in arrivals.iter().enumerate() {
            if i == cut {
                let snap = ck.checkpoint().expect("checkpoint under schedule");
                let _ = ck.finish(); // the interrupted process dies here
                ck = ShardedChecker::restore_resharded_sim(
                    &snap,
                    reshard,
                    SimSchedule::random(sched_seed ^ 0x5A5A),
                )
                .expect("restore resharded under schedule");
            }
            let now = i as u64;
            ck.tick(now);
            ck.feed(txn.clone(), now);
        }
        ck.tick(u64::MAX);
        let resumed = ck.finish();
        assert_same_outcome(&plain, &resumed, "adversarial-schedule resume")?;
    }

    /// Any truncation of a live mid-stream checkpoint is a typed error,
    /// never a panic and never a silently-wrong checker.
    #[test]
    fn truncated_snapshots_are_errors(
        spec in arb_spec(),
        shuffle_seed in 0u64..1000,
        trunc_frac in 0.0f64..1.0,
    ) {
        let h = generate_history(&spec, IsolationLevel::Si);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let mut ck = OnlineChecker::builder().kind(h.kind).build().expect("open session");
        for (i, txn) in arrivals.iter().enumerate().take(arrivals.len() / 2) {
            ck.tick(i as u64);
            ck.feed(txn.clone(), i as u64);
        }
        let snap = ck.checkpoint().expect("checkpoint");
        let cut = ((trunc_frac * snap.len() as f64) as usize).min(snap.len() - 1);
        prop_assert!(
            OnlineChecker::restore(&snap[..cut]).is_err(),
            "truncation to {} of {} bytes must be a typed error", cut, snap.len()
        );
    }

    /// Flipping any single byte of a checkpoint must never panic: the
    /// restore either fails with a typed error, or (when the flip lands
    /// in a value field the codec cannot distinguish) yields a checker
    /// that still finishes without crashing.
    #[test]
    fn garbled_snapshots_never_panic(
        spec in arb_spec(),
        shuffle_seed in 0u64..1000,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let h = generate_history(&spec, IsolationLevel::Si);
        let arrivals = session_respecting_shuffle(&h, shuffle_seed);
        let mut ck = OnlineChecker::builder().kind(h.kind).build().expect("open session");
        for (i, txn) in arrivals.iter().enumerate().take(arrivals.len() / 2) {
            ck.tick(i as u64);
            ck.feed(txn.clone(), i as u64);
        }
        let mut snap = ck.checkpoint().expect("checkpoint");
        let pos = ((pos_frac * snap.len() as f64) as usize).min(snap.len() - 1);
        snap[pos] ^= flip;
        if let Ok(mut back) = OnlineChecker::restore(&snap) {
            back.tick(u64::MAX);
            let _ = back.finish();
        }
    }
}

// ------------------------------------------------------- v3 fixtures

/// The stream behind `tests/fixtures/v3-*.ckpt`: a seeded SI history
/// with one unjustifiable read, fed out of order with a 20 ms EXT
/// timeout so finalizations happen mid-stream.
fn fixture_plan() -> Vec<aion_online::Arrival> {
    let spec = WorkloadSpec::default()
        .with_txns(60)
        .with_sessions(4)
        .with_ops_per_txn(4)
        .with_keys(8)
        .with_seed(7);
    let mut h = generate_history(&spec, IsolationLevel::Si);
    if let Some(value) = h.txns.iter_mut().flat_map(|t| t.ops.iter_mut()).find_map(|op| match op {
        aion_types::Op::Read { value, .. } => Some(value),
        _ => None,
    }) {
        *value = aion_types::Snapshot::Scalar(aion_types::Value(u64::MAX - 3));
    }
    let feed = aion_online::FeedConfig {
        batch_size: 8,
        batch_interval_ms: 10,
        delay_mean_ms: 5.0,
        delay_std_ms: 2.0,
        seed: 3,
    };
    aion_online::feed_plan(&h, &feed)
}

/// Tick and feed each arrival, drain, finish.
fn finish_plan<C: Checker>(mut ck: C, plan: &[aion_online::Arrival]) -> Outcome {
    for (at, txn) in plan {
        ck.tick(*at);
        ck.feed(txn.clone(), *at);
    }
    ck.tick(u64::MAX);
    ck.finish()
}

/// Checkpoints written by the last v3 build (single checker and 2
/// shards, `ext_timeout_ms(20)`, cut after the first half of
/// [`fixture_plan`], each arrival ticked then fed) still restore, and
/// the resumed sessions finish with the verdict and violations of a
/// fresh run of the whole plan.
#[test]
fn v3_checkpoints_restore_and_finish_with_the_fresh_verdict() {
    let plan = fixture_plan();
    let rest = &plan[plan.len() / 2..];
    let fixture = |name: &str| {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
        let bytes = std::fs::read(path).expect("fixture");
        assert_eq!(bytes[8], 3, "{name} is a v3 checkpoint");
        bytes
    };
    let builder = || OnlineChecker::builder().ext_timeout_ms(20);

    let fresh = finish_plan(builder().build().unwrap(), &plan);
    assert!(!fresh.is_ok(), "the planted read must be reported");
    let resumed = finish_plan(OnlineChecker::restore(&fixture("v3-single.ckpt")).unwrap(), rest);
    assert_eq!(resumed.is_ok(), fresh.is_ok());
    assert_eq!(violation_set(&resumed), violation_set(&fresh));

    let fresh = finish_plan(builder().shards(2).build_sharded().unwrap(), &plan);
    let bytes = fixture("v3-sharded2.ckpt");
    let resumed = finish_plan(ShardedChecker::restore(&bytes).unwrap(), rest);
    assert_eq!(resumed.is_ok(), fresh.is_ok());
    assert_eq!(violation_set(&resumed), violation_set(&fresh));
    let resharded = finish_plan(ShardedChecker::restore_resharded(&bytes, 3).unwrap(), rest);
    assert_eq!(violation_set(&resharded), violation_set(&fresh));
}
