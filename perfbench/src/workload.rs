//! The four workloads: their inputs, made from a seed, and one *stream*
//! of each — first arrival to final verdict — driven through the public
//! entry points of the layer under test.
//!
//! Every stream is closed-loop: one client feeds the next arrival as soon
//! as the previous call returns, and the stream's clock stops when the
//! final verdict (`finish`, or the daemon's `finish` reply) is back.

use crate::trace::Trace;
use aion_bench::alloc;
use aion_io::{jsonl, open_stream, Format, ReaderOptions};
use aion_online::{
    feed_plan, route_txn, Arrival, FeedConfig, OnlineChecker, OnlineGcPolicy, RoutedTxn,
};
use aion_serve::client::{self, OpenOptions, Reply};
use aion_serve::protocol::parse_levels;
use aion_serve::{ServeConfig, Server, ServerHandle};
use aion_types::{Checker, Outcome, Transaction};
use aion_workload::{generate_history, IsolationLevel, LevelMix, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Resident-transaction threshold of the checking GC (`si-gc-blocked`,
/// `serve-mixed`). It sits well below the ~62.5k transactions that the
/// 5 s EXT timeout keeps unfinalizable at the out-of-order plan's arrival
/// rate, which is what makes `si-gc-blocked` show the no-progress defect.
pub const GC_MAX_TXNS: usize = 20_000;
/// Shard workers of `si-sharded2` (sized for a 2-CPU host).
const SHARDS: usize = 2;
/// Daemon worker threads of `serve-mixed`.
const SERVE_WORKERS: usize = 2;
/// Transactions per daemon `feed` request: the paper's collectors
/// dispatch to the checker in batches of 500. Each request is one sample
/// of the caller's blocked time.
const SERVE_REQUEST_TXNS: usize = 500;
/// Arrivals between the daemon registry's memory estimates
/// (`ADMISSION_SAMPLE_EVERY` in `aion-serve`), mirrored by the replay.
const ADMISSION_WINDOW: usize = 64;

/// Per-layer metrics of one traced stream, by name.
pub type Layers = BTreeMap<String, f64>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SiOoo,
    SiGcBlocked,
    SiSharded2,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SiOoo, Workload::SiGcBlocked, Workload::SiSharded2, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SiOoo => "si-ooo",
            Workload::SiGcBlocked => "si-gc-blocked",
            Workload::SiSharded2 => "si-sharded2",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Stream length: long enough that each stream reaches the regime the
    /// workload exists for, short enough that a run holds several streams.
    pub fn default_txns(self) -> usize {
        match self {
            Workload::SiOoo | Workload::SiSharded2 => 60_000,
            Workload::SiGcBlocked => 26_000,
            Workload::ServeMixed => 40_000,
        }
    }

    /// Make the workload's inputs from `seed`: the same seed gives the
    /// same history, arrival plan and encoding.
    pub fn setup(self, txns: usize, seed: u64) -> Result<Input, String> {
        let spec = WorkloadSpec::default()
            .with_txns(txns)
            .with_sessions(24)
            .with_ops_per_txn(8)
            .with_keys(4_096)
            .with_seed(seed);
        let mut h = generate_history(&spec, IsolationLevel::Si);
        if self != Workload::ServeMixed {
            let plan = feed_plan(&h, &FeedConfig { seed, ..FeedConfig::default() });
            return Ok(Input::Plan(plan));
        }
        // Declared levels stay at or below the MVCC-SI execution (no
        // ser), so the history is valid at every transaction's level.
        LevelMix::per_txn(1.0, 1.0, 1.0, 0.0).stamp(&mut h, seed);
        let header = jsonl::header_line(h.kind);
        let lines: Vec<String> = h.txns.iter().map(jsonl::txn_line).collect();
        let encode = |lines: &[String]| {
            let mut bytes = Vec::with_capacity(header.len() + lines.len() * 160);
            for line in std::iter::once(&header).chain(lines) {
                bytes.extend_from_slice(line.as_bytes());
                bytes.push(b'\n');
            }
            bytes
        };
        // Each request is a JSONL continuation and carries its own header.
        let requests = |lines: &[String]| -> Vec<Request> {
            lines
                .chunks(SERVE_REQUEST_TXNS)
                .map(|c| Request { bytes: encode(c), txns: c.len() })
                .collect()
        };
        let (first, second) = lines.split_at(lines.len() / 2);
        let checkpoint = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("serve-{}.ckpt", std::process::id()));
        std::fs::create_dir_all(checkpoint.parent().expect("checkpoint path has a directory"))
            .map_err(|e| format!("create checkpoint directory: {e}"))?;
        Ok(Input::Serve(ServeInput {
            halves: [requests(first), requests(second)],
            encoded: encode(&lines),
            txns: lines.len(),
            checkpoint,
            daemon: Some(Daemon::spawn()?),
        }))
    }

    /// Drive one stream to its final verdict. With `trace`, every call
    /// into a layer is recorded as a span and the stream's per-layer
    /// metrics are derived; without it, only the end-to-end measures
    /// are taken.
    pub fn stream(self, input: &mut Input, trace: Option<&mut Trace>) -> Result<StreamOut, String> {
        match (self, input) {
            (Workload::SiOoo, Input::Plan(plan)) => {
                let checker = OnlineChecker::builder().build().map_err(|e| e.to_string())?;
                Ok(drive(checker, plan, &SINGLE, OnlineChecker::resident_txns, None, trace))
            }
            (Workload::SiGcBlocked, Input::Plan(plan)) => {
                let checker = OnlineChecker::builder()
                    .gc(OnlineGcPolicy::Checking { max_txns: GC_MAX_TXNS })
                    .build()
                    .map_err(|e| e.to_string())?;
                let gc = Some(GC_MAX_TXNS);
                Ok(drive(checker, plan, &SINGLE, OnlineChecker::resident_txns, gc, trace))
            }
            (Workload::SiSharded2, Input::Plan(plan)) => {
                let checker = OnlineChecker::builder()
                    .shards(SHARDS)
                    .build_sharded()
                    .map_err(|e| e.to_string())?;
                let traced = trace.is_some();
                let mut out = drive(checker, plan, &SHARDED, |_| 0, None, trace);
                if traced {
                    let split = plan
                        .iter()
                        .filter(|(_, t)| {
                            matches!(route_txn(t.clone(), SHARDS), RoutedTxn::Split { .. })
                        })
                        .count();
                    out.layers.insert("sharded.split_share".into(), ratio(split, plan.len()));
                    let resident = out.layers.get("check.peak_resident_txns").copied();
                    out.layers.insert("sharded.resident_sum".into(), resident.unwrap_or(0.0));
                }
                Ok(out)
            }
            (Workload::ServeMixed, Input::Serve(input)) => serve_stream(input, trace),
            (w, _) => Err(format!("workload {} was given another workload's input", w.name())),
        }
    }
}

/// A workload's prepared inputs.
pub enum Input {
    /// An out-of-order arrival plan for the in-process checkers.
    Plan(Vec<Arrival>),
    /// Encoded requests and a running daemon.
    Serve(ServeInput),
}

impl Input {
    /// Release what set-up started (the daemon).
    pub fn close(self) -> Result<(), String> {
        match self {
            Input::Plan(_) => Ok(()),
            Input::Serve(mut s) => {
                let _ = std::fs::remove_file(&s.checkpoint);
                s.daemon.take().map_or(Ok(()), Daemon::stop)
            }
        }
    }
}

/// One daemon `feed` request: a JSONL header plus up to
/// [`SERVE_REQUEST_TXNS`] transaction lines.
pub struct Request {
    bytes: Vec<u8>,
    txns: usize,
}

pub struct ServeInput {
    /// The stream's two halves, as requests; the session is checkpointed
    /// and restored in a restarted daemon between them.
    halves: [Vec<Request>; 2],
    /// The whole stream as one JSONL document, for the in-process replay.
    encoded: Vec<u8>,
    txns: usize,
    checkpoint: PathBuf,
    daemon: Option<Daemon>,
}

/// An in-process `aion-serve` daemon on a loopback port.
struct Daemon {
    addr: String,
    handle: ServerHandle,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let cfg = ServeConfig { workers: SERVE_WORKERS, ..ServeConfig::default() };
        let server = Server::bind(cfg).map_err(|e| format!("bind daemon: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = server.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
        Ok(Daemon { addr, handle })
    }

    /// Shut the daemon down and wait for its threads to end.
    fn stop(self) -> Result<(), String> {
        client::shutdown(&self.addr).map_err(|e| format!("shutdown daemon: {e}"))?;
        self.handle.join().map_err(|e| format!("join daemon: {e}"))
    }
}

/// What one stream measured.
pub struct StreamOut {
    /// Transactions in the stream.
    pub txns: usize,
    /// Wall seconds from the first arrival to the final verdict.
    pub wall_s: f64,
    /// Caller-blocked microseconds per arrival: one sample per arrival
    /// in-process, one per `feed` request (divided by its transactions)
    /// through the daemon.
    pub arrival_us: Vec<f64>,
    /// Peak live heap above the level at the stream's start.
    pub peak_heap_bytes: usize,
    /// Transactions fed, including the traced run's replay.
    pub attempted: usize,
    /// Transactions refused, lost, left unfinalized or reported
    /// violating (the histories are valid, so the expectation is 0).
    pub failed: usize,
    /// Per-layer metrics (traced streams only).
    pub layers: Layers,
}

/// Failed transactions of a stream of `n` from its terminal counters.
fn shortfall(n: usize, received: usize, finalized: usize, violations: usize) -> usize {
    (n.saturating_sub(received) + n.saturating_sub(finalized) + violations).min(n)
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run `f`, inside a span named `name` when tracing.
fn call<T>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Span names of one in-process checker's entry points.
struct Names {
    tick: &'static str,
    feed: &'static str,
    finish: &'static str,
}

const SINGLE: Names = Names { tick: "check.tick", feed: "check.feed", finish: "check.finish" };
const SHARDED: Names =
    Names { tick: "sharded.tick", feed: "sharded.feed", finish: "sharded.finish" };

/// Counters a traced in-process loop collects beside its spans.
#[derive(Default)]
struct LoopCounts {
    events: usize,
    feed_ns: Vec<u64>,
    gc_attempted: usize,
    gc_over_ns: u64,
}

impl LoopCounts {
    /// Feed one arrival inside a span, noting whether the checker was at
    /// or over the GC threshold when it arrived.
    fn feed<C: Checker>(
        &mut self,
        t: &mut Trace,
        name: &'static str,
        c: &mut C,
        txn: Transaction,
        at: u64,
        over: bool,
    ) {
        let id = t.enter(name);
        self.events += c.feed(txn, at).len();
        let ns = t.exit(id);
        self.feed_ns.push(ns);
        if over {
            self.gc_attempted += 1;
            self.gc_over_ns += ns;
        }
    }

    /// The checker, GC and decay metrics of a finished traced loop.
    fn layers(&self, l: &mut Layers, outcome: &Outcome) {
        let s = &outcome.stats;
        let q = self.feed_ns.len() / 4;
        let mean_us = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3;
        let metrics = [
            ("check.feed_q1_us", mean_us(&self.feed_ns[..q])),
            ("check.feed_q4_us", mean_us(&self.feed_ns[self.feed_ns.len() - q..])),
            ("check.reevaluations_per_txn", s.reevaluations as f64 / s.received.max(1) as f64),
            ("check.flips", outcome.flips.total_flips as f64),
            ("check.events", self.events as f64),
            ("check.peak_resident_txns", s.peak_resident_txns as f64),
            ("gc.attempted", self.gc_attempted as f64),
            ("gc.passes", s.gc_spills as f64),
            ("gc.useful_share", ratio(s.gc_spills, self.gc_attempted)),
            ("gc.spilled_txns", s.spilled_txns as f64),
            ("gc.spill_bytes", s.spill_bytes as f64),
            ("gc.reloaded_txns", s.reloaded_txns as f64),
            ("gc.feed_over_s", self.gc_over_ns as f64 * 1e-9),
        ];
        for (name, value) in metrics {
            l.insert(name.into(), value);
        }
    }
}

/// Add every span name's self time as `<name>_s`.
fn add_self_times(l: &mut Layers, t: &Trace) {
    for (name, secs) in t.self_seconds() {
        *l.entry(format!("{name}_s")).or_insert(0.0) += secs;
    }
}

/// Feed `plan` through `checker` (`tick` then `feed` per arrival, as
/// `run_plan` does), drain with a final `tick` and `finish`.
fn drive<C: Checker>(
    mut checker: C,
    plan: &[Arrival],
    names: &Names,
    resident: impl Fn(&C) -> usize,
    gc_threshold: Option<usize>,
    mut trace: Option<&mut Trace>,
) -> StreamOut {
    let n = plan.len();
    let mut arrival_us = Vec::with_capacity(n);
    let mut counts = LoopCounts::default();
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let start = Instant::now();
    let root = trace.as_deref_mut().map(|t| t.enter("driver"));
    for (at, txn) in plan {
        let (at, txn) = (*at, txn.clone());
        let arrival = Instant::now();
        match trace.as_deref_mut() {
            None => {
                counts.events += checker.tick(at).len();
                counts.events += checker.feed(txn, at).len();
            }
            Some(t) => {
                let over = gc_threshold.is_some_and(|max| resident(&checker) >= max);
                counts.events += t.span(names.tick, || checker.tick(at)).len();
                counts.feed(t, names.feed, &mut checker, txn, at, over);
            }
        }
        arrival_us.push(arrival.elapsed().as_secs_f64() * 1e6);
    }
    let mut drained = 0;
    let outcome = call(&mut trace, names.finish, || {
        drained = checker.tick(u64::MAX).len();
        checker.finish()
    });
    counts.events += drained;
    let wall_s = start.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_bytes().saturating_sub(base);
    let s = &outcome.stats;
    let failed = shortfall(n, s.received, s.finalized, outcome.report.len());
    let mut layers = Layers::new();
    if let (Some(t), Some(id)) = (trace, root) {
        t.exit(id);
        add_self_times(&mut layers, t);
        counts.layers(&mut layers, &outcome);
    }
    StreamOut { txns: n, wall_s, arrival_us, peak_heap_bytes, attempted: n, failed, layers }
}

/// One `serve-mixed` stream: open a `mixed`-level session with checking
/// GC, feed the first half, checkpoint, restart the daemon, restore,
/// feed the second half and finish. A refused request counts its
/// transactions as failed; a failed open, checkpoint, restore or finish
/// fails the whole stream.
fn serve_stream(
    input: &mut ServeInput,
    mut trace: Option<&mut Trace>,
) -> Result<StreamOut, String> {
    let n = input.txns;
    let session = "bench";
    let ckpt = input.checkpoint.to_string_lossy().into_owned();
    let opts = OpenOptions {
        level: Some("mixed".into()),
        gc_max_txns: Some(GC_MAX_TXNS),
        ..OpenOptions::default()
    };
    let mut arrival_us = Vec::new();
    let (mut refused, mut whole_stream_failed) = (0usize, false);
    let mut snapshot_bytes = 0u64;
    let base = alloc::live_bytes();
    alloc::reset_peak();
    let start = Instant::now();
    let root = trace.as_deref_mut().map(|t| t.enter("driver"));
    let addr_of =
        |input: &ServeInput| input.daemon.as_ref().map(|d| d.addr.clone()).unwrap_or_default();
    let mut addr = addr_of(input);
    whole_stream_failed |=
        call(&mut trace, "serve.open", || client::open(&addr, session, &opts)).is_err();
    for (half, requests) in input.halves.iter().enumerate() {
        if half == 1 {
            match call(&mut trace, "serve.checkpoint", || client::checkpoint(&addr, session, &ckpt))
            {
                Ok(reply) => snapshot_bytes = reply.int_field("bytes").unwrap_or(0),
                Err(_) => whole_stream_failed = true,
            }
            // An operator restart: the old daemon and its session go
            // away, and the session comes back from its snapshot.
            let old = input.daemon.take();
            input.daemon = Some(call(&mut trace, "serve.restart", || {
                old.map_or(Ok(()), Daemon::stop)?;
                Daemon::spawn()
            })?);
            addr = addr_of(input);
            whole_stream_failed |=
                call(&mut trace, "serve.restore", || client::restore(&addr, session, &ckpt, None))
                    .is_err();
            let _ = std::fs::remove_file(&input.checkpoint);
        }
        for req in requests {
            let sent = Instant::now();
            let fed = call(&mut trace, "serve.feed", || {
                client::feed_bytes(&addr, session, &req.bytes, true)
            });
            arrival_us.push(sent.elapsed().as_secs_f64() * 1e6 / req.txns as f64);
            if !fed.as_ref().is_ok_and(|r| r.int_field("txns") == Some(req.txns as u64)) {
                refused += req.txns;
            }
        }
    }
    let finished = call(&mut trace, "serve.finish", || client::finish(&addr, session));
    let wall_s = start.elapsed().as_secs_f64();
    let peak_heap_bytes = alloc::peak_bytes().saturating_sub(base);
    let failed = match finished {
        Ok(reply) if !whole_stream_failed && reply_valid(&reply) => {
            let field = |k: &str| reply.int_field(k).unwrap_or(0) as usize;
            (refused + shortfall(n, field("txns"), field("finalized"), field("violations"))).min(n)
        }
        _ => n,
    };
    let mut out = StreamOut {
        txns: n,
        wall_s,
        arrival_us,
        peak_heap_bytes,
        attempted: n,
        failed,
        layers: Layers::new(),
    };
    if let (Some(t), Some(id)) = (trace, root) {
        t.exit(id);
        out.layers.insert("snapshot.bytes".into(), snapshot_bytes as f64);
        let (replay_attempted, replay_failed) = replay(&input.encoded, n, t, &mut out.layers)?;
        out.attempted += replay_attempted;
        out.failed += replay_failed;
        add_self_times(&mut out.layers, t);
        let l = &out.layers;
        let get = |k: &str| l.get(k).copied().unwrap_or(0.0);
        let overhead =
            get("serve.feed_s") - get("io.decode_s") - get("check.tick_s") - get("check.feed_s");
        out.layers.insert("serve.overhead_s".into(), overhead);
    }
    Ok(out)
}

fn reply_valid(reply: &Reply) -> bool {
    reply.terminal.get("valid").and_then(aion_io::json::JsonValue::as_bool) == Some(true)
}

/// Replay the `serve-mixed` bytes in-process through the daemon's own
/// steps — lenient JSONL decode, windows of [`ADMISSION_WINDOW`] arrivals
/// (`tick` then `feed` each, the virtual clock being the arrival index),
/// one memory estimate per window — so the decode, check and estimate
/// layers can be timed apart. Returns `(attempted, failed)` against the
/// stream length `n`.
fn replay(
    encoded: &[u8],
    n: usize,
    t: &mut Trace,
    l: &mut Layers,
) -> Result<(usize, usize), String> {
    let levels = parse_levels("mixed").map_err(|e| e.to_string())?;
    let mut checker = OnlineChecker::builder()
        .levels(levels)
        .gc(OnlineGcPolicy::Checking { max_txns: GC_MAX_TXNS })
        .build()
        .map_err(|e| e.to_string())?;
    let opts = ReaderOptions { strict: false, kind_hint: None };
    let mut reader = open_stream(encoded, Format::Jsonl, opts).map_err(|e| e.to_string())?;
    let mut counts = LoopCounts::default();
    let mut now = 0u64;
    let root = t.enter("replay");
    loop {
        let mut window = Vec::with_capacity(ADMISSION_WINDOW);
        while window.len() < ADMISSION_WINDOW {
            match t.span("io.decode", || reader.next_txn()) {
                Ok(Some(txn)) => window.push(txn),
                Ok(None) => break,
                Err(e) => return Err(format!("replay decode: {e}")),
            }
        }
        let last = window.len() < ADMISSION_WINDOW;
        for txn in window {
            let over = checker.resident_txns() >= GC_MAX_TXNS;
            counts.events += t.span("check.tick", || checker.tick(now)).len();
            counts.feed(t, "check.feed", &mut checker, txn, now, over);
            now += 1;
        }
        std::hint::black_box(t.span("serve.mem_estimate", || checker.estimated_memory_bytes()));
        if last {
            break;
        }
    }
    let mut drained = 0;
    let outcome = t.span("check.finish", || {
        drained = checker.tick(u64::MAX).len();
        checker.finish()
    });
    counts.events += drained;
    t.exit(root);
    counts.layers(l, &outcome);
    l.insert("io.bytes".into(), encoded.len() as f64);
    let s = &outcome.stats;
    Ok((n, shortfall(n, s.received, s.finalized, outcome.report.len())))
}
