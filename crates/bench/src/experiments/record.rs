//! `bench-record`: measure checking throughput (single vs sharded) and
//! record it as a machine-readable `BENCH_aion.json`, the repository's
//! performance trajectory file.
//!
//! Unlike the figure experiments (which print tables for human
//! comparison against the paper), this mode exists so successive PRs
//! can diff one number: transactions checked per second on a fixed
//! workload, for the single-threaded `OnlineChecker` and for
//! `ShardedChecker` at 1/2/4/8 shards. See `docs/benchmarks.md` for the
//! schema and the recorded history.

use super::Ctx;
use crate::time_it;
use aion_online::{feed_plan, run_plan, FeedConfig, OnlineChecker};
use aion_types::LevelPolicy;
use aion_workload::{generate_history, IsolationLevel, LevelMix, WorkloadSpec};
use std::time::SystemTime;

/// Runs measured per configuration (after one warmup); the best run is
/// recorded, minimizing scheduler/allocator noise.
const RUNS: usize = 3;

struct Measurement {
    config: &'static str,
    shards: usize,
    tps: f64,
    violations: usize,
}

/// Measure every configuration and write `BENCH_aion.json` into the
/// current directory (the repository root in the usual
/// `cargo run -p aion-bench` invocation), plus a human-readable table
/// on stdout.
pub fn bench_record(ctx: &Ctx) {
    let n = ctx.n(200_000);
    let spec =
        WorkloadSpec::default().with_txns(n).with_sessions(24).with_ops_per_txn(8).with_keys(4_096);
    let h = generate_history(&spec, IsolationLevel::Si);
    let plan = feed_plan(&h, &FeedConfig::default());
    println!("bench-record: {} txns, 8 ops/txn, 24 sessions, 4096 keys (SI)", plan.len());

    let mut results: Vec<Measurement> = Vec::new();
    let single = |events: bool| {
        let ck =
            OnlineChecker::builder().kind(h.kind).events(events).build().expect("open session");
        run_plan(ck, &plan)
    };
    results.push(measure("single", 0, || single(false)));
    for shards in [1usize, 2, 4, 8] {
        results.push(measure("sharded", shards, || {
            let ck = OnlineChecker::builder()
                .kind(h.kind)
                .events(false)
                .shards(shards)
                .build_sharded()
                .expect("open session");
            run_plan(ck, &plan)
        }));
    }

    // Per-level predicate dispatch on the single-checker hot path: the
    // level lattice replaced the old two-way SI/SER branch with
    // `LevelChecks` dispatch, and these rows pin that SI/SER paid
    // nothing for it (compare `level-si` against `single` — same
    // session, selected through the policy — and against the previous
    // BENCH_aion.json). Each level checks a history generated *valid at
    // that level* — its own engine run, so the violations column must
    // read 0 and the row measures the clean checking path. (Reusing the
    // SI history everywhere, as earlier revisions did, made `level-ser`
    // a violation-emission benchmark: 4,871 write-skew reports.)
    for level in IsolationLevel::ALL {
        let lh = generate_history(&spec, *level);
        let lplan = feed_plan(&lh, &FeedConfig::default());
        results.push(measure(level_config(*level), 0, || {
            let ck = OnlineChecker::builder()
                .kind(lh.kind)
                .level(*level)
                .events(false)
                .build()
                .expect("open session");
            run_plan(ck, &lplan)
        }));
    }
    // `level-mixed` runs a per-transaction policy: the SI stream plus
    // per-arrival level resolution. The declared mix stays at or below
    // the MVCC-SI execution level (rc/ra/si; no ser) so every
    // transaction is valid at its own declared level and the row stays
    // clean — ser declarations over an MVCC execution are write-skew
    // generators, not a throughput workload.
    let mixed_plan = {
        let mut mixed = h.clone();
        LevelMix::per_txn(1.0, 1.0, 1.0, 0.0).stamp(&mut mixed, 42);
        feed_plan(&mixed, &FeedConfig::default())
    };
    results.push(measure("level-mixed", 0, || {
        let ck = OnlineChecker::builder()
            .kind(h.kind)
            .levels(LevelPolicy::per_txn(IsolationLevel::Si))
            .events(false)
            .build()
            .expect("open session");
        run_plan(ck, &mixed_plan)
    }));

    // serve-ingest: the same history streamed through the aion-serve
    // TCP daemon over loopback (JSONL encoding, socket sniffing,
    // in-order arrival) instead of fed in-process — what the wire path
    // costs on top of raw checking.
    {
        let mut encoded = Vec::new();
        aion_io::write_history(&h, aion_io::Format::Jsonl, &mut encoded).expect("encode history");
        let server =
            aion_serve::Server::bind(aion_serve::ServeConfig::default()).expect("bind daemon");
        let addr = server.local_addr().to_string();
        let handle = server.spawn().expect("spawn daemon");
        let mut best_tps = 0.0f64;
        let mut violations = 0usize;
        for run in 0..=RUNS {
            // run 0 is the warmup, mirroring `measure`
            let name = format!("bench-{run}");
            aion_serve::client::open(&addr, &name, &aion_serve::client::OpenOptions::default())
                .expect("open session");
            let start = std::time::Instant::now();
            let fed = aion_serve::client::feed_bytes(&addr, &name, &encoded, false).expect("feed");
            let secs = start.elapsed().as_secs_f64();
            let txns = fed.int_field("txns").unwrap_or(0) as f64;
            let done = aion_serve::client::finish(&addr, &name).expect("finish");
            violations = done.int_field("violations").unwrap_or(0) as usize;
            if run > 0 {
                best_tps = best_tps.max(txns / secs);
            }
        }
        aion_serve::client::shutdown(&addr).expect("shutdown daemon");
        handle.join().expect("daemon exit");
        println!("  serve-ingest x0: {best_tps:>9.0} tps");
        results.push(Measurement { config: "serve-ingest", shards: 0, tps: best_tps, violations });
    }

    let single_tps = results[0].tps;
    let mut t = crate::tables::Table::new(
        "bench-record: checking throughput (best of 3 runs)",
        &["config", "shards", "txns/sec", "speedup vs single"],
    );
    for m in &results {
        t.row(vec![
            m.config.into(),
            if m.shards == 0 { "-".into() } else { m.shards.to_string() },
            format!("{:.0}", m.tps),
            format!("{:.2}x", m.tps / single_tps),
        ]);
    }
    t.emit(&ctx.out, "bench_record");

    let json = render_json(&plan.len(), &results, single_tps);
    std::fs::write("BENCH_aion.json", &json).expect("write BENCH_aion.json");
    println!("wrote BENCH_aion.json");
}

fn level_config(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadCommitted => "level-rc",
        IsolationLevel::ReadAtomic => "level-ra",
        IsolationLevel::Si => "level-si",
        IsolationLevel::Ser => "level-ser",
        _ => "level",
    }
}

fn measure(
    config: &'static str,
    shards: usize,
    run: impl Fn() -> aion_online::OnlineRunReport,
) -> Measurement {
    let _warmup = run();
    let mut best_tps = 0.0f64;
    let mut violations = 0usize;
    for _ in 0..RUNS {
        let (_, report) = time_it(&run);
        best_tps = best_tps.max(report.mean_tps());
        violations = report.outcome.report.len();
    }
    println!("  {config:>8} x{shards}: {best_tps:>9.0} tps");
    Measurement { config, shards, tps: best_tps, violations }
}

fn render_json(txns: &usize, results: &[Measurement], single_tps: f64) -> String {
    let recorded =
        SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let cpus = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"recorded_unix_secs\": {recorded},\n"));
    out.push_str(&format!("  \"host\": {{ \"cpus\": {cpus} }},\n"));
    out.push_str(&format!(
        "  \"workload\": {{ \"txns\": {txns}, \"ops_per_txn\": 8, \"sessions\": 24, \
         \"keys\": 4096, \"isolation\": \"si\", \"feed\": \"default out-of-order plan\" }},\n"
    ));
    out.push_str(&format!(
        "  \"measurement\": {{ \"metric\": \"txns_per_sec\", \"runs\": {RUNS}, \
         \"pick\": \"best\", \"events\": false }},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"config\": \"{}\", \"shards\": {}, \"txns_per_sec\": {:.0}, \
             \"speedup_vs_single\": {:.3}, \"violations\": {} }}{}\n",
            m.config,
            m.shards,
            m.tps,
            m.tps / single_tps,
            m.violations,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
