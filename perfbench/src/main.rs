//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--txns <n>]
//! ```
//!
//! Makes the workload's inputs from the seed (several times, timing each
//! set-up), then drives whole streams — first arrival to final verdict —
//! until `--seconds` have passed, and gates every stream's verdicts. The
//! last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. `--txns` overrides the stream length (for the toy-scale
//! self-test). See `README.md` beside this file for the metrics, the
//! workloads and how to read the numbers.

mod trace;
mod workload;

use aion_bench::alloc::CountingAllocator;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;
use workload::{Layers, StreamOut, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Timed set-ups per run, after one untimed; `setup_s` is their median.
const SETUP_REPS: usize = 4;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("txns_per_s", "txn/s"),
    ("arrival_p50_us", "us"),
    ("arrival_p99_us", "us"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
/// A layer a workload does not use reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("check.feed_s", "s"),
    ("check.tick_s", "s"),
    ("check.finish_s", "s"),
    ("check.feed_q1_us", "us"),
    ("check.feed_q4_us", "us"),
    ("check.reevaluations_per_txn", "1/txn"),
    ("check.flips", "count"),
    ("check.events", "count"),
    ("check.peak_resident_txns", "txn"),
    ("gc.attempted", "count"),
    ("gc.passes", "count"),
    ("gc.useful_share", "share"),
    ("gc.spilled_txns", "txn"),
    ("gc.spill_bytes", "B"),
    ("gc.reloaded_txns", "txn"),
    ("gc.feed_over_s", "s"),
    ("sharded.feed_s", "s"),
    ("sharded.tick_s", "s"),
    ("sharded.finish_s", "s"),
    ("sharded.split_share", "share"),
    ("sharded.resident_sum", "txn"),
    ("io.decode_s", "s"),
    ("io.bytes", "B"),
    ("serve.open_s", "s"),
    ("serve.feed_s", "s"),
    ("serve.checkpoint_s", "s"),
    ("serve.restart_s", "s"),
    ("serve.restore_s", "s"),
    ("serve.finish_s", "s"),
    ("serve.mem_estimate_s", "s"),
    ("serve.overhead_s", "s"),
    ("snapshot.bytes", "B"),
    ("driver_s", "s"),
    ("trace.txns_per_s", "txn/s"),
    ("trace.overhead_share", "share"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    txns: Option<usize>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut txns) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                },
                "--txns" => txns = Some(value.parse::<usize>().map_err(bad)?),
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        Ok(Args {
            workload: workload
                .ok_or_else(|| format!("--workload is required ({})", names.join("|")))?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be at least 1")? as f64,
            trace: trace.ok_or("--trace is required")?,
            txns: txns.filter(|&n| n > 0),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set up, measure and gate one run; returns the result line.
fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let txns = args.txns.unwrap_or_else(|| w.default_txns());
    // Each timed set-up starts after its predecessor's input is released,
    // so every one starts from the same state.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut input = w.setup(txns, args.seed)?;
    for _ in 0..SETUP_REPS {
        input.close()?;
        let started = Instant::now();
        input = w.setup(txns, args.seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }

    // One warm-up stream (gated, not measured) lets the allocator and
    // caches settle. Then whole streams until the time is up; a traced
    // run alternates an untraced and a traced stream so the tracing
    // overhead is measured under the same conditions.
    let warmup = w.stream(&mut input, None)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last_trace = None;
    let started = Instant::now();
    let measured = loop {
        untraced.push(w.stream(&mut input, None)?);
        if args.trace {
            let mut t = Trace::new();
            traced.push(w.stream(&mut input, Some(&mut t))?);
            last_trace = Some(t);
        }
        if started.elapsed().as_secs_f64() >= args.seconds {
            break started.elapsed().as_secs_f64();
        }
    };
    input.close()?;

    let streams = untraced.iter().chain(&traced).chain([&warmup]);
    let attempted: usize = streams.clone().map(|s| s.attempted).sum();
    let failed: usize = streams.map(|s| s.failed).sum();
    let tps = |s: &[StreamOut]| median(s.iter().map(|s| s.txns as f64 / s.wall_s).collect());
    // Arrival percentiles are taken per stream and then their median,
    // so a burst of interference in one stream moves them no more than
    // it moves `txns_per_s`.
    let arrival = |p: f64| {
        median(
            untraced
                .iter()
                .map(|s| {
                    let mut v = s.arrival_us.clone();
                    v.sort_by(f64::total_cmp);
                    percentile(&v, p)
                })
                .collect(),
        )
    };
    let samples: usize = untraced.iter().map(|s| s.arrival_us.len()).sum();
    eprintln!(
        "perfbench: {} seed {} | {} txns/stream | {} untraced + {} traced streams in {measured:.1} s | \
         {} arrival samples | failed_share {}",
        w.name(),
        args.seed,
        untraced[0].txns,
        untraced.len(),
        traced.len(),
        samples,
        failed as f64 / attempted.max(1) as f64,
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layers = median_layers(&traced);
        let (traced_tps, untraced_tps) = (tps(&traced), tps(&untraced));
        layers.insert("trace.txns_per_s".into(), traced_tps);
        layers.insert("trace.overhead_share".into(), 1.0 - traced_tps / untraced_tps);
        if let Some(t) = last_trace {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.tsv", w.name()));
            t.write_tsv(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("perfbench: spans of the last traced stream in {}", path.display());
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = [
            tps(&untraced),
            arrival(0.50),
            arrival(0.99),
            median(untraced.iter().map(|s| s.peak_heap_bytes as f64 / 1e6).collect()),
            median(setup_s),
        ];
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect()
    };
    let per_stream: Vec<String> =
        untraced.iter().map(|s| format!("{:.0}", s.txns as f64 / s.wall_s)).collect();
    eprintln!("  untraced streams, txn/s: {}", per_stream.join(" "));
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<30} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

/// Median of `v` (0 when empty).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile `p` of ascending `sorted`, interpolated linearly between
/// the two nearest samples (0 when empty). With few samples this rests on
/// the top two rather than on the single slowest: `serve-mixed`'s 76
/// requests per stream give a p99 three quarters of the way from its
/// second-slowest request to its slowest.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let x = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (i, frac) = (x.floor() as usize, x.fract());
    match sorted.get(i + 1) {
        Some(&next) => sorted[i] + frac * (next - sorted[i]),
        None => last,
    }
}

/// Per-metric median over the traced streams.
fn median_layers(streams: &[StreamOut]) -> Layers {
    let mut all: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in streams {
        for (name, v) in &s.layers {
            all.entry(name).or_default().push(*v);
        }
    }
    all.into_iter().map(|(name, v)| (name.to_string(), median(v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.5);
        assert!((percentile(&v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn args_require_every_contract_flag() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert!(parse("--workload si-ooo --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload si-ooo --seed 1 --seconds 2").is_err());
        assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload si-ooo --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload si-ooo --seed 1 --seconds 2 --trace 2").is_err());
    }
}
