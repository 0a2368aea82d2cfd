//! The benchmark of the canvas-algebra serving stack.
//!
//! ```text
//! perfbench --workload scan|explore|live --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--spans-out DIR]
//! ```
//!
//! Builds the workload's inputs from the seed, runs its fixed operation
//! list against one `QueryEngine` with the default configuration, checks
//! the outputs, and prints a run record line followed by the result
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of a separate traced replay with `--trace 1`. `README.md` explains
//! the workloads, the metrics and the measured noise sources.

mod check;
mod explore;
mod layers;
mod live;
mod ops;
mod out;
mod scan;
mod trace;
mod workload;

use canvas_engine::{EngineConfig, QueryEngine};
use out::{Json, Outcome};
use std::path::PathBuf;
use workload::Size;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
    pub spans_out: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload scan|explore|live --seed N --seconds S --trace 0|1 [--size full|tiny] [--spans-out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        size: Size::Full,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected an integer"))?;
                if !(1..=600).contains(&args.seconds) {
                    return Err(bad("expected 1 to 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            "--spans-out" => args.spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["scan", "explore", "live"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "scan" => scan::run(&args),
        "explore" => explore::run(&args),
        _ => live::run(&args),
    };
    // End-to-end metric names have no dot, per-layer names do; a run
    // prints one set, chosen by `--trace`.
    outcome
        .metrics
        .retain(|(name, ..)| name.contains('.') == args.trace);
    run_notes(&args, &mut outcome);
    if let (true, Some(dir)) = (args.trace, &args.spans_out) {
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| trace::write_tsv(&path, &trace::records()));
        match written {
            Ok(()) => outcome.note("spans_file", path.display().to_string()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.record_json());
    println!("{}", outcome.result_json());
}

/// Host, build, seed and configuration fields of the run record.
fn run_notes(args: &Args, out: &mut Outcome) {
    let cfg = EngineConfig::default();
    let be = canvas_raster::simd::active_backend();
    out.note("workload", args.workload.as_str());
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("trace", args.trace);
    out.note("size", format!("{:?}", args.size).to_lowercase());
    out.note(
        "host",
        out::object(vec![
            (
                "cores",
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .into(),
            ),
            ("simd_backend", be.name().into()),
            ("simd_width", be.width().into()),
            ("rustc", env!("PERFBENCH_RUSTC").into()),
        ]),
    );
    out.note(
        "engine_config",
        out::object(vec![
            ("threads", cfg.threads.into()),
            ("max_concurrent", cfg.max_concurrent.into()),
            ("max_queue", cfg.max_queue.into()),
            ("cache_budget_bytes", cfg.cache_budget_bytes.into()),
            ("calibrate", cfg.calibrate.into()),
            ("share_subplans", cfg.share_subplans.into()),
            (
                "slow_query_threshold_ms",
                (cfg.slow_query_threshold.as_secs_f64() * 1e3).into(),
            ),
        ]),
    );
}

/// The timing-derived engine state after the timed phase: values that
/// differ between identical runs and explain outliers.
pub fn engine_notes(engine: &QueryEngine) -> Json {
    let cal = engine.calibration();
    let m = engine.metrics();
    let cache = engine.cache_stats();
    out::object(vec![
        (
            "calibrated_min_parallel_items",
            cal.map(|c| c.derived_min_parallel_items)
                .unwrap_or(0)
                .into(),
        ),
        (
            "min_parallel_items",
            engine.shared().pool().effective_min_parallel_items().into(),
        ),
        ("recalibrations", m.recalibrations.into()),
        ("slow_captured", layers::slow_captured(engine).into()),
        ("cache_evictions", cache.evictions.into()),
        ("cache_peak_bytes", cache.peak_bytes.into()),
        ("subplan_hits", m.subplan_hits.into()),
    ])
}

/// Folds the traced run's checks into the outcome, writes the spans,
/// and emits the per-layer metrics.
pub fn finish_traced(
    out: &mut Outcome,
    engine: &QueryEngine,
    replay: &layers::Replay,
    probe: layers::Probe,
    untraced_p50_ms: f64,
) {
    for r in &replay.recs {
        if r.served.is_none() {
            out.fail("a traced replay operation failed in the engine".into());
        }
    }
    for f in &probe.failures {
        out.fail(f.clone());
    }
    layers::emit(out, engine, replay, &probe, untraced_p50_ms);
}

/// A JSON list of numbers.
pub fn list(xs: &[f64]) -> Json {
    Json(format!(
        "[{}]",
        xs.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(", ")
    ))
}
