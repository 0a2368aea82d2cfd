//! Shared pieces of the timed loops: per-operation records, the engine
//! call under its span, and the end-to-end metric set.

use crate::out::{self, Outcome};
use crate::trace;
use canvas_engine::{EngineError, Query, QueryEngine, Response, Served};
use canvas_raster::Viewport;
use std::time::{Duration, Instant};

/// One operation as the client saw it.
#[derive(Clone, Debug)]
pub struct OpRec {
    /// Service time: submit to response, at the client.
    pub lat_ms: f64,
    /// Due time to response (see `README.md`, "Metrics").
    pub fresh_ms: f64,
    /// How late the operation was issued after it was due.
    pub late_ms: f64,
    /// `None` when the engine returned an error.
    pub served: Option<Served>,
    /// Engine-reported evaluation and admission-wait times.
    pub exec_ms: f64,
    pub queue_ms: f64,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submits one query under an `engine.execute.<how served>` span
/// (preceded, when tracing, by a separately timed `Query::prepare`).
pub fn execute(
    engine: &QueryEngine,
    q: &Query,
    vp: Viewport,
) -> (Result<Response, EngineError>, Instant, Instant) {
    if trace::enabled() {
        let _s = trace::span("engine.prepare");
        std::hint::black_box(q.prepare());
    }
    let mut s = trace::span("engine.execute");
    let start = Instant::now();
    let r = engine.execute(q, vp);
    let done = Instant::now();
    s.rename(match &r {
        Ok(resp) => match resp.served {
            Served::Computed => "engine.execute.computed",
            Served::CacheHit => "engine.execute.hit",
            Served::Coalesced => "engine.execute.coalesced",
            Served::Incremental => "engine.execute.incremental",
        },
        Err(_) => "engine.execute.failed",
    });
    (r, start, done)
}

pub fn record(
    r: &Result<Response, EngineError>,
    start: Instant,
    done: Instant,
    due: Instant,
) -> OpRec {
    let (served, exec_ms, queue_ms) = match r {
        Ok(resp) => (Some(resp.served), ms(resp.exec), ms(resp.queue_wait)),
        Err(_) => (None, 0.0, 0.0),
    };
    OpRec {
        lat_ms: ms(done - start),
        fresh_ms: ms(done.saturating_duration_since(due)),
        late_ms: ms(start.saturating_duration_since(due)),
        served,
        exec_ms,
        queue_ms,
    }
}

/// Counts of each way the operations were served, as a record object.
fn served_counts(recs: &[OpRec]) -> out::Json {
    let count = |s: Option<Served>| recs.iter().filter(|r| r.served == s).count();
    out::object(vec![
        ("computed", count(Some(Served::Computed)).into()),
        ("cache_hit", count(Some(Served::CacheHit)).into()),
        ("coalesced", count(Some(Served::Coalesced)).into()),
        ("incremental", count(Some(Served::Incremental)).into()),
        ("failed", count(None).into()),
    ])
}

/// The end-to-end metric set every workload prints.
pub struct EndToEnd<'a> {
    /// The timed phase's operations.
    pub recs: &'a [OpRec],
    pub wall_s: f64,
    pub freshness_ms: &'a [f64],
    pub setup_s: f64,
}

pub fn emit_end_to_end(out: &mut Outcome, e: &EndToEnd) {
    let latency: Vec<f64> = e.recs.iter().map(|r| r.lat_ms).collect();
    let late: Vec<f64> = e.recs.iter().map(|r| r.late_ms).collect();
    out.metric("qps", out::ratio(e.recs.len() as f64, e.wall_s), "1/s");
    out.metric("latency_p50_ms", out::quantile(&latency, 0.5), "ms");
    out.metric("latency_p90_ms", out::quantile(&latency, 0.9), "ms");
    out.metric("freshness_p50_ms", out::quantile(e.freshness_ms, 0.5), "ms");
    out.metric("freshness_p90_ms", out::quantile(e.freshness_ms, 0.9), "ms");
    out.metric("setup_s", e.setup_s, "s");
    out.metric("peak_rss_mb", out::peak_rss_mb(), "MiB");
    out.note(
        "samples",
        out::object(vec![
            ("latency", latency.len().into()),
            ("freshness", e.freshness_ms.len().into()),
        ]),
    );
    out.note("driver_late_p50_ms", out::median(&late));
    out.note("driver_late_max_ms", out::quantile(&late, 1.0));
    out.note("served", served_counts(e.recs));
}

/// Runs `build` `reps` times, dropping each result before the next
/// build, and returns the last result with the median build time in
/// seconds and every repetition's time.
pub fn setup_repeated<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        out::median(&times),
        times,
    )
}

/// Milliseconds a fixed single-thread integer loop takes (median of 5).
fn host_probe_ms() -> f64 {
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..5_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        times.push(ms(t.elapsed()));
    }
    out::median(&times)
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The host's state when a timed phase starts, to explain an outlier
/// run: a fixed single-thread loop timed before and after the phase,
/// and the share of CPU time the hypervisor gave to other guests
/// (steal) during it.
pub struct HostSample {
    probe_ms: f64,
    ticks: Option<(u64, u64)>,
}

impl HostSample {
    pub fn take() -> Self {
        HostSample {
            probe_ms: host_probe_ms(),
            ticks: cpu_ticks(),
        }
    }

    /// Records this sample next to one taken now.
    pub fn note(&self, out: &mut Outcome) {
        let steal = match (self.ticks, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => out::ratio((s1 - s0) as f64, (t1 - t0) as f64),
            _ => 0.0,
        };
        out.note(
            "host_during_run",
            out::object(vec![
                ("probe_before_ms", self.probe_ms.into()),
                ("probe_after_ms", host_probe_ms().into()),
                ("cpu_steal_share", steal.into()),
            ]),
        );
    }
}
