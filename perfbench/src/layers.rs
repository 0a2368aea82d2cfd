//! The per-layer breakdown, taken in the traced run only.
//!
//! Phase A replays the workload's own operation list through a fresh
//! engine with the span recorder on (the timed loops carry the spans;
//! they are inert while recording is off). Phase B then calls the
//! lower crates directly on a bare `Device` over the engine's worker
//! pool, one span per public call, on a sample of the workload's
//! operations and on its table. See `README.md` for which layer metric
//! should move which end-to-end metric.

use crate::check::digest;
use crate::ops::{self, OpRec};
use crate::out::{self, Outcome};
use crate::trace::{self, timed};
use canvas_core::prelude::*;
use canvas_core::{Device, PointBatch};
use canvas_engine::{CacheStats, Prepared, Query, QueryEngine, Served};
use canvas_geom::grid::GridIndexBuilder;
use canvas_geom::polygon::Polygon;
use canvas_raster::{DeviceProfile, PipelineStats, ValueTag};
use std::time::Instant;

/// How far a traced breakdown may be from the untraced end-to-end
/// figure it decomposes before the record flags it.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// Records the traced `parts` (ms) against the untraced `total` (ms)
/// they should account for: `gap_frac = Σ parts / total − 1`.
pub fn reconcile(
    out: &mut Outcome,
    parts: &[(&'static str, f64)],
    total_name: &'static str,
    total: f64,
) {
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let gap = out::ratio(sum, total) - 1.0;
    let mut fields: Vec<(&str, out::Json)> = parts.iter().map(|&(k, v)| (k, v.into())).collect();
    fields.push(("sum_ms", sum.into()));
    fields.push((total_name, total.into()));
    fields.push(("gap_frac", gap.into()));
    fields.push(("tolerance", RECONCILE_TOLERANCE.into()));
    fields.push(("within", (gap.abs() <= RECONCILE_TOLERANCE).into()));
    out.note("reconcile", out::object(fields));
}

/// Counts and pairings gathered alongside the spans.
#[derive(Default)]
pub struct Probe {
    /// Device work of each bare evaluation (exact counts).
    pub eval_stats: Vec<PipelineStats>,
    /// Exact point-in-polygon tests of each decomposed selection.
    pub pip_tests: Vec<f64>,
    /// Engine service minus bare evaluation of the same operation.
    pub overhead_ms: Vec<f64>,
    /// Engine-reported evaluation time of incremental refreshes.
    pub patch_exec_ms: Vec<f64>,
    /// Decomposition-vs-engine and fused-vs-materialized mismatches.
    pub failures: Vec<String>,
}

/// A device over the engine's own pool, outside the engine.
pub fn bare_device(engine: &QueryEngine) -> Device {
    Device::with_pool(
        DeviceProfile::cpu_parallel_n(engine.shared().threads()),
        engine.shared().pool().clone(),
    )
}

/// `Prepared::execute` on the bare device under `core.eval`, with the
/// raster work it did. Returns the result and its wall time in ms.
pub fn eval_bare(
    dev: &mut Device,
    prepared: &Prepared,
    vp: Viewport,
    probe: &mut Probe,
) -> (canvas_engine::QueryResult, f64) {
    let before = dev.stats();
    let (r, ms) = timed("core.eval", || prepared.execute(dev, vp));
    probe.eval_stats.push(dev.stats().delta(&before));
    (r, ms)
}

/// The selection plan `M[Mp](B[⊙](C_P, C_Q))` as individual core
/// calls, plus the exact point-in-polygon refinement over the points
/// in the polygon's boundary pixels. The decomposed result must equal
/// the engine path's (`expect`: digest of the bare evaluation).
pub fn decompose_selection(
    dev: &mut Device,
    data: &PointBatch,
    q: &Polygon,
    vp: Viewport,
    expect: u64,
    probe: &mut Probe,
) {
    let (cp, _) = timed("core.render_points", || render_points(dev, vp, data));
    let (cq, _) = timed("core.render_polygon", || {
        render_query_polygon(dev, vp, q.clone(), 1)
    });
    let (blended, _) = timed("core.blend", || {
        blend(dev, &cp, &cq, BlendFn::PointOverArea)
    });
    let (selected, _) = timed("core.mask", || {
        mask(dev, &blended, &MaskSpec::PointInAreas(CountCond::Ge(1)))
    });
    let (valued, _) = timed("core.value", || {
        canvas_core::ops::value::value_transform_tagged(dev, &blended, ValueTag::HeatLog)
    });
    std::hint::black_box(&valued);
    let mut pixels: Vec<u32> = cq.boundary().areas().iter().map(|e| e.pixel).collect();
    pixels.dedup();
    let locs: Vec<_> = pixels
        .iter()
        .flat_map(|&px| cp.boundary().points_at(px).iter().map(|e| e.loc))
        .collect();
    let (inside, _) = timed("geom.pip", || {
        locs.iter().filter(|&&p| q.contains_closed(p)).count()
    });
    std::hint::black_box(inside);
    probe.pip_tests.push(locs.len() as f64);
    if digest(&selected) != expect {
        probe
            .failures
            .push("decomposed selection differs from the engine plan".into());
    }
}

/// The selection heatmap through `queries::heatmap`, fused and
/// materialized; the two must be bit-identical.
pub fn heatmap_pair(
    dev: &mut Device,
    data: &PointBatch,
    q: &Polygon,
    vp: Viewport,
    probe: &mut Probe,
) {
    let (fused, _) = timed("core.heatmap_fused", || {
        queries::heatmap::selection_heatmap(dev, vp, data, q).canvas
    });
    let (materialized, _) = timed("core.heatmap_materialized", || {
        queries::heatmap::selection_heatmap_materialized(dev, vp, data, q)
    });
    if digest(&fused) != digest(&materialized) {
        probe
            .failures
            .push("fused heatmap differs from materialized".into());
    }
}

/// Live-table ticks on `table` at `vp`: append, snapshot, the engine's
/// incremental refresh, and the same generation patched and fully
/// rendered on the bare device. All three canvases must be identical.
pub fn probe_ticks(
    engine: &QueryEngine,
    dev: &mut Device,
    table: &VersionedTable,
    batches: &[PointBatch],
    vp: Viewport,
    probe: &mut Probe,
) {
    let warm = engine.execute(
        &Query::LiveHeatmap {
            snapshot: table.snapshot(),
        },
        vp,
    );
    let Ok(warm) = warm else {
        probe.failures.push("live probe warm-up failed".into());
        return;
    };
    let mut prev = warm.canvas().clone();
    let mut prev_len = table.len();
    for batch in batches {
        let _tick = trace::span("driver.probe_tick");
        timed("versioned.append", || engine.ingest_append(table, batch));
        let (snap, _) = timed("versioned.snapshot", || table.snapshot());
        let (r, start, done) = ops::execute(
            engine,
            &Query::LiveHeatmap {
                snapshot: snap.clone(),
            },
            vp,
        );
        let Ok(resp) = r else {
            probe.failures.push("live probe refresh failed".into());
            return;
        };
        let ((patched, _), patch_ms) = timed("versioned.patch", || {
            patch_live_heatmap(dev, vp, &prev, snap.batch(), prev_len, None)
        });
        let (full, _) = timed("versioned.full_render", || {
            render_live_heatmap(dev, vp, snap.batch(), None)
        });
        let d = digest(resp.canvas());
        if d != digest(&patched) || d != digest(&full) {
            probe
                .failures
                .push("live probe: refresh, patch and full render differ".into());
        }
        if resp.served == Served::Incremental {
            probe.overhead_ms.push(ops::ms(done - start) - patch_ms);
            probe.patch_exec_ms.push(ops::ms(resp.exec));
        }
        prev = resp.canvas().clone();
        prev_len = snap.len();
    }
}

/// Re-submits `(q, vp)` until the engine serves it from the cache (the
/// first submission may compute it again after an eviction).
pub fn hit_probe(engine: &QueryEngine, q: &Query, vp: Viewport) {
    for _ in 0..2 {
        if let (Ok(r), ..) = ops::execute(engine, q, vp) {
            if r.served == Served::CacheHit {
                return;
            }
        }
    }
}

/// The grid index over the workload's points, as `VersionedTable`
/// builds it.
pub fn grid_build(data: &PointBatch) {
    for _ in 0..3 {
        let (grid, _) = timed("geom.grid_build", || {
            let mut b = GridIndexBuilder::with_target_occupancy(
                crate::workload::extent(),
                data.len().max(1024),
                8,
            );
            for (i, &p) in data.points.iter().enumerate() {
                b.insert_point(i as u32, p);
            }
            b.build()
        });
        std::hint::black_box(grid.len());
    }
}

/// One no-op pass through the worker pool, repeatedly.
pub fn dispatch(engine: &QueryEngine) {
    let pool = engine.shared().pool();
    for _ in 0..200 {
        let _s = trace::span("executor.dispatch");
        std::hint::black_box(pool.run_indexed(pool.threads(), |i| i));
    }
}

/// Cost of one program-internal `canvas_obs` span with the default
/// recording flags (flight recorder on, tracing off).
fn obs_span_ns() -> f64 {
    const ITERS: u32 = 200_000;
    let t0 = Instant::now();
    for i in 0..ITERS {
        let span = canvas_obs::span("perfbench_probe", "bench");
        std::hint::black_box(&span);
        std::hint::black_box(i);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// `slow_captured` from the engine's metrics registry.
pub fn slow_captured(engine: &QueryEngine) -> u64 {
    let json = engine.metrics_json();
    json.split("\"slow_captured\":")
        .nth(1)
        .and_then(|rest| {
            rest.trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Engine state right after the phase-A replay.
pub struct Replay {
    pub recs: Vec<OpRec>,
    pub recalibrations: u64,
    pub cache: CacheStats,
    pub min_parallel_items: usize,
    pub contended_frac: f64,
    pub slow_captured: u64,
}

impl Replay {
    pub fn capture(engine: &QueryEngine, recs: Vec<OpRec>) -> Self {
        let sched = engine.scheduler_stats();
        Replay {
            recs,
            recalibrations: engine.metrics().recalibrations,
            cache: engine.cache_stats(),
            min_parallel_items: engine.shared().pool().effective_min_parallel_items(),
            contended_frac: out::ratio(sched.contended_grants as f64, sched.grants as f64),
            slow_captured: slow_captured(engine),
        }
    }
}

/// Writes every per-layer metric. `engine` is the replay engine after
/// phase B; `untraced_p50_ms` is the timed phase's latency median.
pub fn emit(
    out: &mut Outcome,
    engine: &QueryEngine,
    replay: &Replay,
    probe: &Probe,
    untraced_p50_ms: f64,
) {
    let selfs = trace::self_times(&trace::records());
    let med = |name: &str, scale: f64| -> f64 {
        selfs
            .get(name)
            .map(|v| out::median(&v.iter().map(|&ns| ns as f64 * scale).collect::<Vec<_>>()))
            .unwrap_or(0.0)
    };
    const US: f64 = 1e-3;
    const MS: f64 = 1e-6;
    let recs = &replay.recs;
    let n = recs.len().max(1) as f64;
    let count = |s: Served| recs.iter().filter(|r| r.served == Some(s)).count() as f64;
    // Admission wait is paid by every operation that evaluates.
    let evaluated: Vec<&OpRec> = recs
        .iter()
        .filter(|r| matches!(r.served, Some(Served::Computed | Served::Incremental)))
        .collect();
    let fm = engine.metrics();

    out.metric("engine.prepare_us", med("engine.prepare", US), "us");
    out.metric("engine.hit_us", med("engine.execute.hit", US), "us");
    out.metric(
        "engine.queue_wait_ms",
        out::mean(&evaluated.iter().map(|r| r.queue_ms).collect::<Vec<_>>()),
        "ms",
    );
    out.metric("engine.root_hit_rate", count(Served::CacheHit) / n, "ratio");
    out.metric(
        "engine.coalesced_frac",
        count(Served::Coalesced) / n,
        "ratio",
    );
    out.metric("engine.overhead_ms", out::median(&probe.overhead_ms), "ms");
    out.metric(
        "cache.evictions_per_op",
        replay.cache.evictions as f64 / n,
        "count",
    );
    out.metric(
        "cache.shared_bytes_frac",
        out::ratio(replay.cache.shared_bytes as f64, replay.cache.bytes as f64),
        "ratio",
    );
    out.metric(
        "cache.subplan_hit_rate",
        replay.cache.shared_hit_rate(),
        "ratio",
    );
    let patch: Vec<f64> = recs
        .iter()
        .filter(|r| r.served == Some(Served::Incremental))
        .map(|r| r.exec_ms)
        .chain(probe.patch_exec_ms.iter().copied())
        .collect();
    out.metric("engine.patch_ms", out::median(&patch), "ms");
    out.metric(
        "engine.dirty_tiles_per_refresh",
        out::ratio(
            fm.dirty_tiles_redrawn as f64,
            fm.incremental_refreshes as f64,
        ),
        "count",
    );

    out.metric("core.eval_ms", med("core.eval", MS), "ms");
    for (metric, span) in [
        ("core.render_points_ms", "core.render_points"),
        ("core.render_polygon_ms", "core.render_polygon"),
        ("core.blend_ms", "core.blend"),
        ("core.mask_ms", "core.mask"),
        ("core.value_ms", "core.value"),
        ("core.heatmap_fused_ms", "core.heatmap_fused"),
        ("core.heatmap_materialized_ms", "core.heatmap_materialized"),
        ("versioned.append_ms", "versioned.append"),
        ("versioned.snapshot_ms", "versioned.snapshot"),
        ("versioned.patch_ms", "versioned.patch"),
        ("versioned.full_render_ms", "versioned.full_render"),
        ("geom.pip_ms", "geom.pip"),
        ("geom.grid_build_ms", "geom.grid_build"),
    ] {
        out.metric(metric, med(span, MS), "ms");
    }

    let evals = probe.eval_stats.len().max(1) as f64;
    let per_eval = |f: fn(&PipelineStats) -> u64| {
        probe.eval_stats.iter().map(|s| f(s) as f64).sum::<f64>() / evals
    };
    out.metric("raster.passes_per_op", per_eval(|s| s.passes), "count");
    out.metric(
        "raster.fragments_per_op",
        per_eval(|s| s.fragments),
        "count",
    );
    out.metric(
        "raster.boundary_fragments_per_op",
        per_eval(|s| s.boundary_fragments),
        "count",
    );
    out.metric(
        "raster.fullscreen_texels_per_op",
        per_eval(|s| s.fullscreen_texels),
        "count",
    );
    out.metric(
        "geom.pip_tests_per_op",
        out::mean(&probe.pip_tests),
        "count",
    );

    out.metric("executor.dispatch_us", med("executor.dispatch", US), "us");
    out.metric(
        "executor.min_parallel_items",
        replay.min_parallel_items as f64,
        "count",
    );
    out.metric(
        "executor.recalibrations",
        replay.recalibrations as f64,
        "count",
    );
    out.metric("scheduler.contended_frac", replay.contended_frac, "ratio");
    out.metric("obs.slow_captured", replay.slow_captured as f64, "count");
    out.metric("obs.span_ns", obs_span_ns(), "ns");
    out.metric(
        "driver.late_ms",
        out::median(&recs.iter().map(|r| r.late_ms).collect::<Vec<_>>()),
        "ms",
    );
    let traced_p50 = out::median(&recs.iter().map(|r| r.lat_ms).collect::<Vec<_>>());
    out.metric(
        "trace.overhead_frac",
        out::ratio(traced_p50, untraced_p50_ms) - 1.0,
        "ratio",
    );

    out.note(
        "span_counts",
        out::object(selfs.iter().map(|(k, v)| (*k, v.len().into())).collect()),
    );
}
