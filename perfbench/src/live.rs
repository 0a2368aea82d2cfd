//! `live`: writes beside reads. One driver thread, open loop: every
//! tick appends one trip-feed batch, then refreshes the dashboards.

use crate::check::digest;
use crate::layers::{self, Probe, Replay};
use crate::ops::{self, EndToEnd, OpRec};
use crate::out::{self, Outcome};
use crate::trace::{self, timed};
use crate::workload::{self, Rng, LIVE_TICK};
use crate::Args;
use canvas_core::prelude::*;
use canvas_core::{Device, PointBatch};
use canvas_engine::{EngineConfig, Query, QueryEngine, Served};
use std::time::Instant;

/// Spare feed batches beyond the ticks, for the traced run's probes.
const PROBE_BATCHES: usize = 3;

struct Setup {
    table: VersionedTable,
    batches: Vec<PointBatch>,
    dashboards: Vec<Viewport>,
    engine: QueryEngine,
}

/// Data, table (with its grid index), engine, and the dashboards'
/// first render at generation 0.
fn setup(args: &Args, n_ticks: usize) -> Setup {
    let inputs = workload::live_inputs(args.size, n_ticks, PROBE_BATCHES, args.seed);
    let batches = inputs.feed.batches().collect();
    let table = VersionedTable::new("live", workload::extent(), inputs.base);
    let engine = QueryEngine::with_config(EngineConfig::default());
    let snapshot = table.snapshot();
    for &vp in &inputs.dashboards {
        engine
            .execute(
                &Query::LiveHeatmap {
                    snapshot: snapshot.clone(),
                },
                vp,
            )
            .expect("the first dashboard render is served");
    }
    Setup {
        table,
        batches,
        dashboards: inputs.dashboards,
        engine,
    }
}

/// A sampled generation: its snapshot and the digests of the
/// dashboards served at it.
struct Sample {
    tick: usize,
    snapshot: TableSnapshot,
    digests: Vec<u64>,
}

struct Pass {
    /// One record per dashboard refresh.
    recs: Vec<OpRec>,
    /// Per tick: due time to the last dashboard served.
    fresh_ms: Vec<f64>,
    /// Per tick: the append and the snapshot.
    append_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    wall_s: f64,
    samples: Vec<Sample>,
}

fn run_loop(s: &Setup, n_ticks: usize, sample_ticks: &[usize]) -> Pass {
    let mut recs = Vec::with_capacity(n_ticks * s.dashboards.len());
    let mut fresh_ms = Vec::with_capacity(n_ticks);
    let mut append_ms = Vec::with_capacity(n_ticks);
    let mut snapshot_ms = Vec::with_capacity(n_ticks);
    let mut samples = Vec::new();
    let t0 = Instant::now();
    for k in 0..n_ticks {
        let due = t0 + LIVE_TICK * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let _tick = trace::span("driver.tick");
        let late_ms = ops::ms(Instant::now().saturating_duration_since(due));
        let (_, append) = timed("versioned.append", || {
            s.engine.ingest_append(&s.table, &s.batches[k])
        });
        let (snapshot, snap) = timed("versioned.snapshot", || s.table.snapshot());
        append_ms.push(append);
        snapshot_ms.push(snap);
        let mut served = Vec::with_capacity(s.dashboards.len());
        let mut last = due;
        for &vp in &s.dashboards {
            let q = Query::LiveHeatmap {
                snapshot: snapshot.clone(),
            };
            let (r, start, done) = ops::execute(&s.engine, &q, vp);
            let mut rec = ops::record(&r, start, done, due);
            rec.late_ms = late_ms;
            recs.push(rec);
            last = done;
            served.push(r);
        }
        fresh_ms.push(ops::ms(last - due));
        if sample_ticks.contains(&k) {
            let digests = served
                .iter()
                .map(|r| r.as_ref().map(|resp| digest(resp.canvas())).unwrap_or(0))
                .collect();
            samples.push(Sample {
                tick: k,
                snapshot,
                digests,
            });
        }
    }
    Pass {
        recs,
        fresh_ms,
        append_ms,
        snapshot_ms,
        wall_s: t0.elapsed().as_secs_f64(),
        samples,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let n_ticks = ((args.seconds as f64 / LIVE_TICK.as_secs_f64()).round() as usize).max(2);
    let (s, setup_s, setup_reps) = ops::setup_repeated(5, || setup(args, n_ticks));
    let mut rng = Rng::new(args.seed, 31);
    let mut sample_ticks = vec![rng.below(n_ticks), rng.below(n_ticks)];
    sample_ticks.dedup();

    let host = ops::HostSample::take();
    let pass = run_loop(&s, n_ticks, &sample_ticks);
    out.attempted = pass.recs.len() as u64;
    for (i, r) in pass.recs.iter().enumerate() {
        if r.served.is_none() {
            out.fail(format!("refresh {i} failed in the engine"));
        }
    }
    let lat: Vec<f64> = pass.recs.iter().map(|r| r.lat_ms).collect();
    let timed_engine = crate::engine_notes(&s.engine);
    host.note(&mut out);

    // Sampled generations against a full render on a sequential device.
    let mut seq = Device::cpu();
    for sample in &pass.samples {
        for (vp, &want) in s.dashboards.iter().zip(&sample.digests) {
            let full = render_live_heatmap(&mut seq, *vp, sample.snapshot.batch(), None);
            if digest(&full) != want {
                out.fail(format!("tick {} differs from a full render", sample.tick));
            }
        }
    }

    ops::emit_end_to_end(
        &mut out,
        &EndToEnd {
            recs: &pass.recs,
            wall_s: pass.wall_s,
            freshness_ms: &pass.fresh_ms,
            setup_s,
        },
    );
    let all_incremental = pass
        .recs
        .iter()
        .all(|r| r.served == Some(Served::Incremental));
    out.note("ticks", n_ticks);
    out.note("tick_ms", ops::ms(LIVE_TICK));
    out.note("dashboards", s.dashboards.len());
    out.note("setup_reps_s", crate::list(&setup_reps));
    out.note("shape_all_incremental", all_incremental);
    out.note("checked_generations", pass.samples.len());
    out.note("timed_engine", timed_engine);
    if args.trace {
        let untraced_p50 = out::median(&lat);
        let untraced_fresh = out::mean(&pass.fresh_ms);
        drop(pass);
        drop(s);
        traced(args, n_ticks, untraced_p50, untraced_fresh, &mut out);
    }
    out
}

/// `untraced_fresh` is the timed phase's mean freshness.
fn traced(args: &Args, n_ticks: usize, untraced_p50: f64, untraced_fresh: f64, out: &mut Outcome) {
    let s = setup(args, n_ticks);
    trace::set_enabled(true);
    let pass = run_loop(&s, n_ticks, &[]);
    // Append, snapshot and the dashboards' patches should account for
    // the untraced freshness.
    let patches: f64 = pass.recs.iter().map(|r| r.exec_ms).sum();
    layers::reconcile(
        out,
        &[
            ("append_ms", out::mean(&pass.append_ms)),
            ("snapshot_ms", out::mean(&pass.snapshot_ms)),
            ("patches_ms", patches / n_ticks as f64),
        ],
        "untraced_freshness_ms",
        untraced_fresh,
    );
    let replay = Replay::capture(&s.engine, pass.recs);
    let mut probe = Probe::default();
    let mut dev = layers::bare_device(&s.engine);
    let snapshot = s.table.snapshot();
    for &vp in &s.dashboards {
        let q = Query::LiveHeatmap {
            snapshot: snapshot.clone(),
        };
        layers::eval_bare(&mut dev, &q.prepare(), vp, &mut probe);
        layers::hit_probe(&s.engine, &q, vp);
    }
    // The selection rows of the breakdown, over the live table.
    let vp = s.dashboards[1];
    let mut rng = Rng::new(args.seed, 32);
    let data = snapshot.batch();
    for vertices in [64, args.size.shape().high_vertices] {
        let q = canvas_datagen::star_polygon(vp.world(), vertices, 0.3, rng.next());
        let sel = Query::SelectPoints {
            data: data.clone(),
            q: q.clone(),
        };
        let (result, _) = layers::eval_bare(&mut dev, &sel.prepare(), vp, &mut probe);
        layers::decompose_selection(&mut dev, data, &q, vp, digest(result.canvas()), &mut probe);
        layers::heatmap_pair(&mut dev, data, &q, vp, &mut probe);
    }
    layers::probe_ticks(
        &s.engine,
        &mut dev,
        &s.table,
        &s.batches[n_ticks..],
        s.dashboards[0],
        &mut probe,
    );
    layers::grid_build(data);
    layers::dispatch(&s.engine);
    trace::set_enabled(false);
    crate::finish_traced(out, &s.engine, &replay, probe, untraced_p50);
}
