//! `scan`: cold analytic renders, one client, closed loop.

use crate::check::{brute_force_selection, digest, selected_ids};
use crate::layers::{self, Probe, Replay};
use crate::ops::{self, EndToEnd, OpRec};
use crate::out::{self, Outcome};
use crate::trace;
use crate::workload::{self, Rng, ScanInputs, ScanKind, SCAN_KINDS, SCAN_OPS_PER_S};
use crate::Args;
use canvas_core::prelude::*;
use canvas_core::Device;
use canvas_engine::{EngineConfig, QueryEngine, Served};
use std::time::Instant;

struct Setup {
    table: VersionedTable,
    inputs: ScanInputs,
    engine: QueryEngine,
}

fn setup(args: &Args, n_ops: usize) -> Setup {
    let sh = args.size.shape();
    let table = VersionedTable::new(
        "scan",
        workload::extent(),
        workload::points(sh.scan_points, args.seed),
    );
    let data = table.snapshot().batch().clone();
    let inputs = workload::scan_ops(data, args.size, n_ops, args.seed);
    let engine = QueryEngine::with_config(EngineConfig::default());
    Setup {
        table,
        inputs,
        engine,
    }
}

/// One pass over the op list; `digest_at` ops get their result digested
/// after their latency is taken.
fn run_loop(
    engine: &QueryEngine,
    inputs: &ScanInputs,
    digest_at: &[usize],
) -> (Vec<OpRec>, Vec<u64>, f64) {
    let mut recs = Vec::with_capacity(inputs.ops.len());
    let mut digests = Vec::new();
    let t0 = Instant::now();
    let mut due = t0;
    for (i, op) in inputs.ops.iter().enumerate() {
        let _root = trace::span("driver.op");
        let (r, start, done) = ops::execute(engine, &op.query, op.vp);
        recs.push(ops::record(&r, start, done, due));
        if digest_at.contains(&i) {
            digests.push(r.as_ref().map(|resp| digest(resp.canvas())).unwrap_or(0));
        }
        due = done;
    }
    (recs, digests, t0.elapsed().as_secs_f64())
}

/// `per_kind` sampled ops of each query kind, at seeded rounds.
fn samples(n_ops: usize, per_kind: usize, seed: u64) -> Vec<usize> {
    let rounds = (n_ops / SCAN_KINDS.len()).max(1);
    let mut rng = Rng::new(seed, 11 + per_kind as u64);
    let mut picks: Vec<usize> = (0..per_kind)
        .flat_map(|_| {
            (0..SCAN_KINDS.len())
                .map(|k| rng.below(rounds) * SCAN_KINDS.len() + k)
                .collect::<Vec<_>>()
        })
        .filter(|&i| i < n_ops)
        .collect();
    picks.sort_unstable();
    picks.dedup();
    picks
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let n_ops = ((args.seconds as f64 * SCAN_OPS_PER_S).round() as usize).max(SCAN_KINDS.len());
    let (s, setup_s, setup_reps) = ops::setup_repeated(5, || setup(args, n_ops));
    let picks = samples(n_ops, 1, args.seed);

    let host = ops::HostSample::take();
    let (recs, digests, wall_s) = run_loop(&s.engine, &s.inputs, &picks);
    out.attempted = recs.len() as u64;
    for (i, r) in recs.iter().enumerate() {
        if r.served.is_none() {
            out.fail(format!("op {i} failed in the engine"));
        }
    }
    let lat: Vec<f64> = recs.iter().map(|r| r.lat_ms).collect();
    let fresh: Vec<f64> = recs.iter().map(|r| r.fresh_ms).collect();
    let timed_engine = crate::engine_notes(&s.engine);
    host.note(&mut out);

    // Checks that need extra renders: the sampled results re-evaluated
    // on a sequential device, and the selections by brute force.
    let mut seq = Device::cpu();
    for (&i, &want) in picks.iter().zip(&digests) {
        let op = &s.inputs.ops[i];
        let reference = op.query.prepare().execute(&mut seq, op.vp);
        let canvas = reference.canvas();
        if digest(canvas) != want {
            out.fail(format!(
                "op {i} ({:?}) differs from the sequential device",
                op.kind
            ));
        }
        if matches!(op.kind, ScanKind::Select64 | ScanKind::SelectHigh) {
            let q = op.poly.as_ref().expect("selections carry their polygon");
            if selected_ids(canvas) != brute_force_selection(&s.inputs.data, q, &op.vp) {
                out.fail(format!("op {i} selection differs from brute force"));
            }
        }
    }

    ops::emit_end_to_end(
        &mut out,
        &EndToEnd {
            recs: &recs,
            wall_s,
            freshness_ms: &fresh,
            setup_s,
        },
    );
    let all_computed = recs.iter().all(|r| r.served == Some(Served::Computed));
    out.note("ops", n_ops);
    out.note("setup_reps_s", crate::list(&setup_reps));
    out.note("shape_all_computed", all_computed);
    out.note("checked_samples", picks.len());
    out.note("timed_engine", timed_engine);
    if args.trace {
        drop(s);
        traced(args, n_ops, &samples(n_ops, 2, args.seed), &lat, &mut out);
    }
    out
}

/// The traced run: replay on a fresh setup, then the decomposition.
/// `untraced_lat` is the timed phase's per-op latency.
fn traced(args: &Args, n_ops: usize, picks: &[usize], untraced_lat: &[f64], out: &mut Outcome) {
    let s = setup(args, n_ops);
    trace::set_enabled(true);
    let (recs, _, _) = run_loop(&s.engine, &s.inputs, &[]);
    let replay = Replay::capture(&s.engine, recs);
    let mut probe = Probe::default();
    let mut dev = layers::bare_device(&s.engine);
    let (mut evals, mut untraced) = (Vec::new(), Vec::new());
    for &i in picks {
        let op = &s.inputs.ops[i];
        let (result, eval_ms) = layers::eval_bare(&mut dev, &op.query.prepare(), op.vp, &mut probe);
        if replay.recs[i].served == Some(Served::Computed) {
            probe.overhead_ms.push(replay.recs[i].lat_ms - eval_ms);
            evals.push(eval_ms);
            untraced.push(untraced_lat[i]);
        }
        let q = op.poly.as_ref();
        match op.kind {
            ScanKind::Select64 | ScanKind::SelectHigh => layers::decompose_selection(
                &mut dev,
                &s.inputs.data,
                q.expect("selection polygon"),
                op.vp,
                digest(result.canvas()),
                &mut probe,
            ),
            ScanKind::Heatmap => layers::heatmap_pair(
                &mut dev,
                &s.inputs.data,
                q.expect("heatmap polygon"),
                op.vp,
                &mut probe,
            ),
            ScanKind::Density | ScanKind::Aggregate => {}
        }
        layers::hit_probe(&s.engine, &op.query, op.vp);
    }
    let batches: Vec<_> = workload::feed(args.size, 3, args.seed).batches().collect();
    layers::probe_ticks(
        &s.engine,
        &mut dev,
        &s.table,
        &batches,
        s.inputs.ops[picks[0]].vp,
        &mut probe,
    );
    layers::grid_build(&s.inputs.data);
    layers::dispatch(&s.engine);
    trace::set_enabled(false);
    // Bare evaluation plus engine overhead should account for the
    // untraced latency of the same ops.
    layers::reconcile(
        out,
        &[
            ("core_eval_ms", out::mean(&evals)),
            ("engine_overhead_ms", out::mean(&probe.overhead_ms)),
        ],
        "untraced_latency_ms",
        out::mean(&untraced),
    );
    crate::finish_traced(out, &s.engine, &replay, probe, out::median(untraced_lat));
}
