//! `explore`: an interactive pan/zoom session, two clients, closed loop.

use crate::check::{brute_force_selection, digest, selected_ids};
use crate::layers::{self, Probe, Replay};
use crate::ops::{self, EndToEnd, OpRec};
use crate::out::{self, Outcome};
use crate::trace;
use crate::workload::{self, ExploreInputs, Rng, Step, EXPLORE_STEPS_PER_S};
use crate::Args;
use canvas_core::prelude::*;
use canvas_core::Device;
use canvas_engine::{EngineConfig, QueryEngine, Served};
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex, Weak};
use std::time::Instant;

struct Setup {
    table: VersionedTable,
    inputs: ExploreInputs,
    engine: QueryEngine,
}

fn setup(args: &Args, n_steps: usize) -> Setup {
    let sh = args.size.shape();
    let table = VersionedTable::new(
        "explore",
        workload::extent(),
        workload::points(sh.explore_points, args.seed),
    );
    let data = table.snapshot().batch().clone();
    let inputs = workload::explore_inputs(data, args.size, n_steps, args.seed);
    let engine = QueryEngine::with_config(EngineConfig::default());
    Setup {
        table,
        inputs,
        engine,
    }
}

/// The first result served for a step: repeats must be bit-identical.
struct First {
    digest: u64,
    canvas: Weak<Canvas>,
}

struct Pass {
    /// Per walk step, in walk order.
    recs: Vec<OpRec>,
    wall_s: f64,
    firsts: HashMap<Step, First>,
    repeat_mismatches: Vec<usize>,
}

/// Runs the walk with one closed-loop client per engine thread; client
/// `c` replays the steps `i` with `i % clients == c`.
fn run_loop(engine: &QueryEngine, inputs: &ExploreInputs, clients: usize) -> Pass {
    let firsts: Mutex<HashMap<Step, First>> = Mutex::new(HashMap::new());
    let mismatches = Mutex::new(Vec::new());
    let start = Barrier::new(clients);
    let t0 = Mutex::new(None);
    let mut per_client: Vec<Vec<(usize, OpRec)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (firsts, mismatches, start, t0) = (&firsts, &mismatches, &start, &t0);
                scope.spawn(move || {
                    let mut recs = Vec::new();
                    if start.wait().is_leader() {
                        *t0.lock().expect("t0 lock") = Some(Instant::now());
                    }
                    let mut due = Instant::now();
                    for (i, step) in inputs.walk.iter().enumerate().skip(c).step_by(clients) {
                        let _root = trace::span("driver.op");
                        let q = &inputs.shapes[step.shape];
                        let (r, begin, done) = ops::execute(engine, q, inputs.tiles[step.tile]);
                        recs.push((i, ops::record(&r, begin, done, due)));
                        if let Ok(resp) = &r {
                            if !check_repeat(firsts, *step, resp.canvas()) {
                                mismatches.lock().expect("mismatch lock").push(i);
                            }
                        }
                        due = Instant::now();
                    }
                    recs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("explore client panicked"))
            .collect()
    });
    let wall_s = t0
        .into_inner()
        .expect("t0 lock")
        .map(|t| t.elapsed().as_secs_f64())
        .unwrap_or(0.0);
    let mut all: Vec<(usize, OpRec)> = per_client.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    Pass {
        recs: all.into_iter().map(|(_, r)| r).collect(),
        wall_s,
        firsts: firsts.into_inner().expect("firsts lock"),
        repeat_mismatches: mismatches.into_inner().expect("mismatch lock"),
    }
}

/// Records the first result of `step`, or checks a repeat against it.
/// A repeat served from the same allocation is identical by
/// construction; anything else is compared by digest.
fn check_repeat(firsts: &Mutex<HashMap<Step, First>>, step: Step, canvas: &Arc<Canvas>) -> bool {
    let known = firsts
        .lock()
        .expect("firsts lock")
        .get(&step)
        .map(|f| (f.digest, f.canvas.upgrade()));
    match known {
        Some((_, Some(a))) if Arc::ptr_eq(&a, canvas) => true,
        Some((d, _)) => digest(canvas) == d,
        None => {
            let d = digest(canvas);
            let mut map = firsts.lock().expect("firsts lock");
            let first = map.entry(step).or_insert(First {
                digest: d,
                canvas: Arc::downgrade(canvas),
            });
            first.digest == d
        }
    }
}

/// `n` distinct visited steps, seeded.
fn sample_steps(firsts: &HashMap<Step, First>, n: usize, seed: u64) -> Vec<Step> {
    let mut seen: Vec<Step> = firsts.keys().copied().collect();
    seen.sort_by_key(|s| (s.shape, s.tile));
    let mut rng = Rng::new(seed, 21);
    let mut out = Vec::new();
    while out.len() < n.min(seen.len()) {
        out.push(seen.swap_remove(rng.below(seen.len())));
    }
    out
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let clients = EngineConfig::default().threads.max(1);
    let n_steps = ((args.seconds as f64 * EXPLORE_STEPS_PER_S).round() as usize).max(clients);
    let (s, setup_s, setup_reps) = ops::setup_repeated(5, || setup(args, n_steps));

    let host = ops::HostSample::take();
    let pass = run_loop(&s.engine, &s.inputs, clients);
    out.attempted = pass.recs.len() as u64;
    for (i, r) in pass.recs.iter().enumerate() {
        if r.served.is_none() {
            out.fail(format!("step {i} failed in the engine"));
        }
    }
    for i in &pass.repeat_mismatches {
        out.fail(format!(
            "step {i} differs from the first result of its (query, tile)"
        ));
    }
    let lat: Vec<f64> = pass.recs.iter().map(|r| r.lat_ms).collect();
    let fresh: Vec<f64> = pass.recs.iter().map(|r| r.fresh_ms).collect();
    let timed_engine = crate::engine_notes(&s.engine);
    host.note(&mut out);

    // Sampled first results against a sequential device, and one
    // selection against brute force.
    let mut seq = Device::cpu();
    let picks = sample_steps(&pass.firsts, 4, args.seed);
    for step in &picks {
        let vp = s.inputs.tiles[step.tile];
        let reference = s.inputs.shapes[step.shape].prepare().execute(&mut seq, vp);
        if digest(reference.canvas()) != pass.firsts[step].digest {
            out.fail(format!("{step:?} differs from the sequential device"));
        }
    }
    if let Some(step) = pass
        .firsts
        .keys()
        .filter(|s| s.shape == 0)
        .min_by_key(|s| s.tile)
    {
        let vp = s.inputs.tiles[step.tile];
        let reference = s.inputs.shapes[0].prepare().execute(&mut seq, vp);
        if selected_ids(reference.canvas())
            != brute_force_selection(&s.inputs.data, &s.inputs.district, &vp)
        {
            out.fail(format!("{step:?} selection differs from brute force"));
        }
    }

    ops::emit_end_to_end(
        &mut out,
        &EndToEnd {
            recs: &pass.recs,
            wall_s: pass.wall_s,
            freshness_ms: &fresh,
            setup_s,
        },
    );
    let n = pass.recs.len().max(1) as f64;
    let share = |s: Served| pass.recs.iter().filter(|r| r.served == Some(s)).count() as f64 / n;
    out.note("steps", n_steps);
    out.note("clients", clients);
    out.note("distinct_steps", pass.firsts.len());
    out.note("setup_reps_s", crate::list(&setup_reps));
    out.note("root_hit_share", share(Served::CacheHit));
    out.note("coalesced_share", share(Served::Coalesced));
    out.note("checked_samples", picks.len() + 1);
    out.note("timed_engine", timed_engine);
    if args.trace {
        let untraced_p50 = out::median(&lat);
        drop(s);
        traced(args, n_steps, clients, untraced_p50, &mut out);
    }
    out
}

fn traced(args: &Args, n_steps: usize, clients: usize, untraced_p50: f64, out: &mut Outcome) {
    let s = setup(args, n_steps);
    trace::set_enabled(true);
    let pass = run_loop(&s.engine, &s.inputs, clients);
    for i in &pass.repeat_mismatches {
        out.fail(format!("traced step {i} differs from its first result"));
    }
    let picks = sample_steps(&pass.firsts, 6, args.seed ^ 1);
    let first_computed: HashMap<Step, f64> = s
        .inputs
        .walk
        .iter()
        .zip(&pass.recs)
        .rev()
        .filter(|(_, r)| r.served == Some(Served::Computed))
        .map(|(step, r)| (*step, r.lat_ms))
        .collect();
    let replay = Replay::capture(&s.engine, pass.recs);
    let mut probe = Probe::default();
    let mut dev = layers::bare_device(&s.engine);
    let data = &s.inputs.data;
    for step in &picks {
        let vp = s.inputs.tiles[step.tile];
        let q = &s.inputs.shapes[step.shape];
        let (result, eval_ms) = layers::eval_bare(&mut dev, &q.prepare(), vp, &mut probe);
        if let Some(service) = first_computed.get(step) {
            probe.overhead_ms.push(service - eval_ms);
        }
        match step.shape {
            0 => layers::decompose_selection(
                &mut dev,
                data,
                &s.inputs.district,
                vp,
                digest(result.canvas()),
                &mut probe,
            ),
            3 => layers::heatmap_pair(&mut dev, data, &s.inputs.corridor, vp, &mut probe),
            _ => {}
        }
        layers::hit_probe(&s.engine, q, vp);
    }
    // Every breakdown row needs a sample: cover the selection and the
    // heatmap on the root tile even when the seeded picks missed them.
    let root = s.inputs.tiles[0];
    let (sel, _) = layers::eval_bare(&mut dev, &s.inputs.shapes[0].prepare(), root, &mut probe);
    layers::decompose_selection(
        &mut dev,
        data,
        &s.inputs.district,
        root,
        digest(sel.canvas()),
        &mut probe,
    );
    layers::heatmap_pair(&mut dev, data, &s.inputs.corridor, root, &mut probe);
    let batches: Vec<_> = workload::feed(args.size, 3, args.seed).batches().collect();
    layers::probe_ticks(&s.engine, &mut dev, &s.table, &batches, root, &mut probe);
    layers::grid_build(data);
    layers::dispatch(&s.engine);
    trace::set_enabled(false);
    crate::finish_traced(out, &s.engine, &replay, probe, untraced_p50);
}
