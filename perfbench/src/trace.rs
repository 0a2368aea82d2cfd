//! The benchmark's own span recorder, used only by the traced replay.
//!
//! Spans are taken *around calls into each crate's public functions*
//! from the benchmark's files (the program's internal `canvas_obs`
//! instrumentation is not used for the breakdown). Records stay in
//! memory until the run ends; [`write_tsv`] then writes them out and
//! [`self_times`] reduces them to per-name self time: a span's duration
//! minus the part of it its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub thread: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn thread_ordinal() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span; recorded when dropped. Inert while recording is off.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

pub fn span(name: &'static str) -> Span {
    let start = Instant::now();
    if !ENABLED.load(Ordering::Relaxed) {
        return Span {
            id: 0,
            parent: 0,
            name,
            start,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span {
        id,
        parent,
        name,
        start,
    }
}

impl Span {
    /// Renames the span before it closes (e.g. to split one call site
    /// by how the engine served it).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.truncate(pos);
            }
        });
        let epoch = *EPOCH.get_or_init(Instant::now);
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            thread: thread_ordinal(),
            name: self.name,
            start_ns: self.start.saturating_duration_since(epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(self.start).as_nanos() as u64,
        };
        // A poisoned lock only means another recording thread panicked;
        // the vector itself is always in a valid state.
        RECORDS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(rec);
    }
}

/// Runs `f` under a span and returns its result with the span's
/// duration in milliseconds.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let s = span(name);
    let r = f();
    let ms = s.start.elapsed().as_secs_f64() * 1e3;
    drop(s);
    (r, ms)
}

/// Every span recorded so far.
pub fn records() -> Vec<SpanRecord> {
    RECORDS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Nanoseconds of each span covered by its direct children.
fn child_cover(records: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if r.parent != 0 {
            *child_ns.entry(r.parent).or_default() += r.dur_ns;
        }
    }
    child_ns
}

/// Per-name self times in nanoseconds, one entry per span occurrence.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<&'static str, Vec<u64>> {
    let child_ns = child_cover(records);
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for r in records {
        let covered = child_ns.get(&r.id).copied().unwrap_or(0);
        out.entry(r.name)
            .or_default()
            .push(r.dur_ns.saturating_sub(covered));
    }
    out
}

/// Writes every record as one tab-separated line (header first).
pub fn write_tsv(path: &std::path::Path, records: &[SpanRecord]) -> std::io::Result<()> {
    let child_ns = child_cover(records);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tthread\tname\tstart_ns\tdur_ns\tself_ns")?;
    for r in records {
        let covered = child_ns.get(&r.id).copied().unwrap_or(0);
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.id,
            r.parent,
            r.thread,
            r.name,
            r.start_ns,
            r.dur_ns,
            r.dur_ns.saturating_sub(covered)
        )?;
    }
    w.flush()
}
