//! Streaming produce/merge passes with bounded in-flight memory.
//!
//! The tiled draw paths used to materialize **every** tile buffer
//! before a sequential blit; at huge resolutions that peaks at the full
//! framebuffer again, defeating the point of tiling. A streaming pass
//! instead lets workers publish finished items through a claim-gated
//! channel while the calling thread merges them **in item order** —
//! the merge order (and therefore the result) is identical to the
//! sequential run, but at most `Policy::stream_window(workers)` items
//! exist unmerged at any instant.
//!
//! The gate is on *claims*, not just queue capacity: a producer may not
//! start item `i` until `i < merged + window`, so even pathological
//! skew (one huge tile stalling the merge frontier while tiny tiles
//! race ahead) cannot accumulate more than `window` finished items.
//!
//! A fused operator chain (`draw → [op]*`) runs every operator inside
//! `produce`: one executor renders a tile and applies the whole chain
//! to it before publishing, the CPU analogue of one fragment-shader
//! pass per tile. Every executor shares the same cores, so handing a
//! tile between threads once per operator would buy no overlap.

use crate::pool::WorkerPool;
use canvas_obs as obs;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Outcome of a streaming pass: how deep the in-flight window actually
/// got. `peak_in_flight` counts claimed-but-unmerged items (the live
/// tile buffers of a chain run) and is the number the fused-chain
/// memory gate asserts against `Policy::stream_window`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Items that flowed through the pass.
    pub items: usize,
    /// High-water mark of claimed-but-unmerged items.
    pub peak_in_flight: usize,
}

struct StreamState<T> {
    next_claim: usize,
    merged: usize,
    peak_live: usize,
    /// Produced items awaiting the in-order merge. Bounded by the claim
    /// gate: at most `window` items exist past the merge frontier.
    ready: BTreeMap<usize, T>,
    poisoned: bool,
}

/// Claim-gated reorder channel between producers and the merging
/// caller (see module docs).
struct StreamGate<T> {
    state: Mutex<StreamState<T>>,
    /// Producers wait here for the merge frontier to free a claim.
    can_claim: Condvar,
    /// The merger waits here for produced items.
    has_ready: Condvar,
    n: usize,
    window: usize,
}

/// What the merging caller does next.
enum Next<T> {
    /// The next in-order item is ready: merge it.
    Merge(T),
    /// The frontier is not ready but the window allows a claim: produce
    /// item `i` here rather than idle.
    Produce(usize),
}

impl<T> StreamGate<T> {
    fn new(n: usize, window: usize) -> Self {
        StreamGate {
            state: Mutex::new(StreamState {
                next_claim: 0,
                merged: 0,
                peak_live: 0,
                ready: BTreeMap::new(),
                poisoned: false,
            }),
            can_claim: Condvar::new(),
            has_ready: Condvar::new(),
            n,
            // A window of 0 would deadlock the claim gate (no item
            // could ever be claimed); clamp rather than hang. See
            // `Policy::stream_window`, which applies the same floor.
            window: window.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StreamState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Claims the next item if the window allows.
    fn try_claim(&self, st: &mut StreamState<T>) -> Option<usize> {
        if st.next_claim < self.n && st.next_claim < st.merged + self.window {
            let i = st.next_claim;
            st.next_claim += 1;
            st.peak_live = st.peak_live.max(st.next_claim - st.merged);
            return Some(i);
        }
        None
    }

    /// Blocking claim for background producers. `None` once every item
    /// is claimed or the pass is poisoned.
    fn claim(&self) -> Option<usize> {
        let mut st = self.lock();
        loop {
            if st.poisoned || st.next_claim >= self.n {
                return None;
            }
            if let Some(i) = self.try_claim(&mut st) {
                return Some(i);
            }
            st = self
                .can_claim
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Merger side: the frontier item if it is ready, else a fresh
    /// claim to produce, else waits. `None` when the pass is poisoned.
    fn next_for_merger(&self) -> Option<Next<T>> {
        let mut st = self.lock();
        loop {
            if st.poisoned {
                return None;
            }
            let frontier = st.merged;
            if let Some(v) = st.ready.remove(&frontier) {
                return Some(Next::Merge(v));
            }
            if let Some(i) = self.try_claim(&mut st) {
                return Some(Next::Produce(i));
            }
            st = self
                .has_ready
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Publishes item `i` for the in-order merge.
    fn publish(&self, i: usize, value: T) {
        self.lock().ready.insert(i, value);
        self.has_ready.notify_all();
    }

    /// Marks the frontier item merged, freeing a claim slot.
    fn note_merged(&self) {
        self.lock().merged += 1;
        self.can_claim.notify_all();
    }

    /// Aborts the pass: producers stop claiming, the merger stops
    /// waiting. Used on either-side panic so nobody deadlocks.
    fn poison(&self) {
        self.lock().poisoned = true;
        self.can_claim.notify_all();
        self.has_ready.notify_all();
    }
}

impl WorkerPool {
    /// Streaming pass: executors run `produce(i)` for `i ∈ 0..n`
    /// (dynamically claimed) while the calling thread runs
    /// `merge(i, item)` **strictly in ascending `i` order** — the same
    /// order, and therefore the same result, as the sequential
    /// `for i { merge(i, produce(i)) }` loop at any thread count.
    ///
    /// The claim gate bounds claimed-but-unmerged items to
    /// `policy.stream_window(workers)`, which caps peak memory when
    /// items are large (tile framebuffers); the returned
    /// [`StreamReport`] carries the observed high-water mark for the
    /// fused-chain memory gate. The caller produces items itself
    /// whenever the next in-order item is not ready, so no executor
    /// idles while the window has room.
    ///
    /// With no background workers the sequential loop runs verbatim —
    /// one item lives at a time, the tightest possible memory bound.
    pub fn run_streaming<T, F, M>(&self, n: usize, produce: F, mut merge: M) -> StreamReport
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        M: FnMut(usize, T),
    {
        let mut stream_span = obs::span("stream_chain", "executor");
        stream_span.arg_u64("items", n as u64);
        let produce_traced = |i: usize| {
            let mut s = obs::span("tile_produce", "executor");
            s.arg_u64("item", i as u64);
            produce(i)
        };
        if self.worker_count() == 0 || n <= 1 {
            for i in 0..n {
                merge(i, produce_traced(i));
            }
            return StreamReport {
                items: n,
                peak_in_flight: n.min(1),
            };
        }
        let gate = StreamGate::new(n, self.policy().stream_window(self.worker_count()));
        let executor = || {
            while let Some(i) = gate.claim() {
                match catch_unwind(AssertUnwindSafe(|| produce_traced(i))) {
                    Ok(v) => gate.publish(i, v),
                    Err(payload) => {
                        gate.poison();
                        resume_unwind(payload);
                    }
                }
            }
        };
        // The dispatch is done by hand: publish the producer job to the
        // workers, run the merge/help loop here, then quiesce
        // (poisoning on a caller-side panic so blocked producers drain).
        self.run_split_pass(&executor, || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut done = 0;
                while done < n {
                    match gate.next_for_merger() {
                        None => break, // poisoned: a producer panicked
                        Some(Next::Merge(v)) => {
                            merge(done, v);
                            done += 1;
                            gate.note_merged();
                        }
                        Some(Next::Produce(i)) => gate.publish(i, produce_traced(i)),
                    }
                }
            }));
            if outcome.is_err() {
                gate.poison();
            }
            outcome
        });
        let peak_in_flight = gate.lock().peak_live;
        StreamReport {
            items: n,
            peak_in_flight,
        }
    }
}
