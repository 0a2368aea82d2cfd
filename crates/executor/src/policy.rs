//! The pool's scheduling policy — every tunable in one place.
//!
//! Before the executor existed, each raster band helper carried its own
//! copy of the minimum-work threshold; centralizing the knobs here
//! means every canvas operator (Blend, Mask, Value Transform, scatter,
//! the tiled draws) shares one tuning surface.

/// Default for [`Policy::min_parallel_items`]. Below this many texels a
/// full-screen pass runs inline: waking pool workers (a few
/// microseconds per pass — far cheaper than OS-thread spawn, but not
/// free) would exceed the work itself on small planes such as 64×64
/// group viewports. The decomposition is deterministic either way, so
/// the threshold can never affect results, only wall clock.
pub const MIN_PARALLEL_ITEMS: usize = 1 << 16;

/// Default for [`Policy::stream_window_per_worker`].
pub const STREAM_WINDOW_PER_WORKER: usize = 2;

/// Default for [`Policy::pass_quantum`]: how many consecutive passes
/// one ticket may be granted at the fair gate while other tickets
/// wait, before the scheduler hands the gate to the longest-waiting
/// different ticket. Small enough that a concurrent query never sits
/// behind more than a few operator passes of another plan; large
/// enough that a query's tightly-coupled pass bursts (bin → draw →
/// blit) usually stay together.
pub const PASS_QUANTUM: u64 = 4;

/// Tunables consulted by every [`WorkerPool`](crate::WorkerPool)
/// scheduling decision.
///
/// # Examples
///
/// Override one knob and keep the rest at their defaults:
///
/// ```
/// use canvas_executor::{Policy, WorkerPool};
///
/// let policy = Policy {
///     min_parallel_items: 1 << 12, // parallelize smaller passes
///     ..Policy::default()
/// };
/// // Streaming passes bound their in-flight items per worker.
/// assert_eq!(policy.stream_window(4), 4 * policy.stream_window_per_worker);
/// let pool = WorkerPool::with_policy(2, policy);
/// assert!(pool.should_parallelize(1 << 12));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Policy {
    /// Full-screen passes over fewer items than this run inline on the
    /// calling thread (see [`MIN_PARALLEL_ITEMS`]). Consulted via
    /// `WorkerPool::should_parallelize` by the band helpers, whose
    /// items are texels; the coarse-item passes (`run_indexed`,
    /// `for_each_chunk`, `run_streaming`) gate only on `n <= 1` and
    /// leave granularity to their callers.
    pub min_parallel_items: usize,
    /// Streaming passes allow at most `window_per_worker × workers`
    /// produced-but-unmerged items in flight (claim-gated), which is
    /// what caps peak memory of the streaming tile merge.
    pub stream_window_per_worker: usize,
    /// Fair-gate quantum: consecutive passes one ticket may hold the
    /// gate for while other tickets wait (see
    /// [`SchedulerStats`](crate::SchedulerStats) and [`PASS_QUANTUM`]).
    /// 0 is treated as 1 — every pass re-arbitrates.
    pub pass_quantum: u64,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            min_parallel_items: MIN_PARALLEL_ITEMS,
            stream_window_per_worker: STREAM_WINDOW_PER_WORKER,
            pass_quantum: PASS_QUANTUM,
        }
    }
}

impl Policy {
    /// In-flight window (in items) for a streaming pass on `workers`
    /// concurrent producers. Never below 1: a window of 0 would
    /// deadlock the claim gate (no item could ever be claimed past the
    /// merge frontier), so a misconfigured
    /// [`stream_window_per_worker`](Self::stream_window_per_worker) of
    /// 0 is clamped to a window of 1 — fully serialized produce→merge,
    /// slow but correct — instead of hanging. With the default
    /// per-worker factor the window is at least 2, so a producer can
    /// always run one item ahead of the merger.
    pub fn stream_window(&self, workers: usize) -> usize {
        (self.stream_window_per_worker * workers.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_constants() {
        let p = Policy::default();
        assert_eq!(p.min_parallel_items, MIN_PARALLEL_ITEMS);
        assert_eq!(p.pass_quantum, PASS_QUANTUM);
        assert_eq!(p.stream_window(4), 8);
        assert_eq!(p.stream_window(0), 2);
    }

    #[test]
    fn zero_window_clamped_not_deadlocking() {
        // A per-worker window factor of 0 would make the claim gate
        // admit nothing; it must clamp to 1 (serialized but correct),
        // never to 0.
        let p = Policy {
            stream_window_per_worker: 0,
            ..Policy::default()
        };
        assert_eq!(p.stream_window(1), 1);
        assert_eq!(p.stream_window(8), 1);
    }
}
