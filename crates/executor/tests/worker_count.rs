//! Worker-count accounting of the pool: `threads = n` spawns exactly
//! `n - 1` background workers, and dropping the pool joins them all.
//!
//! These tests read the process-wide [`live_worker_count`], so they
//! live in their own test binary (no sibling test spawns or drops
//! pools concurrently) and hold a file-local lock against each other.

use canvas_executor::{live_worker_count, WorkerPool};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn single_thread_pool_spawns_no_workers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = live_worker_count();
    let pool = WorkerPool::new(1);
    assert_eq!(pool.worker_count(), 0);
    assert_eq!(live_worker_count(), before);
    assert_eq!(pool.run_indexed(10, |i| i), (0..10).collect::<Vec<_>>());
}

#[test]
fn drop_joins_all_workers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = live_worker_count();
    {
        let pool = WorkerPool::new(5);
        assert_eq!(pool.worker_count(), 4);
        assert_eq!(live_worker_count(), before + 4);
        let _ = pool.run_indexed(10, |i| i);
    }
    assert_eq!(live_worker_count(), before, "workers leaked after drop");
}
