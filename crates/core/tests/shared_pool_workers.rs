//! A `SharedDevice` spawns one worker pool, and every lease it hands
//! out runs on that same pool — leasing spawns no further workers, and
//! dropping the shared device joins them all.
//!
//! This file holds exactly one test so the process-wide worker count is
//! not perturbed by sibling tests in the same binary.

use canvas_core::SharedDevice;
use std::sync::Arc;

#[test]
fn shared_device_leases_share_one_pool() {
    let before = canvas_raster::live_worker_count();
    {
        let shared = SharedDevice::cpu_parallel(3);
        assert_eq!(canvas_raster::live_worker_count(), before + 2);
        let a = shared.lease();
        let b = shared.lease();
        // No additional workers were spawned for the leases.
        assert_eq!(canvas_raster::live_worker_count(), before + 2);
        assert!(Arc::ptr_eq(a.pool(), b.pool()));
        shared.reclaim(a);
        shared.reclaim(b);
    }
    assert_eq!(canvas_raster::live_worker_count(), before);
}
