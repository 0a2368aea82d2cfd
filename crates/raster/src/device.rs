//! Device profiles and the GPU cost model.
//!
//! **Substitution note (see `docs/ARCHITECTURE.md`).** The paper evaluates on two
//! physical GPUs — a discrete *Nvidia GTX 1070 Max-Q* and an integrated
//! *Intel UHD Graphics 630* — inside an i7-8750H laptop. This container
//! has one CPU core and no GPU, so hardware wall-clock cannot reproduce
//! those numbers. Instead, every pipeline operation counts its work
//! ([`PipelineStats`]) and a [`DeviceProfile`] converts the counts into
//! *modeled* execution time using published throughput figures for each
//! device. Wall-clock of the software pipeline is reported alongside the
//! model in every experiment, clearly labeled.
//!
//! The constants below are derived from vendor datasheets and common
//! measured rates:
//!
//! * GTX 1070 Max-Q: ~1.3 GHz × 2048 cores ≈ 5.3 TFLOP/s, 64 ROPs
//!   (≈80 Gpix/s theoretical fill; we model an effective shaded+blended
//!   fragment rate of 18 G/s), PCIe 3.0 ×16 ≈ 11 GB/s effective.
//! * UHD 630: 24 EUs ≈ 0.4 TFLOP/s, ~2–3 Gpix/s fill (modeled 1.4 G/s
//!   effective), shared DDR4 memory ≈ 8 GB/s effective for buffer "uploads".
//! * CPU figures model one core of the paper's i7-8750H (scalar) and all
//!   six cores with OpenMP-style scaling (parallel).
//!
//! Only *ratios* matter for the reproduction: the model must preserve who
//! wins and by roughly what factor (Figures 9 & 10), not absolute times.

use crate::stats::PipelineStats;
use std::borrow::Cow;
use std::fmt;

/// Throughput description of an execution device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name (appears in experiment output).
    pub name: Cow<'static, str>,
    /// Vertices transformed per second.
    pub vertex_rate: f64,
    /// Fragments shaded *and* blended per second (raster passes).
    pub fragment_rate: f64,
    /// Texels streamed per second in full-screen passes.
    pub fullscreen_rate: f64,
    /// Scatter operations per second (atomic-blend limited).
    pub scatter_rate: f64,
    /// Host↔device transfer bandwidth, bytes per second.
    pub transfer_bandwidth: f64,
    /// Fixed overhead per pass (driver/dispatch latency), seconds.
    pub pass_overhead: f64,
    /// Point-in-polygon edge tests per second in compute kernels
    /// (the traditional GPU baseline's work unit).
    pub edge_test_rate: f64,
}

impl DeviceProfile {
    /// The discrete laptop GPU of the paper's evaluation.
    pub fn nvidia_gtx_1070_max_q() -> Self {
        DeviceProfile {
            name: Cow::Borrowed("Nvidia GTX 1070 Max-Q (modeled)"),
            vertex_rate: 4.5e9,
            fragment_rate: 18.0e9,
            fullscreen_rate: 30.0e9,
            scatter_rate: 4.0e9,
            transfer_bandwidth: 11.0e9,
            pass_overhead: 25.0e-6,
            edge_test_rate: 25.0e9,
        }
    }

    /// The integrated GPU of the paper's evaluation.
    pub fn intel_uhd_630() -> Self {
        DeviceProfile {
            name: Cow::Borrowed("Intel UHD Graphics 630 (modeled)"),
            vertex_rate: 0.45e9,
            fragment_rate: 1.4e9,
            fullscreen_rate: 2.4e9,
            scatter_rate: 0.35e9,
            transfer_bandwidth: 8.0e9,
            pass_overhead: 40.0e-6,
            edge_test_rate: 1.6e9,
        }
    }

    /// One core of the paper's i7-8750H running the scalar refinement —
    /// the denominator of every speedup in Figures 9 & 10.
    pub fn cpu_scalar() -> Self {
        DeviceProfile {
            name: Cow::Borrowed("CPU 1 thread (modeled i7-8750H core)"),
            vertex_rate: 60.0e6,
            fragment_rate: 120.0e6,
            fullscreen_rate: 500.0e6,
            scatter_rate: 150.0e6,
            transfer_bandwidth: 25.0e9, // in-memory copy
            pass_overhead: 0.5e-6,
            edge_test_rate: 220.0e6,
        }
    }

    /// All six cores with OpenMP-style scaling (the paper's parallel
    /// CPU baseline); ~5.2× effective over one core.
    pub fn cpu_parallel() -> Self {
        let base = Self::cpu_scalar();
        DeviceProfile {
            name: Cow::Borrowed("CPU 12 threads OpenMP (modeled i7-8750H)"),
            vertex_rate: base.vertex_rate * 5.2,
            fragment_rate: base.fragment_rate * 5.2,
            fullscreen_rate: base.fullscreen_rate * 4.0, // memory bound
            scatter_rate: base.scatter_rate * 4.0,
            transfer_bandwidth: base.transfer_bandwidth,
            pass_overhead: 4.0e-6, // fork/join cost
            edge_test_rate: base.edge_test_rate * 5.2,
        }
    }

    /// `n`-thread CPU running the tiled software pipeline — the profile
    /// behind `Device::cpu_parallel(n)`. Compute rates scale with ~72%
    /// parallel efficiency per added thread (fork/join + binning
    /// overhead) and saturate at the 5.2× the calibrated 6-core
    /// [`cpu_parallel`](Self::cpu_parallel) profile tops out at, so
    /// thread counts beyond the modeled part's cores cannot out-model
    /// the hardware; memory-bound full-screen rates saturate at 4×
    /// likewise.
    pub fn cpu_parallel_n(threads: usize) -> Self {
        let threads = threads.max(1);
        let base = Self::cpu_scalar();
        let compute = (1.0 + 0.72 * (threads as f64 - 1.0)).min(5.2);
        let memory = (1.0 + 0.5 * (threads as f64 - 1.0)).min(4.0);
        let name = if threads == 1 {
            Cow::Borrowed("CPU 1 thread tiled (modeled)")
        } else {
            Cow::Owned(format!("CPU {threads} threads tiled (modeled)"))
        };
        DeviceProfile {
            name,
            vertex_rate: base.vertex_rate * compute,
            fragment_rate: base.fragment_rate * compute,
            fullscreen_rate: base.fullscreen_rate * memory,
            scatter_rate: base.scatter_rate * memory,
            transfer_bandwidth: base.transfer_bandwidth,
            pass_overhead: if threads == 1 {
                base.pass_overhead
            } else {
                4.0e-6
            },
            edge_test_rate: base.edge_test_rate * compute,
        }
    }

    /// Modeled execution time, in seconds, for the counted work.
    pub fn estimate(&self, stats: &PipelineStats) -> f64 {
        stats.passes as f64 * self.pass_overhead
            + stats.vertices as f64 / self.vertex_rate
            + stats.fragments as f64 / self.fragment_rate
            + stats.fullscreen_texels as f64 / self.fullscreen_rate
            + (stats.scatter_reads + stats.scatter_writes) as f64 / self.scatter_rate
            + (stats.bytes_uploaded + stats.bytes_downloaded) as f64 / self.transfer_bandwidth
            + stats.compute_edge_tests as f64 / self.edge_test_rate
    }

    /// Transfer-only component of the estimate (the paper highlights that
    /// CPU↔GPU transfer is a significant, approach-independent fraction).
    pub fn transfer_time(&self, stats: &PipelineStats) -> f64 {
        (stats.bytes_uploaded + stats.bytes_downloaded) as f64 / self.transfer_bandwidth
    }

    /// Compute-only component (estimate minus transfer).
    pub fn compute_time(&self, stats: &PipelineStats) -> f64 {
        self.estimate(stats) - self.transfer_time(stats)
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper-scale workload: hundreds of millions of point fragments
    /// (Figure 9 runs up to 571 M points in the query MBR).
    fn work() -> PipelineStats {
        PipelineStats {
            passes: 4,
            vertices: 500_000_000,
            fragments: 500_000_000,
            fullscreen_texels: 2_000_000,
            scatter_reads: 0,
            scatter_writes: 0,
            bytes_uploaded: 500_000_000 * 8,
            compute_edge_tests: 0,
            ..Default::default()
        }
    }

    #[test]
    fn gpu_faster_than_cpu_on_fragment_work() {
        let w = work();
        let nv_dev = DeviceProfile::nvidia_gtx_1070_max_q();
        let nv = nv_dev.estimate(&w);
        let intel = DeviceProfile::intel_uhd_630().estimate(&w);
        let cpu_dev = DeviceProfile::cpu_scalar();
        let cpu = cpu_dev.estimate(&w);
        assert!(nv < intel, "discrete beats integrated");
        assert!(intel < cpu, "integrated beats scalar CPU");
        // Pure compute ratio (identical fragment workload) is ~2 orders
        // of magnitude; the paper's end-to-end >100x additionally comes
        // from the CPU baseline doing K edge tests per point where the
        // canvas does one fragment — that is asserted in the experiment
        // harness, not here.
        let ratio = cpu_dev.compute_time(&w) / nv_dev.compute_time(&w);
        assert!(ratio > 80.0, "compute ratio was {ratio}");
        // Even with transfer included the discrete GPU wins big.
        assert!(cpu / nv > 20.0, "total speedup was {}", cpu / nv);
    }

    #[test]
    fn parallel_cpu_between_scalar_and_gpu() {
        let w = work();
        let par = DeviceProfile::cpu_parallel().estimate(&w);
        let scalar = DeviceProfile::cpu_scalar().estimate(&w);
        let nv = DeviceProfile::nvidia_gtx_1070_max_q().estimate(&w);
        assert!(par < scalar);
        assert!(nv < par);
        let speedup = scalar / par;
        assert!(
            (3.0..=6.0).contains(&speedup),
            "parallel speedup {speedup} outside OpenMP-plausible band"
        );
    }

    #[test]
    fn parallel_n_scales_monotonically_and_saturates() {
        let w = work();
        let t1 = DeviceProfile::cpu_parallel_n(1).estimate(&w);
        let t2 = DeviceProfile::cpu_parallel_n(2).estimate(&w);
        let t8 = DeviceProfile::cpu_parallel_n(8).estimate(&w);
        assert!(t2 < t1 && t8 < t2, "more threads must model faster");
        // ≥ 3x at 8 threads on fragment-dominated work (the tiled
        // pipeline's acceptance bar), but never beyond the calibrated
        // 6-core ceiling: 16 or 64 threads cannot out-model the
        // OpenMP-calibrated cpu_parallel() profile.
        assert!(t1 / t8 >= 3.0, "8-thread modeled speedup {}", t1 / t8);
        let t12 = DeviceProfile::cpu_parallel_n(12).estimate(&w);
        let t64 = DeviceProfile::cpu_parallel_n(64).estimate(&w);
        assert_eq!(t12, t64, "compute scaling must saturate");
        let calibrated = DeviceProfile::cpu_parallel().estimate(&w);
        assert!(
            (t12 - calibrated).abs() / calibrated < 0.25,
            "saturated tiled profile {t12} strays from calibrated {calibrated}"
        );
    }

    #[test]
    fn transfer_dominates_when_compute_tiny() {
        // 571M-point upload with negligible compute: transfer must be a
        // significant fraction (paper Section 6 observation).
        let stats = PipelineStats {
            passes: 2,
            bytes_uploaded: 571_000_000 * 8,
            fragments: 1_000_000,
            ..Default::default()
        };
        let nv = DeviceProfile::nvidia_gtx_1070_max_q();
        let total = nv.estimate(&stats);
        let transfer = nv.transfer_time(&stats);
        assert!(transfer / total > 0.5);
        assert!((nv.compute_time(&stats) + transfer - total).abs() < 1e-12);
    }

    #[test]
    fn edge_tests_charged_to_compute_kernel() {
        let stats = PipelineStats {
            compute_edge_tests: 1_000_000_000,
            ..Default::default()
        };
        let nv = DeviceProfile::nvidia_gtx_1070_max_q().estimate(&stats);
        let cpu = DeviceProfile::cpu_scalar().estimate(&stats);
        assert!(cpu / nv > 50.0);
    }

    #[test]
    fn zero_work_costs_zero() {
        let z = PipelineStats::default();
        assert_eq!(DeviceProfile::nvidia_gtx_1070_max_q().estimate(&z), 0.0);
    }
}
