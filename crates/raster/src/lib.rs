//! # canvas-raster
//!
//! A from-scratch **software graphics pipeline** standing in for the
//! OpenGL pipeline used by the prototype in *"A GPU-friendly Geometric
//! Data Model and Algebra for Spatial Queries"* (Doraiswamy & Freire,
//! SIGMOD 2020).
//!
//! The paper's whole thesis is that spatial operators become fast when
//! they lower onto the handful of operations GPUs are built for:
//! rendering geometry into textures, blending textures, and running
//! per-pixel passes. This crate provides exactly those operations in
//! software, with the same dataflow and the same conservative-
//! rasterization accuracy story, so the algebra layer (`canvas-core`)
//! is written against a faithful pipeline even though this machine has
//! no GPU:
//!
//! * [`texture::Texture`] — off-screen framebuffers of generic texels,
//! * [`viewport::Viewport`] — the projection/viewport transform,
//! * [`rasterize`] — point / supercover-line / triangle / scanline-fill
//!   coverage kernels (standard + conservative modes),
//! * [`pipeline::Pipeline`] — draw calls with programmable fragment
//!   shading and blending, full-screen passes, scatter passes,
//! * [`tile`] — the fixed-size tile decomposition behind the tiled draw
//!   paths (`draw_points_tiled`, `draw_polygons_tiled`, `draw_polylines_tiled`):
//!   primitives are binned to 64×64 tiles and each tile is rasterized
//!   independently on a **persistent worker pool** (the
//!   `canvas-executor` crate — spawned once per `Device`, parked
//!   between passes, joined on drop), with finished tiles streamed
//!   through a bounded channel and blitted in fixed tile order so
//!   results are bit-identical at any thread count and peak memory
//!   stays capped at huge resolutions,
//! * [`stats::PipelineStats`] + [`device::DeviceProfile`] — work
//!   counting and the calibrated cost model that substitutes for the
//!   paper's two physical GPUs (see `docs/ARCHITECTURE.md` for the
//!   substitution rationale).

pub mod chain;
pub mod device;
pub mod pipeline;
pub mod rasterize;
pub mod simd;
pub mod stats;
pub mod texture;
pub mod tile;
pub mod viewport;

pub use canvas_executor::{
    live_worker_count, Calibration, Policy, SchedulerStats, TicketId, WorkerPool,
};
pub use chain::{ChainOp, ChainRunReport, MaskOutcome, OpChain};
pub use device::DeviceProfile;
pub use pipeline::{Frag, PatchReport, Pipeline};
pub use rasterize::RasterMode;
pub use simd::{Backend, BlendTag, MaskTag, TexelWords, ValueTag};
pub use stats::PipelineStats;
pub use texture::Texture;
pub use tile::{TileGrid, TileRect, TILE_SIZE};
pub use viewport::Viewport;
