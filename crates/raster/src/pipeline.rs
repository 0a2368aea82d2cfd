//! The programmable pipeline: draw calls, full-screen passes, scatter.
//!
//! This is the software stand-in for the OpenGL pipeline of the paper's
//! prototype. Each operation mirrors a GPU-native stage:
//!
//! | paper / OpenGL                      | here                         |
//! |-------------------------------------|------------------------------|
//! | render geometry to off-screen buffer| [`Pipeline::draw_points`], [`Pipeline::draw_polyline`], [`Pipeline::draw_polygon`], [`Pipeline::draw_triangles`] |
//! | alpha blending of textures          | [`Pipeline::blend_into`]     |
//! | per-pixel parallel test (mask)      | [`Pipeline::map_texels`]     |
//! | vertex scatter (transform feedback) | [`Pipeline::scatter`]        |
//!
//! Every fragment is shaded by a caller-supplied closure and merged into
//! the framebuffer through a caller-supplied *blend function* — exactly
//! the programmable blend `⊙ : S³ × S³ → S³` of the algebra. All work is
//! counted in [`PipelineStats`] for the device cost model.

use crate::chain::{apply_chain_inplace, ChainOp, ChainRunReport, MaskOutcome, OpChain, TileBits};
use crate::rasterize::{
    rasterize_line_supercover, rasterize_point, rasterize_polygon_fill,
    rasterize_polygon_fill_rect_spans, rasterize_triangle, RasterMode,
};
use crate::simd::{self, BlendTag, TexelWords, ValueTag};
use crate::stats::PipelineStats;
use crate::texture::{RawTexels, Texture};
use crate::tile::{TileGrid, TileRect};
use crate::viewport::Viewport;
use canvas_executor::WorkerPool;
use canvas_geom::polygon::Polygon;
use canvas_geom::polyline::Polyline;
use canvas_geom::Point;
use canvas_obs as obs;
use std::sync::Arc;

/// Opens a draw-level trace span tagged with the active SIMD backend
/// and workload shape (no-op unless tracing is enabled).
fn draw_span(name: &'static str, primitives: usize, chain_ops: usize) -> obs::Span {
    let mut span = obs::span(name, "raster");
    if span.is_recording() {
        span.arg_u64("primitives", primitives as u64);
        span.arg_u64("chain_ops", chain_ops as u64);
        span.arg_str("simd_backend", || simd::active_backend().name().to_string());
    }
    span
}

/// Runs every `chain` operator over one rendered tile, in chain order,
/// each under its own raster span (`V[f]`, `B[⊙]`, `M[M]`) tagged with
/// the tile — the fused chain's per-tile kernel (`run_chain_*`).
fn apply_chain_tile<P: Copy + Default>(
    chain: &OpChain<'_, P>,
    t: usize,
    rect: TileRect,
    tex: &mut [P],
    mut cov: Option<&mut [u16]>,
    bits: &mut [TileBits],
) {
    for (s, op) in chain.ops().iter().enumerate() {
        let mut span = obs::span(op.label(), "raster");
        span.arg_u64("tile", t as u64);
        chain.apply_tile(s, rect, tex, cov.as_deref_mut(), bits);
    }
}

/// A shaded fragment's rasterizer-provided context.
#[derive(Clone, Copy, Debug)]
pub struct Frag {
    /// Pixel coordinates in the target framebuffer.
    pub x: u32,
    pub y: u32,
    /// True when the fragment lies on conservative boundary coverage and
    /// therefore needs exact refinement (paper Section 5).
    pub boundary: bool,
}

/// Outcome of one [`Pipeline::patch_points_tiled`] call: how much of
/// the framebuffer an incremental delta actually touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchReport {
    /// Tiles that received at least one delta point and were redrawn.
    pub dirty_tiles: usize,
    /// Total tiles of the framebuffer's grid.
    pub total_tiles: usize,
    /// In-viewport delta points blended.
    pub fragments: u64,
}

/// The software graphics pipeline. Owns work counters and scratch
/// buffers; framebuffers ([`Texture`]s) are passed per call.
#[derive(Debug)]
pub struct Pipeline {
    stats: PipelineStats,
    /// Generation-stamped visited marks for exactly-once fragment
    /// emission within a single polygon/polyline draw (O(1) reset).
    stamps: Vec<u32>,
    generation: u32,
    /// Checked-out/checked-in generation-stamped stamp planes for the
    /// chunk-parallel fragment visitor — reused across calls so the
    /// aggregation hot path never re-allocates or re-zeroes a
    /// full-viewport plane per chunk (the same O(1)-reset trick as
    /// `stamps`, one buffer per concurrent executor).
    fragment_scratch: std::sync::Mutex<Vec<StampPlane>>,
    /// The persistent executor behind every tiled draw and parallel
    /// full-screen pass. Workers are spawned once (`set_threads`) and
    /// parked between passes; a 1-thread pool spawns nothing and runs
    /// the identical decomposition inline (results are bit-identical
    /// at any thread count by construction).
    pool: Arc<WorkerPool>,
}

/// A reusable generation-stamped visited plane (see
/// [`Pipeline::visit_polygon_fragments`]).
#[derive(Debug, Default)]
struct StampPlane {
    stamps: Vec<u32>,
    gen: u32,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            stats: PipelineStats::default(),
            stamps: Vec::new(),
            generation: 0,
            fragment_scratch: std::sync::Mutex::new(Vec::new()),
            pool: Arc::new(WorkerPool::new(1)),
        }
    }
}

impl Pipeline {
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Sets the worker count used by the tiled draw paths and parallel
    /// full-screen passes (set from `Device::cpu_parallel`) by
    /// replacing the pipeline's worker pool. The old pool's workers
    /// are joined; the new pool's are spawned once, here, and reused
    /// by every subsequent pass.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.pool.threads() {
            self.pool = Arc::new(WorkerPool::new(threads));
        }
    }

    /// Shares an existing worker pool (e.g. between pipelines of one
    /// process) instead of spawning a fresh one.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = pool;
    }

    /// The persistent worker pool executing this pipeline's passes.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Snapshot of the cumulative work counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
    }

    /// Records a host→device buffer upload (geometry, attributes).
    pub fn note_upload(&mut self, bytes: u64) {
        self.stats.bytes_uploaded += bytes;
    }

    /// Records a device→host readback (result extraction).
    pub fn note_download(&mut self, bytes: u64) {
        self.stats.bytes_downloaded += bytes;
    }

    /// Records edge tests performed by a compute-style kernel (used by
    /// the traditional GPU PIP baseline).
    pub fn note_compute_edge_tests(&mut self, count: u64) {
        self.stats.compute_edge_tests += count;
    }

    fn begin_pass(&mut self) {
        self.stats.passes += 1;
    }

    fn fresh_generation(&mut self, len: usize) -> u32 {
        if self.stamps.len() < len {
            self.stamps.resize(len, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: clear all stamps once and restart at 1.
            self.stamps.fill(0);
            self.generation = 1;
        }
        self.generation
    }

    /// Clears a framebuffer (glClear).
    pub fn clear<P: Copy + Default>(&mut self, fb: &mut Texture<P>) {
        self.begin_pass();
        self.stats.fullscreen_texels += fb.len() as u64;
        fb.clear();
    }

    /// Draws a batch of points: each point shades one fragment which is
    /// blended into the framebuffer. Coincident points blend repeatedly —
    /// that is what makes `B*[+]` accumulation work.
    pub fn draw_points<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        points: &[Point],
        mut shade: S,
        blend: B,
    ) where
        P: Copy + Default,
        S: FnMut(u32, Point) -> P,
        B: Fn(P, P) -> P,
    {
        self.begin_pass();
        self.stats.vertices += points.len() as u64;
        self.stats.primitives += points.len() as u64;
        let mut fragments = 0u64;
        for (i, &p) in points.iter().enumerate() {
            rasterize_point(vp, p, |x, y| {
                let src = shade(i as u32, p);
                fb.update(x, y, |dst| blend(dst, src));
                fragments += 1;
            });
        }
        self.stats.fragments += fragments;
        self.stats.boundary_fragments += fragments; // points always need exact coords
        self.stats.blend_ops += fragments;
    }

    /// Draws a polyline with supercover (conservative) coverage. Each
    /// touched pixel is shaded exactly once per draw call.
    pub fn draw_polyline<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        line: &Polyline,
        mut shade: S,
        blend: B,
    ) where
        P: Copy + Default,
        S: FnMut(Frag) -> P,
        B: Fn(P, P) -> P,
    {
        self.begin_pass();
        let nverts = line.vertices().len() as u64;
        self.stats.vertices += nverts;
        self.stats.primitives += line.num_segments() as u64;
        let gen = self.fresh_generation(fb.len());
        let mut fragments = 0u64;
        let stamps = &mut self.stamps;
        for seg in line.segments() {
            rasterize_line_supercover(vp, seg.a, seg.b, |x, y| {
                let idx = (y as usize) * (vp.width() as usize) + x as usize;
                if stamps[idx] != gen {
                    stamps[idx] = gen;
                    let frag = Frag {
                        x,
                        y,
                        boundary: true,
                    };
                    let src = shade(frag);
                    fb.update(x, y, |dst| blend(dst, src));
                    fragments += 1;
                }
            });
        }
        self.stats.fragments += fragments;
        self.stats.boundary_fragments += fragments;
        self.stats.blend_ops += fragments;
    }

    /// Draws a filled polygon (outer ring minus holes).
    ///
    /// Two sub-passes with exactly-once emission per pixel:
    /// 1. conservative boundary coverage of every ring edge
    ///    (`boundary = true` fragments — these are the pixels the mask
    ///    operator later refines against the exact vector data),
    /// 2. scanline interior fill at pixel centers for pixels not already
    ///    claimed by the boundary (`boundary = false`).
    ///
    /// With `conservative = false` the boundary pass is skipped and only
    /// center-sampled coverage is produced (the paper's "approximate
    /// result suffices" mode).
    pub fn draw_polygon<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        poly: &Polygon,
        conservative: bool,
        mut shade: S,
        blend: B,
    ) where
        P: Copy + Default,
        S: FnMut(Frag) -> P,
        B: Fn(P, P) -> P,
    {
        self.begin_pass();
        self.stats.vertices += poly.num_vertices() as u64;
        self.stats.primitives += 1 + poly.holes().len() as u64;
        let gen = self.fresh_generation(fb.len());
        let mut fragments = 0u64;
        let mut boundary_fragments = 0u64;
        let width = vp.width() as usize;
        {
            let stamps = &mut self.stamps;
            if conservative {
                for edge in poly.edges() {
                    rasterize_line_supercover(vp, edge.a, edge.b, |x, y| {
                        let idx = (y as usize) * width + x as usize;
                        if stamps[idx] != gen {
                            stamps[idx] = gen;
                            let src = shade(Frag {
                                x,
                                y,
                                boundary: true,
                            });
                            fb.update(x, y, |dst| blend(dst, src));
                            fragments += 1;
                            boundary_fragments += 1;
                        }
                    });
                }
            }
            rasterize_polygon_fill(vp, poly, |x, y| {
                let idx = (y as usize) * width + x as usize;
                if stamps[idx] != gen {
                    stamps[idx] = gen;
                    let src = shade(Frag {
                        x,
                        y,
                        boundary: false,
                    });
                    fb.update(x, y, |dst| blend(dst, src));
                    fragments += 1;
                }
            });
        }
        self.stats.fragments += fragments;
        self.stats.boundary_fragments += boundary_fragments;
        self.stats.blend_ops += fragments;
    }

    /// Draws a whole batch of polygons in **one** pass (a single
    /// instanced draw call submitting every polygon's geometry at once —
    /// how a GPU renders a polygon table). Per-polygon exactly-once
    /// fragment semantics are preserved; the shade closure receives the
    /// polygon index.
    #[allow(clippy::too_many_arguments)]
    pub fn draw_polygons_batch<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        polys: &[Polygon],
        conservative: bool,
        mut shade: S,
        blend: B,
    ) where
        P: Copy + Default,
        S: FnMut(u32, Frag) -> P,
        B: Fn(P, P) -> P,
    {
        self.begin_pass();
        let mut fragments = 0u64;
        let mut boundary_fragments = 0u64;
        let width = vp.width() as usize;
        for (pi, poly) in polys.iter().enumerate() {
            self.stats.vertices += poly.num_vertices() as u64;
            self.stats.primitives += 1 + poly.holes().len() as u64;
            let gen = self.fresh_generation(fb.len());
            let stamps = &mut self.stamps;
            if conservative {
                for edge in poly.edges() {
                    rasterize_line_supercover(vp, edge.a, edge.b, |x, y| {
                        let idx = (y as usize) * width + x as usize;
                        if stamps[idx] != gen {
                            stamps[idx] = gen;
                            let src = shade(
                                pi as u32,
                                Frag {
                                    x,
                                    y,
                                    boundary: true,
                                },
                            );
                            fb.update(x, y, |dst| blend(dst, src));
                            fragments += 1;
                            boundary_fragments += 1;
                        }
                    });
                }
            }
            rasterize_polygon_fill(vp, poly, |x, y| {
                let idx = (y as usize) * width + x as usize;
                if stamps[idx] != gen {
                    stamps[idx] = gen;
                    let src = shade(
                        pi as u32,
                        Frag {
                            x,
                            y,
                            boundary: false,
                        },
                    );
                    fb.update(x, y, |dst| blend(dst, src));
                    fragments += 1;
                }
            });
        }
        self.stats.fragments += fragments;
        self.stats.boundary_fragments += boundary_fragments;
        self.stats.blend_ops += fragments;
    }

    /// Draws raw triangles (the GPU-authentic path used by ablations and
    /// by callers that pre-triangulate geometry).
    pub fn draw_triangles<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        tris: &[[Point; 3]],
        mode: RasterMode,
        mut shade: S,
        blend: B,
    ) where
        P: Copy + Default,
        S: FnMut(u32, Frag) -> P,
        B: Fn(P, P) -> P,
    {
        self.begin_pass();
        self.stats.vertices += 3 * tris.len() as u64;
        self.stats.primitives += tris.len() as u64;
        let mut fragments = 0u64;
        for (i, tri) in tris.iter().enumerate() {
            rasterize_triangle(vp, *tri, mode, |x, y| {
                let frag = Frag {
                    x,
                    y,
                    boundary: mode == RasterMode::Conservative,
                };
                let src = shade(i as u32, frag);
                fb.update(x, y, |dst| blend(dst, src));
                fragments += 1;
            });
        }
        self.stats.fragments += fragments;
        if mode == RasterMode::Conservative {
            self.stats.boundary_fragments += fragments;
        }
        self.stats.blend_ops += fragments;
    }

    /// Full-screen pass: rewrites every texel through `f` (the Value
    /// Transform `V[f]` and Mask `M[M]` operators compile to this).
    pub fn map_texels<P, F>(&mut self, fb: &mut Texture<P>, mut f: F)
    where
        P: Copy + Default,
        F: FnMut(u32, u32, P) -> P,
    {
        self.begin_pass();
        self.stats.fullscreen_texels += fb.len() as u64;
        let w = fb.width() as usize;
        for (i, t) in fb.texels_mut().iter_mut().enumerate() {
            let x = (i % w) as u32;
            let y = (i / w) as u32;
            *t = f(x, y, *t);
        }
    }

    /// Full-screen binary blend: `dst[i] = blend(dst[i], src[i])` — the
    /// texture-vs-texture form of the Blend operator (alpha blending of
    /// two rendered canvases in the paper).
    ///
    /// Panics if the textures differ in size (canvases must share a
    /// viewport before blending; the Geometric Transform operator is the
    /// algebra's tool for aligning them).
    pub fn blend_into<P, B>(&mut self, dst: &mut Texture<P>, src: &Texture<P>, blend: B)
    where
        P: Copy + Default + Send + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        assert_eq!(
            (dst.width(), dst.height()),
            (src.width(), src.height()),
            "blend requires same-size framebuffers"
        );
        self.begin_pass();
        self.stats.fullscreen_texels += dst.len() as u64;
        self.stats.blend_ops += dst.len() as u64;
        // Band-parallel when the device has workers: per-texel blends are
        // independent, so the decomposition cannot change the result.
        let band = dst
            .len()
            .div_ceil(self.pool.threads())
            .max(dst.width() as usize);
        self.pool
            .for_each_band_pair(band, dst.texels_mut(), src.texels(), |d_chunk, s_chunk| {
                for (d, s) in d_chunk.iter_mut().zip(s_chunk) {
                    *d = blend(*d, *s);
                }
            });
    }

    /// [`blend_into`](Self::blend_into) for a built-in blend function,
    /// carried as an op tag so each band takes the SIMD row kernel.
    /// Charges identical work counters and is bit-identical to the
    /// closure form (pointwise blends are order-free).
    pub fn blend_into_tagged<P>(&mut self, dst: &mut Texture<P>, src: &Texture<P>, tag: BlendTag)
    where
        P: TexelWords + Send + Sync,
    {
        assert_eq!(
            (dst.width(), dst.height()),
            (src.width(), src.height()),
            "blend requires same-size framebuffers"
        );
        self.begin_pass();
        self.stats.fullscreen_texels += dst.len() as u64;
        self.stats.blend_ops += dst.len() as u64;
        let be = simd::active_backend();
        let band = dst
            .len()
            .div_ceil(self.pool.threads())
            .max(dst.width() as usize);
        self.pool
            .for_each_band_pair(band, dst.texels_mut(), src.texels(), |d_chunk, s_chunk| {
                simd::blend_rows_with(be, tag, d_chunk, s_chunk);
            });
    }

    /// [`blend_into`](Self::blend_into) specialized to certain-cover
    /// planes (saturating add — the canvas Blend contract), dispatched
    /// to the SIMD `adds_epu16` kernel. Charges identical counters to
    /// the equivalent closure-form `blend_into` pass.
    pub fn blend_cover_into(&mut self, dst: &mut Texture<u16>, src: &Texture<u16>) {
        assert_eq!(
            (dst.width(), dst.height()),
            (src.width(), src.height()),
            "blend requires same-size framebuffers"
        );
        self.begin_pass();
        self.stats.fullscreen_texels += dst.len() as u64;
        self.stats.blend_ops += dst.len() as u64;
        let be = simd::active_backend();
        let band = dst
            .len()
            .div_ceil(self.pool.threads())
            .max(dst.width() as usize);
        self.pool
            .for_each_band_pair(band, dst.texels_mut(), src.texels(), |d_chunk, s_chunk| {
                simd::cover_add_rows_with(be, d_chunk, s_chunk);
            });
    }

    /// Full-screen pass over two aligned planes (texel + cover) with a
    /// band-local collector — the parallel form of the Mask operator's
    /// per-pixel test. `f` may rewrite both texels and push entries into
    /// the collector; collected values are returned concatenated in
    /// row-major band order, so the output is identical at any thread
    /// count.
    pub fn map_planes<A, C, T, F>(&mut self, a: &mut Texture<A>, c: &mut Texture<C>, f: F) -> Vec<T>
    where
        A: Copy + Default + Send,
        C: Copy + Default + Send,
        T: Send,
        F: Fn(u32, u32, &mut A, &mut C, &mut Vec<T>) + Sync,
    {
        assert_eq!(
            (a.width(), a.height()),
            (c.width(), c.height()),
            "planes must share dimensions"
        );
        self.begin_pass();
        self.stats.fullscreen_texels += a.len() as u64;
        let w = a.width() as usize;
        let parts =
            self.pool
                .for_each_band2(w, a.texels_mut(), c.texels_mut(), |row0, band_a, band_c| {
                    let mut collected = Vec::new();
                    for (j, (ta, tc)) in band_a.iter_mut().zip(band_c.iter_mut()).enumerate() {
                        let x = (j % w) as u32;
                        let y = (row0 + j / w) as u32;
                        f(x, y, ta, tc, &mut collected);
                    }
                    collected
                });
        parts.into_iter().flatten().collect()
    }

    /// Collector-free [`map_planes`](Self::map_planes): a pure in-place
    /// per-pixel rewrite of two aligned planes (the coarse Mask pass).
    pub fn map_planes_inplace<A, C, F>(&mut self, a: &mut Texture<A>, c: &mut Texture<C>, f: F)
    where
        A: Copy + Default + Send,
        C: Copy + Default + Send,
        F: Fn(u32, u32, &mut A, &mut C) + Sync,
    {
        assert_eq!(
            (a.width(), a.height()),
            (c.width(), c.height()),
            "planes must share dimensions"
        );
        self.begin_pass();
        self.stats.fullscreen_texels += a.len() as u64;
        let w = a.width() as usize;
        self.pool
            .for_each_band2(w, a.texels_mut(), c.texels_mut(), |row0, band_a, band_c| {
                for (j, (ta, tc)) in band_a.iter_mut().zip(band_c.iter_mut()).enumerate() {
                    let x = (j % w) as u32;
                    let y = (row0 + j / w) as u32;
                    f(x, y, ta, tc);
                }
            });
    }

    /// Scatter pass: for every source texel, `target` chooses a world
    /// position in the destination viewport (or `None` to drop); the
    /// texel value is blended into the destination pixel.
    ///
    /// This realizes the value-dependent Geometric Transform
    /// `G[γ : S³ → R²]` — on a GPU this is a point-sprite re-render or
    /// transform feedback, with blending resolving collisions.
    pub fn scatter<P, T, B>(
        &mut self,
        src: &Texture<P>,
        dst_vp: &Viewport,
        dst: &mut Texture<P>,
        mut target: T,
        blend: B,
    ) where
        P: Copy + Default,
        T: FnMut(u32, u32, &P) -> Option<Point>,
        B: Fn(P, P) -> P,
    {
        self.begin_pass();
        self.stats.scatter_reads += src.len() as u64;
        let writes = scatter_apply(src, dst_vp, dst, &mut target, &blend);
        self.stats.scatter_writes += writes;
        self.stats.blend_ops += writes;
    }

    // ------------------------------------------------------------------
    // Tiled draw paths (the data-parallel execution model).
    //
    // Primitives are binned to fixed-size framebuffer tiles; every tile
    // copies its planes in, rasterizes its binned primitives in input
    // order, and copies the result back in row-major tile order. The
    // same code runs at every thread count, so sequential and parallel
    // executions are bit-identical by construction (the per-pixel blend
    // order is the input primitive order either way).
    // ------------------------------------------------------------------

    /// Tile-parallel point draw — the batched form of
    /// [`draw_points`](Self::draw_points). Coincident points still blend
    /// in input order within their pixel.
    pub fn draw_points_tiled<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        points: &[Point],
        shade: S,
        blend: B,
    ) where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Point) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        // A bare draw is a fused chain with zero operators — one tile
        // kernel, shared with the fused path.
        self.run_chain_points(vp, fb, None, points, shade, blend, &OpChain::new());
    }

    /// Charges the deterministic work counters of a chain's operator
    /// stages (identical to running the equivalent materialized
    /// full-screen passes, and independent of thread count).
    fn charge_chain_stats<P: Copy + Default>(&mut self, len: usize, chain: &OpChain<'_, P>) {
        let len = len as u64;
        for op in chain.ops() {
            match op {
                ChainOp::Map(_)
                | ChainOp::Mask(_)
                | ChainOp::MapTagged { .. }
                | ChainOp::MaskTagged { .. } => {
                    self.stats.passes += 1;
                    self.stats.fullscreen_texels += len;
                }
                ChainOp::Blend { src_cover, .. } | ChainOp::BlendTagged { src_cover, .. } => {
                    // A canvas Blend is one pass over the texel planes
                    // plus (when covers merge) one over the cover
                    // planes — exactly what two `blend_into` calls
                    // would charge. Tagged (SIMD) stages charge the
                    // same counters: the work model counts texels, not
                    // instructions.
                    let planes = if src_cover.is_some() { 2 } else { 1 };
                    self.stats.passes += planes;
                    self.stats.fullscreen_texels += planes * len;
                    self.stats.blend_ops += planes * len;
                }
            }
        }
    }

    /// Asserts every Blend operand shares the framebuffer's dimensions
    /// (the same contract `blend_into` enforces pass-by-pass).
    fn assert_chain_operands<P: Copy + Default>(fb: &Texture<P>, chain: &OpChain<'_, P>) {
        for op in chain.ops() {
            if let ChainOp::Blend { src, src_cover, .. }
            | ChainOp::BlendTagged { src, src_cover, .. } = op
            {
                assert_eq!(
                    (src.width(), src.height()),
                    (fb.width(), fb.height()),
                    "chain blend requires same-size framebuffers"
                );
                if let Some(sc) = src_cover {
                    assert_eq!(
                        (sc.width(), sc.height()),
                        (fb.width(), fb.height()),
                        "chain blend requires same-size cover planes"
                    );
                }
            }
        }
    }

    /// Fused `draw(points) → chain` execution (see [`OpChain`]): the
    /// tiled point draw streams each finished tile through every chain
    /// operator before it is blitted — intermediate canvases are never
    /// materialized, and at most `Policy::stream_window(workers)` tile
    /// buffers are live (reported in the returned [`ChainRunReport`]).
    ///
    /// Bit-identical to the materialized sequence (tiled draw, then one
    /// full-screen pass per operator) at any thread count, including
    /// the work counters. `cover` carries the run's certain-cover plane
    /// when the chain merges covers (canvas Blend) or masks.
    #[allow(clippy::too_many_arguments)]
    pub fn run_chain_points<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        mut cover: Option<&mut Texture<u16>>,
        points: &[Point],
        shade: S,
        blend: B,
        chain: &OpChain<'_, P>,
    ) -> ChainRunReport
    where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Point) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        let _draw_span = draw_span("draw_points", points.len(), chain.len());
        self.begin_pass();
        self.stats.vertices += points.len() as u64;
        self.stats.primitives += points.len() as u64;
        self.charge_chain_stats(fb.len(), chain);
        Self::assert_chain_operands(fb, chain);
        assert!(
            !chain.blends_cover() || cover.is_some(),
            "chain blends cover planes but the run has no cover plane"
        );
        let mut masked = MaskOutcome::new(fb.width(), fb.len(), chain.mask_count());
        if points.is_empty() && chain.is_empty() {
            return ChainRunReport {
                tiles: 0,
                peak_tiles_in_flight: 0,
                masked,
            };
        }
        let pool = Arc::clone(&self.pool);
        let threads = pool.threads();
        // Single-worker fast path: binning and tile copies only pay off
        // when tiles run concurrently. The direct draw blends per pixel
        // in input order, exactly like the per-tile replay, and the
        // chain operators rewrite texels in place (same per-texel
        // kernels, whole-framebuffer rect), so results are bit-identical
        // to the parallel path (asserted in tests).
        if threads == 1 {
            let mut fragments = 0u64;
            for (i, &p) in points.iter().enumerate() {
                rasterize_point(vp, p, |x, y| {
                    let src = shade(i as u32, p);
                    fb.update(x, y, |dst| blend(dst, src));
                    fragments += 1;
                });
            }
            self.stats.fragments += fragments;
            self.stats.boundary_fragments += fragments;
            self.stats.blend_ops += fragments;
            apply_chain_inplace(chain, fb, cover.as_deref_mut(), &mut masked);
            return ChainRunReport {
                tiles: 0,
                peak_tiles_in_flight: 0,
                masked,
            };
        }
        let grid = TileGrid::new(vp.width(), vp.height());

        // Chunk-parallel binning; chunks merge in input order so every
        // tile sees its points in global input order. The workers emit
        // (tile, x, y, idx) so the sequential merge is a plain push and
        // the per-tile pass never recomputes coordinates.
        let chunk_size = points.len().div_ceil(threads).max(1);
        let chunks: Vec<&[Point]> = points.chunks(chunk_size).collect();
        let parts: Vec<Vec<(u32, u32, u32, u32)>> = pool.run_indexed(chunks.len(), |ci| {
            let base = (ci * chunk_size) as u32;
            let mut local = Vec::with_capacity(chunks[ci].len());
            for (k, &p) in chunks[ci].iter().enumerate() {
                if let Some((x, y)) = vp.world_to_pixel(p) {
                    local.push((grid.tile_of(x, y) as u32, x, y, base + k as u32));
                }
            }
            local
        });
        let mut bins: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); grid.num_tiles()];
        for part in &parts {
            for &(tile, x, y, idx) in part {
                bins[tile as usize].push((x, y, idx));
            }
        }

        // A bare draw only visits tiles that received primitives; a
        // chain visits every tile (the operators are full-screen
        // passes, so empty tiles still change).
        let work: Vec<usize> = if chain.is_empty() {
            (0..grid.num_tiles())
                .filter(|&t| !bins[t].is_empty())
                .collect()
        } else {
            (0..grid.num_tiles()).collect()
        };
        // Streaming merge: each worker rasterizes a tile and runs every
        // chain operator on it, and this thread blits finished tiles in
        // fixed tile order. Peak memory holds O(streaming window) tile
        // buffers instead of every tile at once. SAFETY of the shared
        // view: tile rects are disjoint, and a tile is written only
        // after its producer finished with it (ordered by the streaming
        // channel's mutex — see `RawTexels`).
        let shared = RawTexels::new(fb);
        // Only carry (copy in/out) the cover plane when some op can
        // actually change it — a Value-only chain would otherwise pay a
        // full extra plane copy per run for provably untouched covers.
        let chain_touches_cover = chain.blends_cover() || chain.mask_count() > 0;
        let shared_cover = if chain_touches_cover {
            cover.map(RawTexels::new)
        } else {
            None
        };
        struct PointTileJob<P> {
            t: usize,
            tex: Vec<P>,
            cov: Option<Vec<u16>>,
            bits: Vec<TileBits>,
            fragments: u64,
        }
        let produce = |wi: usize| -> PointTileJob<P> {
            let t = work[wi];
            let rect = grid.rect(t);
            let mut tex = unsafe { shared.read_rect(rect.x0, rect.y0, rect.w, rect.h) };
            let mut cov = shared_cover
                .as_ref()
                .map(|sc| unsafe { sc.read_rect(rect.x0, rect.y0, rect.w, rect.h) });
            let mut fragments = 0u64;
            for &(x, y, idx) in &bins[t] {
                let src = shade(idx, points[idx as usize]);
                let li = rect.local_index(x, y);
                tex[li] = blend(tex[li], src);
                fragments += 1;
            }
            let mut bits: Vec<TileBits> = (0..chain.mask_count())
                .map(|_| TileBits::new(rect.len()))
                .collect();
            apply_chain_tile(chain, t, rect, &mut tex, cov.as_deref_mut(), &mut bits);
            PointTileJob {
                t,
                tex,
                cov,
                bits,
                fragments,
            }
        };
        let mut fragments_total = 0u64;
        let mut blits = 0usize;
        let stream = pool.run_streaming(work.len(), produce, |_, job| {
            let rect = grid.rect(job.t);
            unsafe { shared.write_rect(rect.x0, rect.y0, rect.w, rect.h, &job.tex) };
            if let (Some(sc), Some(cov)) = (&shared_cover, &job.cov) {
                unsafe { sc.write_rect(rect.x0, rect.y0, rect.w, rect.h, cov) };
            }
            for (m, tb) in job.bits.iter().enumerate() {
                masked.import_tile(m, rect, tb);
            }
            fragments_total += job.fragments;
            blits += 1;
        });
        debug_assert_eq!(blits, work.len());
        self.stats.fragments += fragments_total;
        self.stats.boundary_fragments += fragments_total; // points need exact coords
        self.stats.blend_ops += fragments_total;
        ChainRunReport {
            tiles: stream.items,
            peak_tiles_in_flight: stream.peak_in_flight,
            masked,
        }
    }

    /// Incremental dirty-tile point patch: bins the (small) `points`
    /// delta to tiles, replays the blend only on tiles that received a
    /// point, and — when `value` is given — re-applies that pointwise
    /// value kernel over each dirty tile's texels. Clean tiles are
    /// never read or written, so a patch costs O(delta + dirty tiles),
    /// not O(framebuffer).
    ///
    /// This is the maintenance half of the streaming-ingest path: given
    /// a framebuffer produced by a full `draw → value` run over a point
    /// prefix, patching in the appended suffix reproduces the full run
    /// over the whole sequence bit-for-bit *provided* the value kernel
    /// rewrites every word the blend disturbs from words the blend
    /// folds associatively-by-suffix (true of the `HeatLog` live
    /// heatmap; fuzzed in `core/tests/incremental_equivalence.rs`).
    /// Binning is sequential and per-pixel replay order is global input
    /// order, so results are bit-identical at any thread count.
    pub fn patch_points_tiled<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        points: &[Point],
        shade: S,
        blend: B,
        value: Option<(simd::Backend, ValueTag)>,
    ) -> PatchReport
    where
        P: TexelWords + Send + Sync,
        S: Fn(u32, Point) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        let _draw_span = draw_span("patch_points", points.len(), value.is_some() as usize);
        self.begin_pass();
        self.stats.vertices += points.len() as u64;
        self.stats.primitives += points.len() as u64;
        let grid = TileGrid::new(vp.width(), vp.height());
        // Sequential binning in input order: deltas are small by
        // assumption, and per-pixel replay order below is then the
        // global input order, exactly like a full tiled draw.
        let mut bins: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); grid.num_tiles()];
        let mut fragments = 0u64;
        for (i, &p) in points.iter().enumerate() {
            if let Some((x, y)) = vp.world_to_pixel(p) {
                bins[grid.tile_of(x, y)].push((x, y, i as u32));
                fragments += 1;
            }
        }
        let dirty: Vec<usize> = (0..grid.num_tiles())
            .filter(|&t| !bins[t].is_empty())
            .collect();
        self.stats.fragments += fragments;
        self.stats.boundary_fragments += fragments; // points need exact coords
        self.stats.blend_ops += fragments;
        if value.is_some() && !dirty.is_empty() {
            // The value re-apply is one pass over the dirty texels only
            // — the O(delta) point of the patch path, and exactly what
            // the counters should say it cost.
            self.stats.passes += 1;
            self.stats.fullscreen_texels += dirty
                .iter()
                .map(|&t| grid.rect(t).len() as u64)
                .sum::<u64>();
        }
        let report = PatchReport {
            dirty_tiles: dirty.len(),
            total_tiles: grid.num_tiles(),
            fragments,
        };
        if dirty.is_empty() {
            return report;
        }
        let pool = Arc::clone(&self.pool);
        let patch_tile = |tex: &mut [P], t: usize| {
            let rect = grid.rect(t);
            for &(x, y, idx) in &bins[t] {
                let li = rect.local_index(x, y);
                tex[li] = blend(tex[li], shade(idx, points[idx as usize]));
            }
            if let Some((be, tag)) = value {
                simd::value_rows_with(be, tag, tex);
            }
        };
        if pool.threads() == 1 || dirty.len() == 1 {
            for &t in &dirty {
                let rect = grid.rect(t);
                let mut tex = fb.read_rect(rect.x0, rect.y0, rect.w, rect.h);
                patch_tile(&mut tex, t);
                fb.write_rect(rect.x0, rect.y0, rect.w, rect.h, &tex);
            }
        } else {
            // SAFETY of the shared view: dirty tiles have pairwise
            // disjoint rects and each worker reads, replays and writes
            // only its own tile (see `RawTexels`).
            let shared = RawTexels::new(fb);
            pool.run_indexed(dirty.len(), |i| {
                let t = dirty[i];
                let rect = grid.rect(t);
                let mut tex = unsafe { shared.read_rect(rect.x0, rect.y0, rect.w, rect.h) };
                patch_tile(&mut tex, t);
                unsafe { shared.write_rect(rect.x0, rect.y0, rect.w, rect.h, &tex) };
            });
        }
        report
    }

    /// Tile-parallel batched polygon draw — the tiled form of
    /// [`draw_polygons_batch`](Self::draw_polygons_batch), fused with the
    /// canvas bookkeeping both render paths need: interior fragments
    /// raise the certain-`cover` plane, conservative boundary fragments
    /// are returned as `(record, pixel)` pairs (in deterministic
    /// tile-major, record-minor order) for the caller's boundary index.
    #[allow(clippy::too_many_arguments)]
    pub fn draw_polygons_tiled<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        cover: &mut Texture<u16>,
        polys: &[Polygon],
        conservative: bool,
        shade: S,
        blend: B,
    ) -> Vec<(u32, u32)>
    where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Frag) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        // A bare draw is a fused chain with zero operators — one tile
        // kernel, shared with the fused path.
        self.run_chain_polygons(
            vp,
            fb,
            cover,
            polys,
            conservative,
            shade,
            blend,
            &OpChain::new(),
        )
        .0
    }

    /// Fused `draw(polygons) → chain` execution — the polygon-table
    /// sibling of [`run_chain_points`](Self::run_chain_points). The
    /// instanced tiled polygon draw (texels + certain-cover + boundary
    /// pairs) streams each finished tile through every chain operator
    /// before the single blit; returns the boundary list alongside the
    /// chain report.
    #[allow(clippy::too_many_arguments)]
    pub fn run_chain_polygons<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        cover: &mut Texture<u16>,
        polys: &[Polygon],
        conservative: bool,
        shade: S,
        blend: B,
        chain: &OpChain<'_, P>,
    ) -> (Vec<(u32, u32)>, ChainRunReport)
    where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Frag) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        let _draw_span = draw_span("draw_polygons", polys.len(), chain.len());
        self.begin_pass();
        for poly in polys {
            self.stats.vertices += poly.num_vertices() as u64;
            self.stats.primitives += 1 + poly.holes().len() as u64;
        }
        self.charge_chain_stats(fb.len(), chain);
        Self::assert_chain_operands(fb, chain);
        let mut masked = MaskOutcome::new(fb.width(), fb.len(), chain.mask_count());
        let pool = Arc::clone(&self.pool);
        let threads = pool.threads();
        let width = vp.width();
        // Single-worker fast path: skip binning and tile plane copies and
        // rasterize against the whole framebuffer. Per pixel, records
        // blend in ascending order — the same order the tiled replay
        // produces — so canvases come out bit-identical (asserted in
        // tests; the raw boundary list differs only in pre-sort order).
        // Chain operators then rewrite the planes in place with the
        // same per-texel kernels the streamed tiles run.
        if threads == 1 {
            let mut boundary: Vec<(u32, u32)> = Vec::new();
            let (mut fragments, mut boundary_fragments) = (0u64, 0u64);
            for (pi, poly) in polys.iter().enumerate() {
                let pi = pi as u32;
                let gen = self.fresh_generation(fb.len());
                let stamps = &mut self.stamps;
                if conservative {
                    for edge in poly.edges() {
                        rasterize_line_supercover(vp, edge.a, edge.b, |x, y| {
                            let idx = (y * width + x) as usize;
                            if stamps[idx] != gen {
                                stamps[idx] = gen;
                                let src = shade(
                                    pi,
                                    Frag {
                                        x,
                                        y,
                                        boundary: true,
                                    },
                                );
                                fb.update(x, y, |dst| blend(dst, src));
                                boundary.push((pi, y * width + x));
                                fragments += 1;
                                boundary_fragments += 1;
                            }
                        });
                    }
                }
                // Span fill: when no pixel of a scanline run carries
                // this polygon's stamp yet (the common case — only
                // conservative boundary pixels are pre-stamped), the
                // stamp store and cover increment run as SIMD row
                // kernels and the per-pixel dedup test disappears. The
                // blend itself stays scalar left-to-right, so texels
                // come out bit-identical to the per-pixel path.
                let be = chain.resolved_backend();
                rasterize_polygon_fill_rect_spans(
                    vp,
                    poly,
                    0,
                    0,
                    width - 1,
                    vp.height() - 1,
                    |py, first, last| {
                        let row0 = (py * width + first) as usize;
                        let n = (last - first + 1) as usize;
                        let span_stamps = &mut stamps[row0..row0 + n];
                        if !simd::any_equals_with(be, span_stamps, gen) {
                            simd::fill_u32_with(be, span_stamps, gen);
                            for (c, t) in fb.texels_mut()[row0..row0 + n].iter_mut().enumerate() {
                                let src = shade(
                                    pi,
                                    Frag {
                                        x: first + c as u32,
                                        y: py,
                                        boundary: false,
                                    },
                                );
                                *t = blend(*t, src);
                            }
                            simd::cover_inc_with(be, &mut cover.texels_mut()[row0..row0 + n]);
                            fragments += n as u64;
                        } else {
                            for x in first..=last {
                                let idx = (py * width + x) as usize;
                                if stamps[idx] != gen {
                                    stamps[idx] = gen;
                                    let src = shade(
                                        pi,
                                        Frag {
                                            x,
                                            y: py,
                                            boundary: false,
                                        },
                                    );
                                    fb.update(x, py, |dst| blend(dst, src));
                                    cover.update(x, py, |c| c.saturating_add(1));
                                    fragments += 1;
                                }
                            }
                        }
                    },
                );
            }
            self.stats.fragments += fragments;
            self.stats.boundary_fragments += boundary_fragments;
            self.stats.blend_ops += fragments;
            apply_chain_inplace(chain, fb, Some(cover), &mut masked);
            return (
                boundary,
                ChainRunReport {
                    tiles: 0,
                    peak_tiles_in_flight: 0,
                    masked,
                },
            );
        }
        let grid = TileGrid::new(vp.width(), vp.height());

        // Bin polygons to the tiles their bounding boxes overlap.
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); grid.num_tiles()];
        for (pi, poly) in polys.iter().enumerate() {
            if let Some((x0, y0, x1, y1)) = vp.pixel_range(&poly.bbox()) {
                for t in grid.tiles_overlapping(x0, y0, x1, y1) {
                    bins[t].push(pi as u32);
                }
            }
        }

        // A bare draw only visits tiles that received primitives; a
        // chain visits every tile (full-screen operators).
        let work: Vec<usize> = if chain.is_empty() {
            (0..grid.num_tiles())
                .filter(|&t| !bins[t].is_empty())
                .collect()
        } else {
            (0..grid.num_tiles()).collect()
        };
        // Streaming merge (see `run_chain_points`): tiles are blitted
        // in fixed tile order as they finish; the boundary list is
        // extended in the same order, so results are bit-identical to
        // the all-materialized merge while peak memory holds only the
        // pool's streaming window of tile buffers.
        let shared_fb = RawTexels::new(fb);
        let shared_cover = RawTexels::new(cover);
        let mut all_boundary = Vec::new();
        let (mut frag_total, mut bfrag_total) = (0u64, 0u64);
        struct PolyTileJob<P> {
            t: usize,
            tex: Vec<P>,
            cov: Vec<u16>,
            bits: Vec<TileBits>,
            boundary: Vec<(u32, u32)>,
            fragments: u64,
            boundary_fragments: u64,
        }
        let be = chain.resolved_backend();
        let produce = |wi: usize| -> PolyTileJob<P> {
            let t = work[wi];
            let rect = grid.rect(t);
            let mut tex = unsafe { shared_fb.read_rect(rect.x0, rect.y0, rect.w, rect.h) };
            let mut cov = unsafe { shared_cover.read_rect(rect.x0, rect.y0, rect.w, rect.h) };
            let mut stamps = vec![0u32; rect.len()];
            let mut boundary: Vec<(u32, u32)> = Vec::new();
            let (mut fragments, mut boundary_fragments) = (0u64, 0u64);
            for (gen0, &pi) in bins[t].iter().enumerate() {
                let gen = gen0 as u32 + 1;
                let poly = &polys[pi as usize];
                if conservative {
                    for edge in poly.edges() {
                        // Supercover pixels never leave the edge's pixel
                        // bbox, so edges that cannot touch this tile are
                        // rejected before the O(length) walk.
                        let Some((ex0, ey0, ex1, ey1)) =
                            vp.pixel_range(&canvas_geom::BBox::from_corners(edge.a, edge.b))
                        else {
                            continue;
                        };
                        if !rect.intersects_range(ex0, ey0, ex1, ey1) {
                            continue;
                        }
                        rasterize_line_supercover(vp, edge.a, edge.b, |x, y| {
                            if !rect.contains(x, y) {
                                return;
                            }
                            let li = rect.local_index(x, y);
                            if stamps[li] != gen {
                                stamps[li] = gen;
                                let src = shade(
                                    pi,
                                    Frag {
                                        x,
                                        y,
                                        boundary: true,
                                    },
                                );
                                tex[li] = blend(tex[li], src);
                                boundary.push((pi, y * width + x));
                                fragments += 1;
                                boundary_fragments += 1;
                            }
                        });
                    }
                }
                // Span fill (see the single-worker path above): fresh
                // scanline runs take the SIMD stamp/cover row kernels
                // with a scalar left-to-right blend; runs that overlap
                // pre-stamped boundary pixels fall back to the
                // per-pixel dedup loop. Same pixels, same blend order,
                // bit-identical texels.
                rasterize_polygon_fill_rect_spans(
                    vp,
                    poly,
                    rect.x0,
                    rect.y0,
                    rect.x0 + rect.w - 1,
                    rect.y0 + rect.h - 1,
                    |py, first, last| {
                        let li0 = rect.local_index(first, py);
                        let n = (last - first + 1) as usize;
                        let span_stamps = &mut stamps[li0..li0 + n];
                        if !simd::any_equals_with(be, span_stamps, gen) {
                            simd::fill_u32_with(be, span_stamps, gen);
                            for (c, t) in tex[li0..li0 + n].iter_mut().enumerate() {
                                let src = shade(
                                    pi,
                                    Frag {
                                        x: first + c as u32,
                                        y: py,
                                        boundary: false,
                                    },
                                );
                                *t = blend(*t, src);
                            }
                            simd::cover_inc_with(be, &mut cov[li0..li0 + n]);
                            fragments += n as u64;
                        } else {
                            for x in first..=last {
                                let li = rect.local_index(x, py);
                                if stamps[li] != gen {
                                    stamps[li] = gen;
                                    let src = shade(
                                        pi,
                                        Frag {
                                            x,
                                            y: py,
                                            boundary: false,
                                        },
                                    );
                                    tex[li] = blend(tex[li], src);
                                    cov[li] = cov[li].saturating_add(1);
                                    fragments += 1;
                                }
                            }
                        }
                    },
                );
            }
            let mut bits: Vec<TileBits> = (0..chain.mask_count())
                .map(|_| TileBits::new(rect.len()))
                .collect();
            apply_chain_tile(chain, t, rect, &mut tex, Some(&mut cov), &mut bits);
            PolyTileJob {
                t,
                tex,
                cov,
                bits,
                boundary,
                fragments,
                boundary_fragments,
            }
        };
        let stream = pool.run_streaming(work.len(), produce, |_, job| {
            let rect = grid.rect(job.t);
            unsafe {
                shared_fb.write_rect(rect.x0, rect.y0, rect.w, rect.h, &job.tex);
                shared_cover.write_rect(rect.x0, rect.y0, rect.w, rect.h, &job.cov);
            }
            for (m, tb) in job.bits.iter().enumerate() {
                masked.import_tile(m, rect, tb);
            }
            all_boundary.extend(job.boundary);
            frag_total += job.fragments;
            bfrag_total += job.boundary_fragments;
        });
        self.stats.fragments += frag_total;
        self.stats.boundary_fragments += bfrag_total;
        self.stats.blend_ops += frag_total;
        (
            all_boundary,
            ChainRunReport {
                tiles: stream.items,
                peak_tiles_in_flight: stream.peak_in_flight,
                masked,
            },
        )
    }

    /// Tile-parallel polyline table draw — the tiled form of one
    /// [`draw_polyline`](Self::draw_polyline) call per record. Every
    /// covered pixel is a conservative boundary pixel; the returned
    /// `(record, pixel)` pairs are in deterministic order.
    pub fn draw_polylines_tiled<P, S, B>(
        &mut self,
        vp: &Viewport,
        fb: &mut Texture<P>,
        lines: &[Polyline],
        shade: S,
        blend: B,
    ) -> Vec<(u32, u32)>
    where
        P: Copy + Default + Send + Sync,
        S: Fn(u32, Frag) -> P + Sync,
        B: Fn(P, P) -> P + Sync,
    {
        let _draw_span = draw_span("draw_polylines", lines.len(), 0);
        self.begin_pass();
        for line in lines {
            self.stats.vertices += line.vertices().len() as u64;
            self.stats.primitives += line.num_segments() as u64;
        }
        let pool = Arc::clone(&self.pool);
        let threads = pool.threads();
        let width = vp.width();
        // Single-worker fast path (see draw_polygons_tiled).
        if threads == 1 {
            let mut boundary: Vec<(u32, u32)> = Vec::new();
            let mut fragments = 0u64;
            for (li, line) in lines.iter().enumerate() {
                let li = li as u32;
                let gen = self.fresh_generation(fb.len());
                let stamps = &mut self.stamps;
                for seg in line.segments() {
                    rasterize_line_supercover(vp, seg.a, seg.b, |x, y| {
                        let idx = (y * width + x) as usize;
                        if stamps[idx] != gen {
                            stamps[idx] = gen;
                            let src = shade(
                                li,
                                Frag {
                                    x,
                                    y,
                                    boundary: true,
                                },
                            );
                            fb.update(x, y, |dst| blend(dst, src));
                            boundary.push((li, y * width + x));
                            fragments += 1;
                        }
                    });
                }
            }
            self.stats.fragments += fragments;
            self.stats.boundary_fragments += fragments;
            self.stats.blend_ops += fragments;
            return boundary;
        }
        let grid = TileGrid::new(vp.width(), vp.height());

        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); grid.num_tiles()];
        for (li, line) in lines.iter().enumerate() {
            if let Some((x0, y0, x1, y1)) = vp.pixel_range(&line.bbox()) {
                for t in grid.tiles_overlapping(x0, y0, x1, y1) {
                    bins[t].push(li as u32);
                }
            }
        }

        let work: Vec<usize> = (0..grid.num_tiles())
            .filter(|&t| !bins[t].is_empty())
            .collect();
        // Streaming merge (see `draw_points_tiled`).
        let shared = RawTexels::new(fb);
        let mut all_boundary = Vec::new();
        let mut frag_total = 0u64;
        // (tile, texels, boundary entries, fragment count)
        type LineTileOut<P> = (usize, Vec<P>, Vec<(u32, u32)>, u64);
        let produce = |wi: usize| -> LineTileOut<P> {
            let t = work[wi];
            let rect = grid.rect(t);
            let mut tex = unsafe { shared.read_rect(rect.x0, rect.y0, rect.w, rect.h) };
            let mut stamps = vec![0u32; rect.len()];
            let mut boundary: Vec<(u32, u32)> = Vec::new();
            let mut fragments = 0u64;
            for (gen0, &li) in bins[t].iter().enumerate() {
                let gen = gen0 as u32 + 1;
                for seg in lines[li as usize].segments() {
                    // Same per-segment tile reject as the polygon
                    // boundary pass.
                    let Some((ex0, ey0, ex1, ey1)) =
                        vp.pixel_range(&canvas_geom::BBox::from_corners(seg.a, seg.b))
                    else {
                        continue;
                    };
                    if !rect.intersects_range(ex0, ey0, ex1, ey1) {
                        continue;
                    }
                    rasterize_line_supercover(vp, seg.a, seg.b, |x, y| {
                        if !rect.contains(x, y) {
                            return;
                        }
                        let idx = rect.local_index(x, y);
                        if stamps[idx] != gen {
                            stamps[idx] = gen;
                            let src = shade(
                                li,
                                Frag {
                                    x,
                                    y,
                                    boundary: true,
                                },
                            );
                            tex[idx] = blend(tex[idx], src);
                            boundary.push((li, y * width + x));
                            fragments += 1;
                        }
                    });
                }
            }
            (t, tex, boundary, fragments)
        };
        pool.run_streaming(work.len(), produce, |_, (t, tex, boundary, fragments)| {
            let rect = grid.rect(t);
            unsafe { shared.write_rect(rect.x0, rect.y0, rect.w, rect.h, &tex) };
            all_boundary.extend(boundary);
            frag_total += fragments;
        });
        self.stats.fragments += frag_total;
        self.stats.boundary_fragments += frag_total;
        self.stats.blend_ops += frag_total;
        all_boundary
    }

    /// Parallel full-screen pass over row bands on the worker pool.
    ///
    /// Semantically identical to [`map_texels`](Self::map_texels) —
    /// bit-identical at any thread count, since each texel is rewritten
    /// independently — but requires a shareable `Fn` shader. The Value
    /// Transform operator `V[f]` compiles to this (fragment shading is
    /// embarrassingly parallel, which is the paper's whole point).
    pub fn par_map_texels<P, F>(&mut self, fb: &mut Texture<P>, f: F)
    where
        P: Copy + Default + Send,
        F: Fn(u32, u32, P) -> P + Sync,
    {
        self.begin_pass();
        self.stats.fullscreen_texels += fb.len() as u64;
        let w = fb.width() as usize;
        self.pool.for_each_band1(w, fb.texels_mut(), |row0, band| {
            for (j, t) in band.iter_mut().enumerate() {
                let x = (j % w) as u32;
                let y = (row0 + j / w) as u32;
                *t = f(x, y, *t);
            }
        });
    }

    /// [`par_map_texels`](Self::par_map_texels) for a built-in value
    /// transform, carried as an op tag so each band takes the SIMD
    /// row kernel (position-independent, so bands need no coordinate
    /// bookkeeping). Charges identical work counters.
    pub fn par_map_texels_tagged<P>(&mut self, fb: &mut Texture<P>, tag: ValueTag)
    where
        P: TexelWords + Send + Sync,
    {
        self.begin_pass();
        self.stats.fullscreen_texels += fb.len() as u64;
        let be = simd::active_backend();
        let w = fb.width() as usize;
        self.pool.for_each_band1(w, fb.texels_mut(), |_row0, band| {
            simd::value_rows_with(be, tag, band);
        });
    }

    /// Deterministic parallel scatter — the pool-backed form of
    /// [`scatter`](Self::scatter) for shareable (`Fn + Sync`) target
    /// functions. Source bands are claimed by workers, which evaluate
    /// `target` (the expensive part: the value-form γ of the Geometric
    /// Transform) and emit `(dst_pixel, value)` write lists; the
    /// calling thread applies the blends **in source row-major order**
    /// through the streaming merge, so the destination is bit-identical
    /// to the sequential scatter at any thread count. In-flight write
    /// lists are bounded by the pool's streaming window.
    pub fn scatter_shared<P, T, B>(
        &mut self,
        src: &Texture<P>,
        dst_vp: &Viewport,
        dst: &mut Texture<P>,
        target: T,
        blend: B,
    ) where
        P: Copy + Default + Send + Sync,
        T: Fn(u32, u32, &P) -> Option<Point> + Sync,
        B: Fn(P, P) -> P,
    {
        self.begin_pass();
        self.stats.scatter_reads += src.len() as u64;
        let w = src.width() as usize;
        let n = src.len();
        let mut writes = 0u64;
        let pool = Arc::clone(&self.pool);
        if !pool.should_parallelize(n) {
            // Below the minimum-work threshold: the exact sequential
            // loop `scatter` runs (one implementation, shared).
            writes = scatter_apply(src, dst_vp, dst, &mut |x, y, t| target(x, y, t), &blend);
        } else {
            // A few chunks per executor so the merge pipeline stays fed.
            let chunk = n.div_ceil(pool.threads() * 4).max(1);
            let n_chunks = n.div_ceil(chunk);
            let texels = src.texels();
            pool.run_streaming(
                n_chunks,
                |ci| {
                    let lo = ci * chunk;
                    let hi = (lo + chunk).min(n);
                    let mut local: Vec<(u32, u32, P)> = Vec::new();
                    for (i, t) in texels[lo..hi].iter().enumerate() {
                        let i = lo + i;
                        let x = (i % w) as u32;
                        let y = (i / w) as u32;
                        if let Some(world) = target(x, y, t) {
                            if let Some((dx, dy)) = dst_vp.world_to_pixel(world) {
                                local.push((dx, dy, *t));
                            }
                        }
                    }
                    local
                },
                |_, local| {
                    for (dx, dy, v) in local {
                        dst.update(dx, dy, |d| blend(d, v));
                        writes += 1;
                    }
                },
            );
        }
        self.stats.scatter_writes += writes;
        self.stats.blend_ops += writes;
    }

    /// Chunk-parallel fragment visitation over a polygon table — the
    /// aggregation kernel behind the RasterJoin plan. Polygons are cut
    /// into contiguous chunks (one per executor); each chunk gets a
    /// fresh accumulator from `init(range)` and rasterizes its polygons
    /// with the exact per-polygon exactly-once fragment semantics of
    /// [`draw_polygons_batch`](Self::draw_polygons_batch) (conservative
    /// boundary pass first, then interior fill), calling
    /// `visit(&mut acc, record, frag)` per fragment. Accumulators
    /// return in chunk order.
    ///
    /// Because each polygon's fragments are visited by exactly one
    /// executor in the sequential emission order, any per-record
    /// accumulation is bit-identical to the sequential run at every
    /// thread count (the caller's contract: `visit` must only fold
    /// state per record, never across records of different chunks).
    pub fn visit_polygon_fragments<A, I, V>(
        &mut self,
        vp: &Viewport,
        polys: &[Polygon],
        conservative: bool,
        init: I,
        visit: V,
    ) -> Vec<A>
    where
        A: Send,
        I: Fn(std::ops::Range<usize>) -> A + Sync,
        V: Fn(&mut A, u32, Frag) + Sync,
    {
        self.visit_polygon_fragments_impl(vp, polys, None, conservative, init, visit)
    }

    /// Subset form of
    /// [`visit_polygon_fragments`](Self::visit_polygon_fragments):
    /// rasterizes only `polys[records[k]]` for each position `k`,
    /// passing the *position* `k` as the record index to `init` ranges
    /// and `visit` — so index-pruned plans walk a table subset without
    /// cloning polygons into a contiguous slice. Identical chunking and
    /// determinism contract.
    pub fn visit_polygon_fragments_indexed<A, I, V>(
        &mut self,
        vp: &Viewport,
        polys: &[Polygon],
        records: &[u32],
        conservative: bool,
        init: I,
        visit: V,
    ) -> Vec<A>
    where
        A: Send,
        I: Fn(std::ops::Range<usize>) -> A + Sync,
        V: Fn(&mut A, u32, Frag) + Sync,
    {
        self.visit_polygon_fragments_impl(vp, polys, Some(records), conservative, init, visit)
    }

    fn visit_polygon_fragments_impl<A, I, V>(
        &mut self,
        vp: &Viewport,
        polys: &[Polygon],
        records: Option<&[u32]>,
        conservative: bool,
        init: I,
        visit: V,
    ) -> Vec<A>
    where
        A: Send,
        I: Fn(std::ops::Range<usize>) -> A + Sync,
        V: Fn(&mut A, u32, Frag) + Sync,
    {
        self.begin_pass();
        let n = records.map_or(polys.len(), <[u32]>::len);
        let sel = move |k: usize| records.map_or(k, |r| r[k] as usize);
        for k in 0..n {
            let poly = &polys[sel(k)];
            self.stats.vertices += poly.num_vertices() as u64;
            self.stats.primitives += 1 + poly.holes().len() as u64;
        }
        if n == 0 {
            return Vec::new();
        }
        let pool = Arc::clone(&self.pool);
        let chunk = n.div_ceil(pool.threads()).max(1);
        let n_chunks = n.div_ceil(chunk);
        let fb_len = (vp.width() as usize) * (vp.height() as usize);
        let width = vp.width();
        let scratch = &self.fragment_scratch;
        let results: Vec<(A, u64, u64)> = pool.run_indexed(n_chunks, |ci| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(n);
            let mut acc = init(lo..hi);
            // Check a stamp plane out of the shared pool (allocated and
            // zeroed at most once per concurrent executor, ever);
            // generations continue across calls so reuse never clears.
            let mut plane = scratch
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop()
                .unwrap_or_default();
            if plane.stamps.len() < fb_len {
                plane.stamps.resize(fb_len, 0);
            }
            let n_gens = (hi - lo) as u32;
            if plane.gen.checked_add(n_gens).is_none() {
                // Generation counter wrapped: clear once and restart.
                plane.stamps.fill(0);
                plane.gen = 0;
            }
            let base_gen = plane.gen;
            let stamps = &mut plane.stamps;
            let (mut fragments, mut boundary_fragments) = (0u64, 0u64);
            for k in lo..hi {
                let poly = &polys[sel(k)];
                let gen = base_gen + (k - lo) as u32 + 1;
                let record = k as u32;
                if conservative {
                    for edge in poly.edges() {
                        rasterize_line_supercover(vp, edge.a, edge.b, |x, y| {
                            let idx = (y * width + x) as usize;
                            if stamps[idx] != gen {
                                stamps[idx] = gen;
                                visit(
                                    &mut acc,
                                    record,
                                    Frag {
                                        x,
                                        y,
                                        boundary: true,
                                    },
                                );
                                fragments += 1;
                                boundary_fragments += 1;
                            }
                        });
                    }
                }
                rasterize_polygon_fill(vp, poly, |x, y| {
                    let idx = (y * width + x) as usize;
                    if stamps[idx] != gen {
                        stamps[idx] = gen;
                        visit(
                            &mut acc,
                            record,
                            Frag {
                                x,
                                y,
                                boundary: false,
                            },
                        );
                        fragments += 1;
                    }
                });
            }
            plane.gen = base_gen + n_gens;
            scratch
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(plane);
            (acc, fragments, boundary_fragments)
        });
        let mut out = Vec::with_capacity(results.len());
        for (acc, fragments, boundary_fragments) in results {
            self.stats.fragments += fragments;
            self.stats.boundary_fragments += boundary_fragments;
            // The GPU kernel this models blends each fragment into its
            // group slot, so fragments are charged as blend ops exactly
            // like the batch-draw formulation used to.
            self.stats.blend_ops += fragments;
            out.push(acc);
        }
        out
    }
}

/// The scatter inner loop — single home of the texel→world→pixel→blend
/// sequence, shared by [`Pipeline::scatter`] and the below-threshold
/// branch of [`Pipeline::scatter_shared`] so the two can never diverge.
/// Returns the write count (the caller charges stats).
fn scatter_apply<P, T, B>(
    src: &Texture<P>,
    dst_vp: &Viewport,
    dst: &mut Texture<P>,
    target: &mut T,
    blend: &B,
) -> u64
where
    P: Copy + Default,
    T: FnMut(u32, u32, &P) -> Option<Point>,
    B: Fn(P, P) -> P,
{
    let w = src.width() as usize;
    let mut writes = 0u64;
    for (i, t) in src.texels().iter().enumerate() {
        let x = (i % w) as u32;
        let y = (i / w) as u32;
        if let Some(world) = target(x, y, t) {
            if let Some((dx, dy)) = dst_vp.world_to_pixel(world) {
                dst.update(dx, dy, |d| blend(d, *t));
                writes += 1;
            }
        }
    }
    writes
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_executor::Policy;
    use canvas_geom::BBox;

    fn vp10() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            10,
            10,
        )
    }

    #[test]
    fn draw_points_accumulates_coincident() {
        let vp = vp10();
        let mut fb: Texture<u32> = Texture::new(10, 10);
        let mut pl = Pipeline::new();
        let pts = vec![
            Point::new(2.5, 2.5),
            Point::new(2.6, 2.4), // same pixel
            Point::new(7.5, 7.5),
        ];
        pl.draw_points(&vp, &mut fb, &pts, |_, _| 1u32, |d, s| d + s);
        assert_eq!(fb.get(2, 2), 2);
        assert_eq!(fb.get(7, 7), 1);
        let st = pl.stats();
        assert_eq!(st.vertices, 3);
        assert_eq!(st.fragments, 3);
        assert_eq!(st.blend_ops, 3);
        assert_eq!(st.passes, 1);
    }

    #[test]
    fn draw_polygon_exactly_once_per_pixel() {
        let vp = vp10();
        let mut fb: Texture<u32> = Texture::new(10, 10);
        let mut pl = Pipeline::new();
        let poly = Polygon::simple(vec![
            Point::new(1.0, 1.0),
            Point::new(8.0, 1.0),
            Point::new(8.0, 8.0),
            Point::new(1.0, 8.0),
        ])
        .unwrap();
        pl.draw_polygon(&vp, &mut fb, &poly, true, |_| 1u32, |d, s| d + s);
        // Every covered texel has value exactly 1 (no double emission
        // between boundary and interior passes).
        for (_, _, v) in fb.iter() {
            assert!(v <= 1, "pixel shaded {v} times");
        }
        let covered = fb.iter().filter(|&(_, _, v)| v == 1).count();
        assert!(covered >= 7 * 7, "interior must be covered, got {covered}");
        let st = pl.stats();
        assert_eq!(st.fragments as usize, covered);
        assert!(st.boundary_fragments > 0);
        assert!(st.boundary_fragments < st.fragments);
    }

    #[test]
    fn draw_polygon_conservative_covers_superset() {
        let vp = vp10();
        let poly = Polygon::simple(vec![
            Point::new(1.2, 1.3),
            Point::new(8.7, 1.9),
            Point::new(4.4, 8.2),
        ])
        .unwrap();
        let mut pl = Pipeline::new();
        let mut fb_std: Texture<u32> = Texture::new(10, 10);
        pl.draw_polygon(&vp, &mut fb_std, &poly, false, |_| 1u32, |d, s| d | s);
        let mut fb_cons: Texture<u32> = Texture::new(10, 10);
        pl.draw_polygon(&vp, &mut fb_cons, &poly, true, |_| 1u32, |d, s| d | s);
        for ((x, y, s), (_, _, c)) in fb_std.iter().zip(fb_cons.iter()) {
            assert!(c >= s, "conservative lost coverage at ({x},{y})");
        }
    }

    #[test]
    fn draw_polyline_dedups_shared_vertices() {
        let vp = vp10();
        let mut fb: Texture<u32> = Texture::new(10, 10);
        let mut pl = Pipeline::new();
        let line = Polyline::new(vec![
            Point::new(1.5, 1.5),
            Point::new(5.5, 1.5),
            Point::new(5.5, 6.5),
        ])
        .unwrap();
        pl.draw_polyline(&vp, &mut fb, &line, |_| 1u32, |d, s| d + s);
        for (_, _, v) in fb.iter() {
            assert!(v <= 1, "polyline pixel shaded {v} times");
        }
        // The corner pixel (5,1) appears once despite ending one segment
        // and starting the next.
        assert_eq!(fb.get(5, 1), 1);
    }

    #[test]
    fn blend_into_counts_and_merges() {
        let mut pl = Pipeline::new();
        let mut dst: Texture<u32> = Texture::filled(4, 4, 1);
        let src: Texture<u32> = Texture::filled(4, 4, 2);
        pl.blend_into(&mut dst, &src, |d, s| d + s);
        assert!(dst.iter().all(|(_, _, v)| v == 3));
        assert_eq!(pl.stats().fullscreen_texels, 16);
        assert_eq!(pl.stats().blend_ops, 16);
    }

    #[test]
    #[should_panic(expected = "same-size")]
    fn blend_size_mismatch_panics() {
        let mut pl = Pipeline::new();
        let mut dst: Texture<u32> = Texture::new(4, 4);
        let src: Texture<u32> = Texture::new(4, 5);
        pl.blend_into(&mut dst, &src, |d, _| d);
    }

    #[test]
    fn map_texels_visits_every_pixel_once() {
        let mut pl = Pipeline::new();
        let mut fb: Texture<u32> = Texture::new(5, 3);
        pl.map_texels(&mut fb, |_, _, v| v + 1);
        assert!(fb.iter().all(|(_, _, v)| v == 1));
        assert_eq!(pl.stats().fullscreen_texels, 15);
    }

    #[test]
    fn map_texels_coordinates_correct() {
        let mut pl = Pipeline::new();
        let mut fb: Texture<u32> = Texture::new(4, 4);
        pl.map_texels(&mut fb, |x, y, _| x + 10 * y);
        assert_eq!(fb.get(3, 2), 23);
        assert_eq!(fb.get(0, 0), 0);
    }

    #[test]
    fn scatter_moves_and_accumulates() {
        let vp = vp10();
        let mut pl = Pipeline::new();
        let mut src: Texture<u32> = Texture::new(10, 10);
        src.set(1, 1, 5);
        src.set(8, 8, 7);
        let mut dst: Texture<u32> = Texture::new(10, 10);
        // Send every non-zero texel to the world location (0.5, 0.5).
        pl.scatter(
            &src,
            &vp,
            &mut dst,
            |_, _, v| {
                if *v != 0 {
                    Some(Point::new(0.5, 0.5))
                } else {
                    None
                }
            },
            |d, s| d + s,
        );
        assert_eq!(dst.get(0, 0), 12);
        assert_eq!(pl.stats().scatter_reads, 100);
        assert_eq!(pl.stats().scatter_writes, 2);
    }

    #[test]
    fn scatter_drops_out_of_viewport_targets() {
        let vp = vp10();
        let mut pl = Pipeline::new();
        let mut src: Texture<u32> = Texture::new(10, 10);
        src.set(0, 0, 1);
        let mut dst: Texture<u32> = Texture::new(10, 10);
        pl.scatter(
            &src,
            &vp,
            &mut dst,
            |_, _, _| Some(Point::new(100.0, 100.0)),
            |d, s| d + s,
        );
        assert_eq!(pl.stats().scatter_writes, 0);
        assert!(dst.iter().all(|(_, _, v)| v == 0));
    }

    #[test]
    fn par_map_matches_sequential() {
        let mut pl = Pipeline::new();
        let mut a: Texture<u32> = Texture::new(16, 16);
        pl.map_texels(&mut a, |x, y, _| x * 31 + y * 7);
        let mut pp = Pipeline::new();
        pp.set_threads(3);
        let mut b: Texture<u32> = Texture::new(16, 16);
        pp.par_map_texels(&mut b, |x, y, _| x * 31 + y * 7);
        assert_eq!(a, b);
    }

    #[test]
    fn upload_download_counters() {
        let mut pl = Pipeline::new();
        pl.note_upload(1024);
        pl.note_download(256);
        pl.note_compute_edge_tests(99);
        let st = pl.stats();
        assert_eq!(st.bytes_uploaded, 1024);
        assert_eq!(st.bytes_downloaded, 256);
        assert_eq!(st.compute_edge_tests, 99);
        pl.reset_stats();
        assert_eq!(pl.stats(), PipelineStats::default());
    }

    fn vp_big() -> Viewport {
        // 3×2 tiles of 64px (with clipped edge tiles).
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            150,
            100,
        )
    }

    fn star(cx: f64, cy: f64, n: usize) -> Polygon {
        let verts: Vec<Point> = (0..n)
            .map(|i| {
                let ang = std::f64::consts::TAU * i as f64 / n as f64;
                let r = if i % 2 == 0 { 40.0 } else { 22.0 };
                Point::new(cx + r * ang.cos(), cy + r * ang.sin())
            })
            .collect();
        Polygon::simple(verts).unwrap()
    }

    fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 110.0 - 5.0, next() * 110.0 - 5.0))
            .collect()
    }

    #[test]
    fn tiled_points_match_legacy_draw() {
        let vp = vp_big();
        let pts = pseudo_points(5_000, 41);
        let mut legacy: Texture<u32> = Texture::new(150, 100);
        let mut pl = Pipeline::new();
        pl.draw_points(
            &vp,
            &mut legacy,
            &pts,
            |i, _| i + 1,
            |d, s| d.wrapping_add(s),
        );
        let legacy_stats = pl.stats();
        for threads in [1usize, 4] {
            let mut tiled: Texture<u32> = Texture::new(150, 100);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            pt.draw_points_tiled(
                &vp,
                &mut tiled,
                &pts,
                |i, _| i + 1,
                |d, s| d.wrapping_add(s),
            );
            assert_eq!(legacy, tiled, "threads={threads}");
            assert_eq!(legacy_stats.fragments, pt.stats().fragments);
            assert_eq!(legacy_stats.blend_ops, pt.stats().blend_ops);
        }
    }

    #[test]
    fn tiled_polygons_match_legacy_draw() {
        let vp = vp_big();
        let polys = vec![
            star(40.0, 40.0, 17),
            star(70.0, 60.0, 23),
            star(20.0, 80.0, 9),
        ];
        // Legacy reference: batch draw plus manual cover/boundary
        // bookkeeping (what the canvas layer used to do inline).
        let mut legacy: Texture<u32> = Texture::new(150, 100);
        let mut legacy_cover: Texture<u16> = Texture::new(150, 100);
        let mut legacy_boundary: Vec<(u32, u32)> = Vec::new();
        let mut pl = Pipeline::new();
        pl.draw_polygons_batch(
            &vp,
            &mut legacy,
            &polys,
            true,
            |pi, frag| {
                if frag.boundary {
                    legacy_boundary.push((pi, frag.y * 150 + frag.x));
                } else {
                    legacy_cover.update(frag.x, frag.y, |c| c + 1);
                }
                pi + 1
            },
            |d, s| d.max(s),
        );
        for threads in [1usize, 4] {
            let mut tiled: Texture<u32> = Texture::new(150, 100);
            let mut cover: Texture<u16> = Texture::new(150, 100);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let boundary = pt.draw_polygons_tiled(
                &vp,
                &mut tiled,
                &mut cover,
                &polys,
                true,
                |pi, _| pi + 1,
                |d, s| d.max(s),
            );
            assert_eq!(legacy, tiled, "texels, threads={threads}");
            assert_eq!(legacy_cover, cover, "cover, threads={threads}");
            // Same boundary pixel set per record (emission order differs:
            // legacy is per-polygon global, tiled is per-tile).
            let mut a = legacy_boundary.clone();
            let mut b = boundary;
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "boundary entries, threads={threads}");
            assert_eq!(pl.stats().fragments, pt.stats().fragments);
            assert_eq!(pl.stats().boundary_fragments, pt.stats().boundary_fragments);
        }
    }

    #[test]
    fn tiled_polylines_match_legacy_draw() {
        let vp = vp_big();
        let lines = vec![
            Polyline::new(vec![
                Point::new(2.0, 3.0),
                Point::new(95.0, 40.0),
                Point::new(40.0, 95.0),
            ])
            .unwrap(),
            Polyline::new(vec![Point::new(-10.0, 50.0), Point::new(120.0, 55.0)]).unwrap(),
        ];
        let mut legacy: Texture<u32> = Texture::new(150, 100);
        let mut pl = Pipeline::new();
        for (li, line) in lines.iter().enumerate() {
            pl.draw_polyline(&vp, &mut legacy, line, |_| li as u32 + 1, |d, s| d | s);
        }
        for threads in [1usize, 4] {
            let mut tiled: Texture<u32> = Texture::new(150, 100);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let boundary =
                pt.draw_polylines_tiled(&vp, &mut tiled, &lines, |li, _| li + 1, |d, s| d | s);
            assert_eq!(legacy, tiled, "threads={threads}");
            assert_eq!(pl.stats().fragments, pt.stats().fragments);
            // Every emitted pixel is boundary-linked exactly once per record.
            assert_eq!(boundary.len() as u64, pt.stats().fragments);
        }
    }

    #[test]
    fn tiled_parallel_identical_across_thread_counts() {
        let vp = vp_big();
        let pts = pseudo_points(3_000, 99);
        let polys = vec![star(50.0, 50.0, 31)];
        type Snapshot = (Texture<u32>, Texture<u16>, Vec<(u32, u32)>);
        let mut reference: Option<Snapshot> = None;
        for threads in [1usize, 2, 3, 8] {
            let mut fb: Texture<u32> = Texture::new(150, 100);
            let mut cover: Texture<u16> = Texture::new(150, 100);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            pt.draw_points_tiled(&vp, &mut fb, &pts, |i, _| i, |d, s| d ^ s);
            let mut boundary = pt.draw_polygons_tiled(
                &vp,
                &mut fb,
                &mut cover,
                &polys,
                true,
                |_, f| (f.x + f.y) * 3,
                |d, s| d.wrapping_add(s),
            );
            // Raw emission order is record-major in the 1-thread fast
            // path and tile-major in parallel runs; canvases consume the
            // list pixel-sorted (record-ascending ties), so normalize
            // the same way before comparing.
            boundary.sort_unstable_by_key(|&(record, pixel)| (pixel, record));
            match &reference {
                None => reference = Some((fb, cover, boundary)),
                Some((rf, rc, rb)) => {
                    assert_eq!(rf, &fb, "texels diverge at {threads} threads");
                    assert_eq!(rc, &cover, "cover diverges at {threads} threads");
                    assert_eq!(rb, &boundary, "boundary diverges at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn map_planes_collects_in_row_major_order() {
        for threads in [1usize, 3] {
            let mut a: Texture<u32> = Texture::new(10, 9);
            let mut c: Texture<u16> = Texture::new(10, 9);
            let mut pl = Pipeline::new();
            pl.set_threads(threads);
            let collected = pl.map_planes(&mut a, &mut c, |x, y, t, cov, out| {
                *t = x + y;
                *cov = 1;
                if x == y {
                    out.push(y * 10 + x);
                }
            });
            assert_eq!(collected, vec![0, 11, 22, 33, 44, 55, 66, 77, 88]);
            assert_eq!(a.get(3, 5), 8);
            assert!(c.iter().all(|(_, _, v)| v == 1));
            assert_eq!(pl.stats().fullscreen_texels, 90);
        }
    }

    #[test]
    fn blend_into_parallel_matches_sequential() {
        let mut src: Texture<u32> = Texture::new(33, 21);
        let mut pl = Pipeline::new();
        pl.map_texels(&mut src, |x, y, _| x * 7 + y);
        let mut seq: Texture<u32> = Texture::filled(33, 21, 5);
        pl.blend_into(&mut seq, &src, |d, s| d.wrapping_mul(31).wrapping_add(s));
        let mut par: Texture<u32> = Texture::filled(33, 21, 5);
        let mut pp = Pipeline::new();
        pp.set_threads(4);
        pp.blend_into(&mut par, &src, |d, s| d.wrapping_mul(31).wrapping_add(s));
        assert_eq!(seq, par);
    }

    #[test]
    fn scatter_shared_matches_scatter_any_thread_count() {
        let vp = vp_big();
        let mut src: Texture<u32> = Texture::new(150, 100);
        let mut pl = Pipeline::new();
        pl.map_texels(&mut src, |x, y, _| (x * 7 + y * 13) % 5);
        let target = |x: u32, y: u32, v: &u32| {
            if *v == 0 {
                None
            } else {
                // Fold everything into a small square, with collisions.
                Some(Point::new((x % 7) as f64 + 0.5, (y % 7) as f64 + 0.5))
            }
        };
        let mut reference: Texture<u32> = Texture::new(150, 100);
        pl.scatter(&src, &vp, &mut reference, target, |d, s| {
            d.wrapping_mul(31).wrapping_add(s)
        });
        let ref_stats = pl.stats();
        for threads in [1usize, 2, 4] {
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            // Force the parallel path even on this small plane.
            let policy = Policy {
                min_parallel_items: 0,
                ..*pt.pool().policy()
            };
            pt.set_pool(Arc::new(WorkerPool::with_policy(threads, policy)));
            let mut dst: Texture<u32> = Texture::new(150, 100);
            pt.scatter_shared(&src, &vp, &mut dst, target, |d, s| {
                d.wrapping_mul(31).wrapping_add(s)
            });
            assert_eq!(reference, dst, "threads={threads}");
            assert_eq!(ref_stats.scatter_writes, pt.stats().scatter_writes);
            assert_eq!(ref_stats.scatter_reads, pt.stats().scatter_reads);
        }
    }

    #[test]
    fn visit_polygon_fragments_matches_batch_draw() {
        let vp = vp_big();
        let polys = vec![
            star(40.0, 40.0, 17),
            star(70.0, 60.0, 23),
            star(20.0, 80.0, 9),
        ];
        // Reference: per-record fragment tallies via the batch draw.
        let mut scratch: Texture<u32> = Texture::new(150, 100);
        let mut counts_ref = vec![(0u64, 0u64); polys.len()];
        let mut pl = Pipeline::new();
        pl.draw_polygons_batch(
            &vp,
            &mut scratch,
            &polys,
            true,
            |pi, frag| {
                let c = &mut counts_ref[pi as usize];
                if frag.boundary {
                    c.1 += 1;
                } else {
                    c.0 += 1;
                }
                0u32
            },
            |d, _| d,
        );
        for threads in [1usize, 3] {
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let accs = pt.visit_polygon_fragments(
                &vp,
                &polys,
                true,
                |range| (range, Vec::<(u64, u64)>::new()),
                |acc, pi, frag| {
                    let local = (pi as usize) - acc.0.start;
                    if acc.1.len() <= local {
                        acc.1.resize(local + 1, (0, 0));
                    }
                    if frag.boundary {
                        acc.1[local].1 += 1;
                    } else {
                        acc.1[local].0 += 1;
                    }
                },
            );
            let mut counts = vec![(0u64, 0u64); polys.len()];
            for (range, local) in accs {
                for (k, c) in local.into_iter().enumerate() {
                    counts[range.start + k] = c;
                }
            }
            assert_eq!(counts, counts_ref, "threads={threads}");
            assert_eq!(pl.stats().fragments, pt.stats().fragments);
            assert_eq!(pl.stats().boundary_fragments, pt.stats().boundary_fragments);
            assert_eq!(pl.stats().blend_ops, pt.stats().blend_ops);
        }
    }

    #[test]
    fn fused_point_chain_matches_materialized_passes() {
        let vp = vp_big();
        let pts = pseudo_points(4_000, 7);
        let mut other: Texture<u32> = Texture::new(150, 100);
        let mut pl = Pipeline::new();
        pl.map_texels(&mut other, |x, y, _| (x * 5 + y * 3) % 11);

        // Materialized reference: draw, then one full-screen pass per
        // operator.
        let mut want: Texture<u32> = Texture::new(150, 100);
        let mut pm = Pipeline::new();
        pm.draw_points_tiled(&vp, &mut want, &pts, |i, _| i + 1, |d, s| d.wrapping_add(s));
        pm.par_map_texels(&mut want, |x, _, t| t.wrapping_mul(3) ^ x);
        pm.blend_into(&mut want, &other, |d, s| d.wrapping_add(s));
        // Coarse mask as a full-screen pass.
        pm.par_map_texels(&mut want, |_, _, t| if t.is_multiple_of(3) { t } else { 0 });
        let want_stats = pm.stats();

        for threads in [1usize, 2, 3, 8] {
            let mut fb: Texture<u32> = Texture::new(150, 100);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let chain = OpChain::new()
                .map(|x, _, t: u32| t.wrapping_mul(3) ^ x)
                .blend(&other, |d, s| d.wrapping_add(s))
                .mask(|_, _, &t| t.is_multiple_of(3))
                .with_null_test(|&t| t == 0);
            let report = pt.run_chain_points(
                &vp,
                &mut fb,
                None,
                &pts,
                |i, _| i + 1,
                |d, s| d.wrapping_add(s),
                &chain,
            );
            assert_eq!(want, fb, "planes diverge at {threads} threads");
            assert_eq!(want_stats, pt.stats(), "stats diverge at {threads} threads");
            let window = pt.pool().policy().stream_window(pt.pool().worker_count());
            assert!(
                report.peak_tiles_in_flight <= window,
                "peak {} exceeds window {window} at {threads} threads",
                report.peak_tiles_in_flight
            );
            // The mask bitmap records exactly the nulled pixels.
            for (x, y, t) in fb.iter() {
                let pixel = y * 150 + x;
                assert_eq!(report.masked.is_null_after(0, pixel), t == 0);
            }
        }
    }

    #[test]
    fn fused_polygon_chain_matches_materialized_passes() {
        let vp = vp_big();
        let polys = vec![star(40.0, 40.0, 17), star(70.0, 60.0, 23)];
        let mut other: Texture<u32> = Texture::new(150, 100);
        let mut other_cover: Texture<u16> = Texture::new(150, 100);
        let mut pl = Pipeline::new();
        pl.map_texels(&mut other, |x, y, _| x + y);
        pl.map_texels(&mut other_cover, |x, _, _| (x % 3) as u16);

        let mut want: Texture<u32> = Texture::new(150, 100);
        let mut want_cover: Texture<u16> = Texture::new(150, 100);
        let mut pm = Pipeline::new();
        let mut want_boundary = pm.draw_polygons_tiled(
            &vp,
            &mut want,
            &mut want_cover,
            &polys,
            true,
            |pi, _| pi + 1,
            |d, s| d.max(s),
        );
        pm.blend_into(&mut want, &other, |d, s| d.wrapping_add(s));
        pm.blend_into(&mut want_cover, &other_cover, |d, s| d.saturating_add(s));
        // The reference coarse mask over both planes.
        pm.map_planes_inplace(&mut want, &mut want_cover, |x, y, t, cov| {
            if !(x + y).is_multiple_of(2) {
                *t = 0;
                *cov = 0;
            }
        });
        let want_stats = pm.stats();
        want_boundary.sort_unstable();

        for threads in [1usize, 2, 3, 8] {
            let mut fb: Texture<u32> = Texture::new(150, 100);
            let mut cover: Texture<u16> = Texture::new(150, 100);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let chain = OpChain::new()
                .blend_with_cover(&other, &other_cover, |d, s| d.wrapping_add(s))
                .mask(|x, y, _| (x + y).is_multiple_of(2));
            let (mut boundary, report) = pt.run_chain_polygons(
                &vp,
                &mut fb,
                &mut cover,
                &polys,
                true,
                |pi, _| pi + 1,
                |d, s| d.max(s),
                &chain,
            );
            boundary.sort_unstable();
            assert_eq!(want, fb, "texels diverge at {threads} threads");
            assert_eq!(want_cover, cover, "cover diverges at {threads} threads");
            assert_eq!(
                want_boundary, boundary,
                "boundary diverges at {threads} threads"
            );
            assert_eq!(want_stats, pt.stats(), "stats diverge at {threads} threads");
            // Mask bitmap: without a null test, exactly the pixels the
            // keep-predicate rejected are recorded.
            for (x, y, _) in fb.iter() {
                let pixel = y * 150 + x;
                assert_eq!(
                    report.masked.is_null_after(0, pixel),
                    !(x + y).is_multiple_of(2)
                );
            }
        }
    }

    #[test]
    fn chain_on_empty_draw_still_runs_operators() {
        // 0 primitives: the draw contributes nothing, but the chain's
        // full-screen operators must still rewrite every texel.
        for threads in [1usize, 4] {
            let vp = vp_big();
            let mut fb: Texture<u32> = Texture::new(150, 100);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let chain = OpChain::new().map(|x, y, _| x + 100 * y + 1);
            let report =
                pt.run_chain_points(&vp, &mut fb, None, &[], |_, _| 0u32, |d, s| d + s, &chain);
            assert!(fb.iter().all(|(x, y, t)| t == x + 100 * y + 1));
            assert_eq!(pt.stats().fragments, 0);
            if threads > 1 {
                assert_eq!(report.tiles, TileGrid::new(150, 100).num_tiles());
            }
        }
    }

    #[test]
    fn chain_on_single_tile_canvas() {
        // A canvas smaller than one tile exercises the 1-tile streaming
        // path end to end.
        let vp = vp10();
        let pts = vec![Point::new(2.5, 2.5), Point::new(7.5, 7.5)];
        let mut want: Texture<u32> = Texture::new(10, 10);
        let mut pm = Pipeline::new();
        pm.draw_points_tiled(&vp, &mut want, &pts, |_, _| 1, |d, s| d + s);
        pm.par_map_texels(&mut want, |_, _, t| t * 10 + 1);
        for threads in [1usize, 3] {
            let mut fb: Texture<u32> = Texture::new(10, 10);
            let mut pt = Pipeline::new();
            pt.set_threads(threads);
            let chain = OpChain::new().map(|_, _, t: u32| t * 10 + 1);
            let report =
                pt.run_chain_points(&vp, &mut fb, None, &pts, |_, _| 1, |d, s| d + s, &chain);
            assert_eq!(want, fb, "threads={threads}");
            assert!(report.peak_tiles_in_flight <= 1);
        }
    }

    #[test]
    fn generation_stamps_survive_many_draws() {
        let vp = vp10();
        let mut pl = Pipeline::new();
        let mut fb: Texture<u32> = Texture::new(10, 10);
        let poly = Polygon::simple(vec![
            Point::new(2.0, 2.0),
            Point::new(7.0, 2.0),
            Point::new(7.0, 7.0),
            Point::new(2.0, 7.0),
        ])
        .unwrap();
        // Repeated draws accumulate exactly once each.
        for _ in 0..10 {
            pl.draw_polygon(&vp, &mut fb, &poly, true, |_| 1u32, |d, s| d + s);
        }
        let max = fb.iter().map(|(_, _, v)| v).max().unwrap();
        assert_eq!(max, 10);
    }
}
