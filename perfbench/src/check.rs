//! Output checks: bit-exact canvas digests and the brute-force
//! selection oracle.

use canvas_core::{Canvas, PointBatch};
use canvas_geom::polygon::Polygon;
use canvas_raster::Viewport;

/// A 64-bit digest of every bit a result canvas carries: texel words,
/// the cover plane, and all boundary entries in index order. Two
/// canvases with equal digests are taken as bit-identical (the checks
/// compare digests so a run never has to hold reference canvases).
pub fn digest(c: &Canvas) -> u64 {
    let mut h = Mix::new();
    h.word(c.viewport().width() as u64);
    h.word(c.viewport().height() as u64);
    for t in c.texels().texels() {
        for &w in canvas_raster::simd::texel_words(t) {
            h.word(w as u64);
        }
    }
    for &cov in c.cover().texels() {
        h.word(cov as u64);
    }
    let b = c.boundary();
    h.word(b.points().len() as u64);
    for e in b.points() {
        h.word(((e.pixel as u64) << 32) | e.record as u64);
        h.word(e.loc.x.to_bits());
        h.word(e.loc.y.to_bits());
        h.word(e.weight.to_bits() as u64);
    }
    h.word(b.areas().len() as u64);
    for e in b.areas() {
        h.word(((e.pixel as u64) << 32) | e.record as u64);
        h.word(e.source as u64);
    }
    h.word(b.lines().len() as u64);
    for e in b.lines() {
        h.word(((e.pixel as u64) << 32) | e.record as u64);
        h.word(e.source as u64);
    }
    h.finish()
}

/// Multiply-rotate word mixer (not cryptographic; detects accidental
/// divergence, which is all a bit-identity check needs).
struct Mix(u64);

impl Mix {
    fn new() -> Self {
        Mix(0x9E37_79B9_7F4A_7C15)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
            .rotate_left(29);
    }

    fn finish(self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }
}

/// The ids `SELECT … WHERE Location INSIDE q` must return over the
/// points visible in `vp`, by brute force over `contains_closed`.
pub fn brute_force_selection(data: &PointBatch, q: &Polygon, vp: &Viewport) -> Vec<u32> {
    let mut ids: Vec<u32> = data
        .points
        .iter()
        .zip(&data.ids)
        .filter(|(p, _)| vp.world_to_pixel(**p).is_some() && q.contains_closed(**p))
        .map(|(_, &id)| id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Sorted point ids of a selection result canvas.
pub fn selected_ids(c: &Canvas) -> Vec<u32> {
    let mut ids = c.point_records();
    ids.sort_unstable();
    ids
}
