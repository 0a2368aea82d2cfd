//! The object information set `S` and the canvas range `S³`
//! (paper Definitions 4 and 7).
//!
//! A canvas maps every location to a **triple** of object-information
//! entries — one per primitive dimension 0/1/2. Each entry is either ∅ or
//! a tuple `(v0, v1, v2)` where `v0` is a record identifier and `v1`,
//! `v2` are real-valued metadata whose meaning is chosen per query
//! (counts, attribute values, distances…). The paper renders this as a
//! 3×3 matrix; here it is the [`Texel`] type stored in framebuffers.

use canvas_raster::simd::sum_f32;

/// One object-information entry `(v0, v1, v2)`: a record id plus two
/// real metadata slots (paper Definition 7).
///
/// `#[repr(C)]` so a `Texel` is exactly the 10-word layout the SIMD row
/// kernels operate on (see [`canvas_raster::TexelWords`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct DimInfo {
    /// `v0`: unique identifier of the record that produced the geometry.
    pub id: u32,
    /// `v1`: real-valued metadata (queries use it for counts).
    pub v1: f32,
    /// `v2`: real-valued metadata (queries use it for attribute values /
    /// distances).
    pub v2: f32,
}

impl DimInfo {
    pub const fn new(id: u32, v1: f32, v2: f32) -> Self {
        DimInfo { id, v1, v2 }
    }
}

/// The value of a canvas at one location: an element of `S³`.
///
/// `dims[d]` carries the information for `d`-dimensional primitives
/// incident on the location; a presence bitmask distinguishes ∅ without
/// reserving sentinel ids. The all-∅ texel is the canvas null value
/// (rendered white in the paper's figures).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Texel {
    present: u32,
    dims: [DimInfo; 3],
}

// SAFETY: `Texel` is `#[repr(C)]` — a `u32` presence word followed by
// three `(u32, f32, f32)` entries — which is exactly the 40-byte,
// 4-aligned, padding-free 10 × `u32` word image `TexelWords` demands:
// word 0 is the presence bitmask (bit `d` ⇔ dimension `d` present) and
// words `1+3d..4+3d` are dimension `d`'s `(id, v1, v2)` with the value
// words as `f32` bit patterns. Asserted at compile time below.
unsafe impl canvas_raster::TexelWords for Texel {}

const _: () = {
    assert!(std::mem::size_of::<Texel>() == 40);
    assert!(std::mem::align_of::<Texel>() == 4);
    assert!(std::mem::offset_of!(Texel, present) == 0);
    assert!(std::mem::offset_of!(Texel, dims) == 4);
};

/// The empty texel (∅, ∅, ∅).
pub const NULL_TEXEL: Texel = Texel {
    present: 0,
    dims: [
        DimInfo::new(0, 0.0, 0.0),
        DimInfo::new(0, 0.0, 0.0),
        DimInfo::new(0, 0.0, 0.0),
    ],
};

impl Texel {
    /// The empty texel (∅, ∅, ∅) — identity for merge-style blends.
    pub const fn null() -> Self {
        NULL_TEXEL
    }

    /// Texel with a single dimension set.
    pub fn with_dim(d: usize, info: DimInfo) -> Self {
        let mut t = Texel::null();
        t.set(d, info);
        t
    }

    /// Texel for a 0-primitive (point) record: `s[0] = (id, count, value)`.
    pub fn point(id: u32, count: f32, value: f32) -> Self {
        Texel::with_dim(0, DimInfo::new(id, count, value))
    }

    /// Texel for a 1-primitive (line) record.
    pub fn line(id: u32, count: f32, value: f32) -> Self {
        Texel::with_dim(1, DimInfo::new(id, count, value))
    }

    /// Texel for a 2-primitive (area) record: `s[2] = (id, count, value)`.
    pub fn area(id: u32, count: f32, value: f32) -> Self {
        Texel::with_dim(2, DimInfo::new(id, count, value))
    }

    /// Entry for dimension `d` (0, 1 or 2), or `None` for ∅.
    #[inline]
    pub fn get(&self, d: usize) -> Option<DimInfo> {
        debug_assert!(d < 3);
        if self.present & (1 << d) != 0 {
            Some(self.dims[d])
        } else {
            None
        }
    }

    /// True when dimension `d` holds information.
    #[inline]
    pub fn has(&self, d: usize) -> bool {
        self.present & (1 << d) != 0
    }

    /// Sets the entry for dimension `d`.
    #[inline]
    pub fn set(&mut self, d: usize, info: DimInfo) {
        debug_assert!(d < 3);
        self.present |= 1 << d;
        self.dims[d] = info;
    }

    /// Clears dimension `d` back to ∅.
    #[inline]
    pub fn clear(&mut self, d: usize) {
        debug_assert!(d < 3);
        self.present &= !(1 << d);
        self.dims[d] = DimInfo::default();
    }

    /// True when all three dimensions are ∅ (Definition 5's empty value).
    #[inline]
    pub fn is_null(&self) -> bool {
        self.present == 0
    }

    /// "Over" merge: keep `self`'s entry per dimension, fall back to
    /// `other`'s — the canvas-union blend of Figure 1(b).
    pub fn over(self, other: Texel) -> Texel {
        let mut out = self;
        for d in 0..3 {
            if !out.has(d) {
                if let Some(i) = other.get(d) {
                    out.set(d, i);
                }
            }
        }
        out
    }
}

/// The blend functions `⊙ : S³ × S³ → S³` named in the paper's query
/// formulations (Sections 4–5). Each maps directly onto a programmable
/// blend state in the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlendFn {
    /// Union / "over": per-dimension first-non-∅ (Figure 1(b) merge).
    Over,
    /// The selection blend `⊙` (Section 4.1): output keeps the *left*
    /// operand's 0-row and the *right* operand's 2-row; 1-row is ∅.
    /// Left is data (points), right is the query polygon.
    PointOverArea,
    /// The polygon-intersection blend `⊕` (Section 4.1): output 2-row is
    /// `(id₁, count₁ + count₂, meta₁)` with ∅ treated as zero count;
    /// rows 0 and 1 are ∅.
    AreaCount,
    /// The aggregation blend `+` (Section 4.3): output 0-row sums counts
    /// (`v1`) and values (`v2`) with id zeroed; 2-row keeps the right
    /// operand's entry.
    Accumulate,
    /// Point-density blend used by the RasterJoin plan (Section 5.2):
    /// 0-row is `(id₁, count₁ + count₂, value₁ + value₂)` with ∅ as zero.
    PointAccumulate,
}

impl BlendFn {
    /// Applies the blend to two texels.
    pub fn apply(self, a: Texel, b: Texel) -> Texel {
        match self {
            BlendFn::Over => a.over(b),
            BlendFn::PointOverArea => {
                let mut out = Texel::null();
                if let Some(p) = a.get(0) {
                    out.set(0, p);
                }
                if let Some(q) = b.get(2) {
                    out.set(2, q);
                }
                out
            }
            BlendFn::AreaCount => {
                let mut out = Texel::null();
                match (a.get(2), b.get(2)) {
                    (Some(x), Some(y)) => {
                        out.set(2, DimInfo::new(x.id, sum_f32(x.v1, y.v1), x.v2));
                    }
                    (Some(x), None) => out.set(2, x),
                    (None, Some(y)) => out.set(2, y),
                    (None, None) => {}
                }
                out
            }
            BlendFn::Accumulate => {
                let mut out = Texel::null();
                match (a.get(0), b.get(0)) {
                    (Some(x), Some(y)) => {
                        out.set(0, DimInfo::new(0, sum_f32(x.v1, y.v1), sum_f32(x.v2, y.v2)));
                    }
                    (Some(x), None) => out.set(0, DimInfo::new(0, x.v1, x.v2)),
                    (None, Some(y)) => out.set(0, DimInfo::new(0, y.v1, y.v2)),
                    (None, None) => {}
                }
                if let Some(q) = b.get(2) {
                    out.set(2, q);
                } else if let Some(q) = a.get(2) {
                    out.set(2, q);
                }
                out
            }
            BlendFn::PointAccumulate => {
                let mut out = Texel::null();
                match (a.get(0), b.get(0)) {
                    (Some(x), Some(y)) => {
                        out.set(
                            0,
                            DimInfo::new(x.id, sum_f32(x.v1, y.v1), sum_f32(x.v2, y.v2)),
                        );
                    }
                    (Some(x), None) => out.set(0, x),
                    (None, Some(y)) => out.set(0, y),
                    (None, None) => {}
                }
                // Carry area rows through untouched (first non-null) so the
                // plan can blend the density canvas over polygon canvases.
                if let Some(q) = a.get(2) {
                    out.set(2, q);
                } else if let Some(q) = b.get(2) {
                    out.set(2, q);
                }
                out
            }
        }
    }

    /// True when the blend is associative, allowing the optimizer to
    /// regroup multiway blends (paper Section 3.2 notes this freedom).
    pub fn is_associative(self) -> bool {
        match self {
            BlendFn::Over => true,
            BlendFn::AreaCount => true,       // counts add associatively
            BlendFn::PointAccumulate => true, // likewise
            BlendFn::Accumulate => true,
            BlendFn::PointOverArea => false, // asymmetric by design
        }
    }

    /// The SIMD row-kernel tag for this blend (`canvas_raster::simd`).
    /// Every built-in blend has a vectorized kernel that is bit-identical
    /// to [`BlendFn::apply`] — including `f32` sums, which the kernels
    /// evaluate scalar in the same operand order (asserted exhaustively
    /// in tests below).
    pub fn tag(self) -> canvas_raster::BlendTag {
        match self {
            BlendFn::Over => canvas_raster::BlendTag::Over,
            BlendFn::PointOverArea => canvas_raster::BlendTag::PointOverArea,
            BlendFn::AreaCount => canvas_raster::BlendTag::AreaCount,
            BlendFn::Accumulate => canvas_raster::BlendTag::Accumulate,
            BlendFn::PointAccumulate => canvas_raster::BlendTag::PointAccumulate,
        }
    }

    /// Short symbol used in plan diagrams.
    pub fn symbol(self) -> &'static str {
        match self {
            BlendFn::Over => "∪",
            BlendFn::PointOverArea => "⊙",
            BlendFn::AreaCount => "⊕",
            BlendFn::Accumulate => "+",
            BlendFn::PointAccumulate => "+₀",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_texel_properties() {
        let t = Texel::null();
        assert!(t.is_null());
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn set_get_clear() {
        let mut t = Texel::null();
        t.set(1, DimInfo::new(7, 1.0, 2.0));
        assert!(t.has(1));
        assert!(!t.is_null());
        assert_eq!(t.get(1), Some(DimInfo::new(7, 1.0, 2.0)));
        assert_eq!(t.get(0), None);
        t.clear(1);
        assert!(t.is_null());
    }

    #[test]
    fn constructors() {
        let p = Texel::point(3, 1.0, 9.5);
        assert_eq!(p.get(0).unwrap().id, 3);
        assert!(!p.has(2));
        let a = Texel::area(5, 1.0, 0.0);
        assert_eq!(a.get(2).unwrap().id, 5);
        assert!(!a.has(0));
        let l = Texel::line(2, 1.0, 0.0);
        assert!(l.has(1));
    }

    #[test]
    fn over_prefers_left() {
        let a = Texel::point(1, 1.0, 0.0);
        let b = {
            let mut t = Texel::point(2, 5.0, 0.0);
            t.set(2, DimInfo::new(9, 1.0, 0.0));
            t
        };
        let o = a.over(b);
        assert_eq!(o.get(0).unwrap().id, 1); // left wins
        assert_eq!(o.get(2).unwrap().id, 9); // filled from right
    }

    #[test]
    fn point_over_area_blend() {
        let p = Texel::point(4, 1.0, 2.5);
        let q = Texel::area(1, 1.0, 0.0);
        let out = BlendFn::PointOverArea.apply(p, q);
        assert_eq!(out.get(0).unwrap().id, 4);
        assert_eq!(out.get(2).unwrap().id, 1);
        assert!(!out.has(1));
        // Point outside the polygon: area row stays ∅.
        let out = BlendFn::PointOverArea.apply(p, Texel::null());
        assert!(out.has(0));
        assert!(!out.has(2));
    }

    #[test]
    fn area_count_blend_counts_incidence() {
        let a = Texel::area(3, 1.0, 0.0);
        let q = Texel::area(1, 1.0, 0.0);
        let both = BlendFn::AreaCount.apply(a, q);
        assert_eq!(both.get(2).unwrap().v1, 2.0); // two 2-primitives here
        assert_eq!(both.get(2).unwrap().id, 3); // data id kept
        let only_data = BlendFn::AreaCount.apply(a, Texel::null());
        assert_eq!(only_data.get(2).unwrap().v1, 1.0);
        let only_query = BlendFn::AreaCount.apply(Texel::null(), q);
        assert_eq!(only_query.get(2).unwrap().v1, 1.0);
        assert!(BlendFn::AreaCount
            .apply(Texel::null(), Texel::null())
            .is_null());
    }

    #[test]
    fn accumulate_blend_sums() {
        let a = Texel::point(1, 2.0, 10.0);
        let b = Texel::point(2, 3.0, 20.0);
        let s = BlendFn::Accumulate.apply(a, b);
        let info = s.get(0).unwrap();
        assert_eq!(info.v1, 5.0);
        assert_eq!(info.v2, 30.0);
        assert_eq!(info.id, 0); // id zeroed per the paper's `+`
    }

    #[test]
    fn point_accumulate_keeps_id_and_sums() {
        let a = Texel::point(7, 1.0, 2.0);
        let b = Texel::point(9, 1.0, 3.0);
        let s = BlendFn::PointAccumulate.apply(a, b);
        let info = s.get(0).unwrap();
        assert_eq!(info.id, 7);
        assert_eq!(info.v1, 2.0);
        assert_eq!(info.v2, 5.0);
    }

    #[test]
    fn associativity_flags() {
        assert!(BlendFn::Over.is_associative());
        assert!(BlendFn::AreaCount.is_associative());
        assert!(!BlendFn::PointOverArea.is_associative());
    }

    #[test]
    fn associative_blends_actually_associate() {
        let xs = [
            Texel::point(1, 1.0, 2.0),
            Texel::point(2, 3.0, 4.0),
            Texel::point(3, 5.0, 6.0),
        ];
        for op in [BlendFn::Over, BlendFn::Accumulate, BlendFn::PointAccumulate] {
            let left = op.apply(op.apply(xs[0], xs[1]), xs[2]);
            let right = op.apply(xs[0], op.apply(xs[1], xs[2]));
            assert_eq!(left, right, "{op:?} not associative on points");
        }
        let ys = [
            Texel::area(1, 1.0, 0.0),
            Texel::area(2, 1.0, 0.0),
            Texel::area(3, 1.0, 0.0),
        ];
        let left = BlendFn::AreaCount.apply(BlendFn::AreaCount.apply(ys[0], ys[1]), ys[2]);
        let right = BlendFn::AreaCount.apply(ys[0], BlendFn::AreaCount.apply(ys[1], ys[2]));
        assert_eq!(left.get(2).unwrap().v1, right.get(2).unwrap().v1);
    }

    #[test]
    fn texel_size_stays_compact() {
        // Hot-path type: keep it within two cache lines' worth per texel.
        assert!(std::mem::size_of::<Texel>() <= 40);
    }

    /// Every blend kernel tag must reproduce [`BlendFn::apply`] bit for
    /// bit — on the scalar reference backend and on whatever vector
    /// backend this host dispatches to — across all 8×8 presence pairs
    /// and payloads including `-0.0`, `NaN` and a denormal.
    #[test]
    fn blend_kernels_match_apply_bit_for_bit() {
        use canvas_raster::simd;
        let payloads = [1.0f32, -0.0, f32::NAN, 1.5e-41, 3.25];
        let mk = |p: u32, seed: u32| {
            let mut t = Texel::null();
            for d in 0..3u32 {
                if p & (1 << d) != 0 {
                    let v = payloads[((seed + d) % payloads.len() as u32) as usize];
                    t.set(d as usize, DimInfo::new(seed * 7 + d, v, v * 2.0));
                }
            }
            t
        };
        let words = |t: &Texel| -> [u32; 10] { unsafe { std::mem::transmute_copy(t) } };
        let backends = [simd::Backend::Scalar, simd::active_backend()];
        for op in [
            BlendFn::Over,
            BlendFn::PointOverArea,
            BlendFn::AreaCount,
            BlendFn::Accumulate,
            BlendFn::PointAccumulate,
        ] {
            for pa in 0..8u32 {
                for pb in 0..8u32 {
                    for seed in 0..3u32 {
                        let a = mk(pa, seed);
                        let b = mk(pb, seed + 1);
                        let expect = op.apply(a, b);
                        for be in backends {
                            let mut dst = [a];
                            simd::blend_rows_with(be, op.tag(), &mut dst, &[b]);
                            assert_eq!(
                                words(&dst[0]),
                                words(&expect),
                                "{op:?} pa={pa} pb={pb} on {be:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
