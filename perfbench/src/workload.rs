//! Seeded inputs of the three workloads. Everything here is a pure
//! function of `(seed, size, seconds)`: the same arguments give the
//! same data, the same operation list and the same schedule.

use canvas_core::prelude::*;
use canvas_datagen as datagen;
use canvas_engine::Query;
use canvas_geom::polygon::Polygon;
use canvas_geom::{BBox, Point};
use std::sync::Arc;

/// Full size is the benchmark; tiny is the smoke test's shape check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Nominal operation rates: the op count of a run is
/// `seconds × rate`, fixed by the arguments, so every run of one
/// workload does identical work and lasts about `seconds` at this
/// commit on a 2-core host.
pub const SCAN_OPS_PER_S: f64 = 5.0;
pub const EXPLORE_STEPS_PER_S: f64 = 100.0;
pub const LIVE_TICK: std::time::Duration = std::time::Duration::from_millis(200);

pub struct Shape {
    pub scan_points: usize,
    pub scan_res: u32,
    /// Vertices of the high-vertex selection polygon (Fig. 9c/d shape).
    pub high_vertices: usize,
    pub explore_points: usize,
    pub explore_res: u32,
    pub live_points: usize,
    pub live_res: u32,
    pub live_feed_per_tick: usize,
}

impl Size {
    pub fn shape(self) -> Shape {
        match self {
            Size::Full => Shape {
                scan_points: 1_000_000,
                scan_res: 512,
                high_vertices: 1024,
                explore_points: 1_000_000,
                explore_res: 256,
                live_points: 1_000_000,
                live_res: 512,
                live_feed_per_tick: 2_000,
            },
            Size::Tiny => Shape {
                scan_points: 20_000,
                scan_res: 96,
                high_vertices: 1024,
                explore_points: 10_000,
                explore_res: 64,
                live_points: 20_000,
                live_res: 96,
                live_feed_per_tick: 200,
            },
        }
    }
}

pub fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// SplitMix64: derives independent sub-seeds and uniform draws from
/// the run's `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The point table every workload reads: seeded taxi pickups.
pub fn points(n: usize, seed: u64) -> PointBatch {
    PointBatch::from_points(datagen::taxi_pickups(
        &extent(),
        n,
        Rng::new(seed, 1).next(),
    ))
}

/// A star polygon with `vertices` vertices inside `vp`'s central region.
fn polygon_in(vp_box: &BBox, vertices: usize, rng: &mut Rng) -> Polygon {
    let (w, h) = (vp_box.width(), vp_box.height());
    let cx = vp_box.min.x + w * (0.48 + 0.04 * rng.unit());
    let cy = vp_box.min.y + h * (0.48 + 0.04 * rng.unit());
    let (hw, hh) = (0.35 * w, 0.35 * h);
    datagen::star_polygon(
        &BBox::new(Point::new(cx - hw, cy - hh), Point::new(cx + hw, cy + hh)),
        vertices,
        0.3,
        rng.next(),
    )
}

// ---------------------------------------------------------------- scan

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanKind {
    Select64,
    SelectHigh,
    Heatmap,
    Density,
    Aggregate,
}

pub const SCAN_KINDS: [ScanKind; 5] = [
    ScanKind::Select64,
    ScanKind::SelectHigh,
    ScanKind::Heatmap,
    ScanKind::Density,
    ScanKind::Aggregate,
];

pub struct ScanOp {
    pub kind: ScanKind,
    pub query: Query,
    pub vp: Viewport,
    /// The query polygon, for the selection oracle and decomposition.
    pub poly: Option<Polygon>,
}

pub struct ScanInputs {
    pub data: Arc<PointBatch>,
    pub ops: Vec<ScanOp>,
}

/// Cold analytic renders: the five query kinds in a fixed rotation,
/// each over a freshly panned and zoomed viewport and a fresh polygon,
/// so no (query, viewport) pair repeats and the root cache never hits.
pub fn scan_ops(data: Arc<PointBatch>, size: Size, n_ops: usize, seed: u64) -> ScanInputs {
    let sh = size.shape();
    let mut rng = Rng::new(seed, 2);
    let zones: AreaSource = Arc::new(datagen::neighborhoods(&extent(), 16, rng.next()));
    let density_table: AreaSource = Arc::new(datagen::neighborhoods_detailed(
        &extent(),
        32,
        64,
        rng.next(),
    ));
    let ops = (0..n_ops)
        .map(|i| {
            let kind = SCAN_KINDS[i % SCAN_KINDS.len()];
            // Zoom cycles over three levels per round of kinds and pans
            // follow a fixed golden-angle path, the same for every seed,
            // so seeds do comparable work; the seeded jitter keeps every
            // viewport distinct.
            let zoom = [1.0, 0.8, 0.6][(i / SCAN_KINDS.len()) % 3];
            let w = 100.0 * zoom + 0.5 * rng.unit();
            let slack = 100.0 - 0.9 * w;
            let t = i as f64 * 2.399_963;
            let x0 = -0.05 * w + slack * (0.5 + 0.5 * t.cos()) + 0.5 * rng.unit();
            let y0 = -0.05 * w + slack * (0.5 + 0.5 * t.sin()) + 0.5 * rng.unit();
            let world = BBox::new(Point::new(x0, y0), Point::new(x0 + w, y0 + w));
            let vp = Viewport::square_pixels(world, sh.scan_res);
            let (query, poly) = match kind {
                ScanKind::Select64 | ScanKind::SelectHigh => {
                    let v = if kind == ScanKind::Select64 {
                        64
                    } else {
                        sh.high_vertices
                    };
                    let q = polygon_in(&world, v, &mut rng);
                    (
                        Query::SelectPoints {
                            data: data.clone(),
                            q: q.clone(),
                        },
                        Some(q),
                    )
                }
                ScanKind::Heatmap => {
                    let q = polygon_in(&world, 64, &mut rng);
                    (
                        Query::SelectionHeatmap {
                            data: data.clone(),
                            q: q.clone(),
                        },
                        Some(q),
                    )
                }
                ScanKind::Density => {
                    let q = polygon_in(&world, 64, &mut rng);
                    (
                        Query::PolygonDensity {
                            table: density_table.clone(),
                            q: q.clone(),
                        },
                        Some(q),
                    )
                }
                ScanKind::Aggregate => (
                    Query::AggregateByZone {
                        data: data.clone(),
                        zones: zones.clone(),
                    },
                    None,
                ),
            };
            ScanOp {
                kind,
                query,
                vp,
                poly,
            }
        })
        .collect();
    ScanInputs { data, ops }
}

// ------------------------------------------------------------- explore

/// One step of the pan/zoom walk: a (query shape, pyramid tile) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Step {
    pub shape: usize,
    pub tile: usize,
}

pub struct ExploreInputs {
    pub data: Arc<PointBatch>,
    /// The four query shapes.
    pub shapes: Vec<Query>,
    /// The selection polygon of shape 0 (`SelectPoints`), for the oracle.
    pub district: Polygon,
    /// The polygon of shape 3 (`SelectionHeatmap`).
    pub corridor: Polygon,
    /// The 21 tiles of a three-level pyramid (1 + 4 + 16).
    pub tiles: Vec<Viewport>,
    pub walk: Vec<Step>,
}

/// Seed of the fixed explore session script.
const WALK_SEED: u64 = 0x5E55_1011;
/// Share of explore moves that go back to the previous view.
const BACK_SHARE: f64 = 0.4;

/// Tile index of `(level, x, y)` in the 21-tile pyramid.
fn tile_index(level: usize, x: usize, y: usize) -> usize {
    let base = [0, 1, 5][level];
    base + y * (1 << level) + x
}

/// An interactive session: one scripted walk over the tile pyramid that
/// zooms in, zooms out, pans to a neighbour, switches query shape or
/// goes back to the previous view, so tiles and shapes are revisited. Shapes share interior canvases
/// (the points canvas, the district polygon and their blend), which is
/// what subplan sharing publishes.
pub fn explore_inputs(
    data: Arc<PointBatch>,
    size: Size,
    n_steps: usize,
    seed: u64,
) -> ExploreInputs {
    let sh = size.shape();
    let mut rng = Rng::new(seed, 3);
    let district = datagen::star_polygon(
        &BBox::new(Point::new(15.0, 15.0), Point::new(85.0, 85.0)),
        64,
        0.45,
        rng.next(),
    );
    let corridor = datagen::star_polygon(
        &BBox::new(Point::new(35.0, 5.0), Point::new(95.0, 55.0)),
        32,
        0.3,
        rng.next(),
    );
    let zones: AreaSource = Arc::new(datagen::neighborhoods(&extent(), 16, rng.next()));
    let shapes = vec![
        Query::SelectPoints {
            data: data.clone(),
            q: district.clone(),
        },
        heatmap_plan(&data, &district),
        Query::AggregateByZone {
            data: data.clone(),
            zones,
        },
        Query::SelectionHeatmap {
            data: data.clone(),
            q: corridor.clone(),
        },
    ];
    let mut tiles = Vec::with_capacity(21);
    for level in 0..3usize {
        let n = 1usize << level;
        let w = 100.0 / n as f64;
        for y in 0..n {
            for x in 0..n {
                let world = BBox::new(
                    Point::new(x as f64 * w, y as f64 * w),
                    Point::new((x + 1) as f64 * w, (y + 1) as f64 * w),
                );
                tiles.push(Viewport::square_pixels(world, sh.explore_res));
            }
        }
    }
    // The session script is fixed: every seed replays the same moves,
    // so the revisit pattern, and with it the hit share the latency
    // median sits on, does not change with the seed. The seed draws the
    // points and the polygons.
    let mut script = Rng::new(WALK_SEED, 3);
    let (mut level, mut x, mut y, mut shape) = (0usize, 0usize, 0usize, 0usize);
    let mut history = Vec::new();
    let mut walk = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        walk.push(Step {
            shape,
            tile: tile_index(level, x, y),
        });
        let r = script.unit();
        if r < BACK_SHARE {
            // "Back": return to the previous view.
            if let Some(prev) = history.pop() {
                (level, x, y, shape) = prev;
            }
            continue;
        }
        history.push((level, x, y, shape));
        let r = (r - BACK_SHARE) / (1.0 - BACK_SHARE);
        if r < 0.25 {
            shape = script.below(4);
        } else if r < 0.5 && level < 2 {
            level += 1;
            x = 2 * x + script.below(2);
            y = 2 * y + script.below(2);
        } else if r < 0.7 && level > 0 {
            level -= 1;
            x /= 2;
            y /= 2;
        } else if level > 0 {
            let n = 1usize << level;
            if script.below(2) == 0 {
                x = (x + 1 + script.below(2) * (n - 2)) % n;
            } else {
                y = (y + 1 + script.below(2) * (n - 2)) % n;
            }
        }
    }
    ExploreInputs {
        data,
        shapes,
        district,
        corridor,
        tiles,
        walk,
    }
}

/// The selection heatmap as an algebra plan, `V[log](M[point ∧ area]
/// (B[⊙](C_P, C_Q)))`: it shares `C_P`, `C_Q` and their blend with the
/// `SelectPoints` shape over the same polygon.
fn heatmap_plan(data: &Arc<PointBatch>, q: &Polygon) -> Query {
    Query::Plan(Expr::value_transform(
        "log",
        Arc::new(|_, mut t: Texel| {
            if let Some(mut d) = t.get(0) {
                d.v2 = (1.0 + d.v1).ln();
                t.set(0, d);
            }
            t
        }),
        Expr::mask(
            MaskSpec::PointInAreas(CountCond::Ge(1)),
            Expr::blend(
                BlendFn::PointOverArea,
                Expr::points(data.clone()),
                Expr::query_polygon(q.clone(), 1),
            ),
        ),
    ))
}

// ---------------------------------------------------------------- live

pub struct LiveInputs {
    pub base: PointBatch,
    pub feed: datagen::TripFeed,
    /// The three dashboard viewports refreshed on every tick.
    pub dashboards: Vec<Viewport>,
}

/// A seeded trip feed of `slots` append batches of about
/// `live_feed_per_tick` points each.
pub fn feed(size: Size, slots: usize, seed: u64) -> datagen::TripFeed {
    datagen::trip_feed(
        &extent(),
        size.shape().live_feed_per_tick * slots,
        slots as u16,
        Rng::new(seed, 4).next(),
    )
}

/// A 1M-point standing table, one trip-feed batch per tick (`extra`
/// spare batches for the traced run's probes), three dashboards.
pub fn live_inputs(size: Size, n_ticks: usize, extra: usize, seed: u64) -> LiveInputs {
    let sh = size.shape();
    let feed = feed(size, n_ticks + extra, seed);
    let dashboards = [
        BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        BBox::new(Point::new(10.0, 10.0), Point::new(60.0, 60.0)),
        BBox::new(Point::new(40.0, 30.0), Point::new(90.0, 80.0)),
    ]
    .into_iter()
    .map(|b| Viewport::square_pixels(b, sh.live_res))
    .collect();
    LiveInputs {
        base: points(sh.live_points, seed),
        feed,
        dashboards,
    }
}
