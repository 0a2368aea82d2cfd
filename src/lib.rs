//! # canvas-algebra
//!
//! Umbrella crate for the Rust reproduction of *"A GPU-friendly
//! Geometric Data Model and Algebra for Spatial Queries"* (Doraiswamy &
//! Freire, SIGMOD 2020). It re-exports the workspace crates under one
//! roof and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! * [`geom`] — geometry substrate (primitives, predicates, indexes),
//! * [`raster`] — software graphics pipeline + GPU device cost model,
//! * [`core`] — the canvas data model, the algebra, and the paper's
//!   query formulations,
//! * [`engine`] — the concurrent query-serving engine (admission,
//!   fingerprint-keyed canvas cache, fair-share pass scheduling),
//! * [`baseline`] — CPU / parallel-CPU / traditional-GPU baselines,
//! * [`datagen`] — seeded synthetic workloads (taxi trips, calibrated
//!   query polygons, neighborhood partitions),
//! * [`obs`] — observability: trace spans, the histogram metrics
//!   registry, and the Chrome-trace/Perfetto exporter (see
//!   `docs/OBSERVABILITY.md`).
//!
//! See `README.md` for a tour, `docs/ARCHITECTURE.md` for the system
//! inventory and the GPU substitution, and `docs/BENCHMARKS.md` for the
//! recorded measurements.

pub use canvas_baseline as baseline;
pub use canvas_core as core;
pub use canvas_datagen as datagen;
pub use canvas_engine as engine;
pub use canvas_geom as geom;
pub use canvas_obs as obs;
pub use canvas_raster as raster;

/// One-stop prelude for applications: the core prelude plus workload
/// generators.
pub mod prelude {
    pub use canvas_core::prelude::*;
    pub use canvas_datagen::{
        calibrated_polygon, generate_trips, neighborhoods, neighborhoods_detailed, star_polygon,
        taxi_pickups, uniform_points,
    };
    pub use canvas_geom::{BBox, GeomObject, Point, Polygon, Polyline, Primitive};
}
