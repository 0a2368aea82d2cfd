//! # canvas-datagen
//!
//! Seeded synthetic workloads standing in for the paper's evaluation
//! data (NYC taxi trips + hand-drawn query polygons):
//!
//! * [`points`] — uniform and Gaussian-hotspot point clouds
//!   (`taxi_pickups` is the standard benchmark workload),
//! * [`trips`] — origin–destination trip tables with fare / passenger /
//!   time-slot attributes,
//! * [`polygons`] — "hand-drawn" star polygons with MBR normalization
//!   and **selectivity calibration** (the Figure 10 setup),
//! * [`neighborhoods()`] — exact Voronoi-cell partitions of the extent
//!   (the polygon side of aggregation queries).
//!
//! Everything is deterministic given a seed, so experiments reproduce.

pub mod neighborhoods;
pub mod points;
pub mod polygons;
pub mod trips;

pub use neighborhoods::{jittered_sites, neighborhoods, neighborhoods_detailed, subdivide_polygon};
pub use points::{clustered_points, default_hotspots, taxi_pickups, uniform_points, Hotspot};
pub use polygons::{calibrated_polygon, fit_to_bbox, selectivity, star_polygon};
pub use trips::{generate_trips, trip_feed, TripFeed, Trips};
