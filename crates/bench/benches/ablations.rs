//! Criterion benches for the design ablations A1 and A3:
//!
//! * A1 — conservative vs standard rasterization: the cost of the
//!   exactness machinery (boundary pass + refinement),
//! * A3 — fused instanced constraint draw vs unfused per-polygon blends.

use canvas_bench::city_extent;
use canvas_core::prelude::*;
use canvas_core::queries::selection::{points_in_polygons_plan, MultiPolygon};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

fn bench_conservative(c: &mut Criterion) {
    let extent = city_extent();
    let vp = Viewport::square_pixels(extent, 256);
    let mbr = canvas_geom::BBox::new(
        canvas_geom::Point::new(15.0, 15.0),
        canvas_geom::Point::new(85.0, 85.0),
    );
    let poly = canvas_datagen::star_polygon(&mbr, 128, 0.5, 52);
    let table: AreaSource = Arc::new(vec![poly]);

    let mut group = c.benchmark_group("ablation_conservative");
    group.sample_size(10);
    group.bench_function("conservative_render", |b| {
        b.iter(|| {
            let mut dev = Device::nvidia();
            canvas_core::source::render_polygon_with(
                &mut dev,
                vp,
                &table,
                0,
                Texel::area(1, 1.0, 0.0),
                true,
            )
            .non_null_count()
        })
    });
    group.bench_function("standard_render", |b| {
        b.iter(|| {
            let mut dev = Device::nvidia();
            canvas_core::source::render_polygon_with(
                &mut dev,
                vp,
                &table,
                0,
                Texel::area(1, 1.0, 0.0),
                false,
            )
            .non_null_count()
        })
    });
    group.finish();
}

fn bench_blend_fusion(c: &mut Criterion) {
    let extent = city_extent();
    let vp = Viewport::square_pixels(extent, 256);
    let mbr = canvas_geom::BBox::new(
        canvas_geom::Point::new(15.0, 15.0),
        canvas_geom::Point::new(85.0, 85.0),
    );
    let points = Arc::new(PointBatch::from_points(canvas_datagen::taxi_pickups(
        &extent, 10_000, 53,
    )));

    let mut group = c.benchmark_group("ablation_blend_fusion");
    group.sample_size(10);
    for k in [2usize, 8] {
        let polys: Vec<canvas_geom::Polygon> = (0..k)
            .map(|i| canvas_datagen::star_polygon(&mbr, 48, 0.5, 200 + i as u64))
            .collect();
        let plan = points_in_polygons_plan(points.clone(), &polys, MultiPolygon::Disjunction);

        group.bench_with_input(BenchmarkId::new("unfused", k), &k, |b, _| {
            let plan = plan.clone();
            b.iter(|| {
                let mut dev = Device::nvidia();
                plan.eval(&mut dev, vp).point_records().len()
            })
        });
        group.bench_with_input(BenchmarkId::new("fused", k), &k, |b, _| {
            let plan = canvas_core::algebra::optimize(plan.clone());
            b.iter(|| {
                let mut dev = Device::nvidia();
                plan.eval(&mut dev, vp).point_records().len()
            })
        });
    }
    group.finish();
}

/// Refinement-kernel ablation: linear edge walk vs BVH ray cast (the
/// paper's Section 5 ray-tracing alternative) across polygon complexity.
fn bench_refinement_kernels(c: &mut Criterion) {
    let extent = city_extent();
    let mbr = canvas_geom::BBox::new(
        canvas_geom::Point::new(15.0, 15.0),
        canvas_geom::Point::new(85.0, 85.0),
    );
    let points = canvas_datagen::taxi_pickups(&extent, 10_000, 54);

    let mut group = c.benchmark_group("ablation_refinement");
    group.sample_size(10);
    for verts in [64usize, 512] {
        let poly = canvas_datagen::star_polygon(&mbr, verts, 0.5, 55);
        group.bench_with_input(BenchmarkId::new("linear_pip", verts), &verts, |b, _| {
            b.iter(|| {
                canvas_baseline::select_scalar(&points, std::slice::from_ref(&poly))
                    .records
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("bvh_raycast", verts), &verts, |b, _| {
            b.iter(|| {
                canvas_baseline::select_scalar_bvh(&points, std::slice::from_ref(&poly))
                    .records
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_conservative,
    bench_blend_fusion,
    bench_refinement_kernels
);
criterion_main!(benches);
