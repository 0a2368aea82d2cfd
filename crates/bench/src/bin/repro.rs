//! `repro` — regenerates every figure of the paper's evaluation
//! (Section 6) plus the design ablations, printing paper-style tables
//! and writing CSVs under `results/`.
//!
//! ```text
//! cargo run -p canvas-bench --bin repro --release              # everything
//! cargo run -p canvas-bench --bin repro --release -- fig9a     # one figure
//! cargo run -p canvas-bench --bin repro --release -- --scale 0.2 fig9a
//! ```
//!
//! Input sizes are scaled down ~1000x from the paper's 50M–571M taxi
//! pickups to fit this container; the reported *ratios* (who wins, by
//! how much, how the margin moves) are the reproduction target. Modeled
//! times come from the device cost model (see canvas-raster docs);
//! wall-clock of the software pipeline is printed alongside.

use canvas_bench::*;
use std::collections::BTreeSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut wanted: BTreeSet<String> = BTreeSet::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scale needs a number");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale F] [fig9a fig9b fig9c fig9d fig10 agg reuse knn od resolution blend]"
                );
                return;
            }
            other => {
                wanted.insert(other.to_string());
            }
        }
        i += 1;
    }
    let run_all = wanted.is_empty();
    let want = |name: &str| run_all || wanted.contains(name);
    std::fs::create_dir_all("results").ok();

    let sizes: Vec<usize> = [50_000usize, 100_000, 200_000, 400_000, 800_000]
        .iter()
        .map(|&n| ((n as f64 * scale) as usize).max(1_000))
        .collect();
    let seed = 20200407; // the paper's arXiv date

    if want("fig9a") || want("fig9b") {
        banner("Figure 9(a,b): selection scaling, 1 polygonal constraint");
        let rows = figure9(&sizes, 1, DEFAULT_RESOLUTION, seed);
        print_rows(&rows);
        write_rows_csv("results/fig9ab.csv", &rows).expect("write results/fig9ab.csv");
    }

    if want("fig9c") || want("fig9d") {
        banner("Figure 9(c,d): selection scaling, 2-polygon disjunction");
        let rows = figure9(&sizes, 2, DEFAULT_RESOLUTION, seed + 1);
        print_rows(&rows);
        write_rows_csv("results/fig9cd.csv", &rows).expect("write results/fig9cd.csv");
    }

    if want("fig10") {
        banner("Figure 10: varying polygonal constraint (selectivity 3%..83%)");
        let n = ((150_000f64 * scale) as usize).max(1_000);
        let rows = figure10(n, DEFAULT_RESOLUTION, seed + 2);
        print_rows(&rows);
        write_rows_csv("results/fig10.csv", &rows).expect("write results/fig10.csv");
    }

    if want("agg") {
        banner("E6: spatial aggregation — RasterJoin plan vs join+aggregate (Sec 5.2)");
        let agg_sizes: Vec<usize> = sizes.iter().map(|&n| n / 2).collect();
        let rows = aggregation_experiment(&agg_sizes, 40, DEFAULT_RESOLUTION, seed + 3);
        print_rows(&rows);
        write_rows_csv("results/aggregation.csv", &rows).expect("write results/aggregation.csv");
    }

    if want("reuse") {
        banner("E7: operator reuse — identical plan for point and polygon data (Sec 4.1)");
        reuse_demo(seed + 4);
    }

    if want("knn") {
        banner("E8: kNN via circle ladder (Sec 4.4)");
        knn_demo(((50_000f64 * scale) as usize).max(1_000), seed + 5);
    }

    if want("od") {
        banner("E10: origin-destination selection (Sec 4.6)");
        od_demo(((100_000f64 * scale) as usize).max(1_000), seed + 6);
    }

    if want("resolution") {
        banner("A2: resolution ablation — approximate mode error vs time (Sec 5.1)");
        let rows = resolution_ablation(((100_000f64 * scale) as usize).max(1_000), seed + 7);
        println!(
            "{:>10} {:>12} {:>12}",
            "resolution", "wall (s)", "rel. error"
        );
        let mut csv = String::from("resolution,wall_secs,rel_error\n");
        for (res, wall, err) in &rows {
            println!("{res:>10} {wall:>12.4} {err:>12.5}");
            csv.push_str(&format!("{res},{wall:.6},{err:.6}\n"));
        }
        std::fs::write("results/resolution.csv", csv).expect("write results/resolution.csv");
    }

    if want("blend") {
        banner("A3: blend-plan ablation — unfused B* vs fused instanced draw (Sec 3.2/7)");
        let rows = blend_ablation(
            ((50_000f64 * scale) as usize).max(1_000),
            &[1, 2, 4, 8, 16],
            DEFAULT_RESOLUTION,
            seed + 8,
        );
        println!(
            "{:>12} {:>16} {:>16} {:>8}",
            "constraints", "unfused (model)", "fused (model)", "gain"
        );
        let mut csv = String::from("constraints,unfused_modeled,fused_modeled,gain\n");
        for (k, unfused, fused) in &rows {
            println!(
                "{k:>12} {unfused:>16.6} {fused:>16.6} {:>7.2}x",
                unfused / fused
            );
            csv.push_str(&format!(
                "{k},{unfused:.6},{fused:.6},{:.3}\n",
                unfused / fused
            ));
        }
        std::fs::write("results/blend_ablation.csv", csv)
            .expect("write results/blend_ablation.csv");
    }

    println!("\nCSV output written to results/.");
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn print_rows(rows: &[Row]) {
    for row in rows {
        println!("\n-- {} --", row.label);
        println!(
            "{:>18} {:>12} {:>14} {:>12}",
            "approach", "wall (s)", "modeled (s)", "speedup/CPU"
        );
        for (m, (_, sp)) in row.measurements.iter().zip(row.speedups()) {
            println!(
                "{:>18} {:>12.4} {:>14.6} {:>11.1}x",
                m.approach, m.wall_secs, m.modeled_secs, sp
            );
        }
    }
}

fn reuse_demo(seed: u64) {
    use canvas_core::prelude::*;
    use canvas_geom::{BBox, Point};
    use std::sync::Arc;

    let extent = city_extent();
    let vp = Viewport::square_pixels(extent, DEFAULT_RESOLUTION);
    let mbr = BBox::new(Point::new(20.0, 20.0), Point::new(80.0, 80.0));
    let q = canvas_datagen::star_polygon(&mbr, 64, 0.5, seed);

    // Same constraint, point data:
    let pts = canvas_datagen::taxi_pickups(&extent, 20_000, seed);
    let mut dev = Device::nvidia();
    let psel = canvas_core::queries::selection::select_points_in_polygon(
        &mut dev,
        vp,
        &PointBatch::from_points(pts),
        &q,
    );
    // Same constraint, polygon data — the same blend+mask operators:
    let zones: AreaSource = Arc::new(canvas_datagen::neighborhoods(&extent, 30, seed + 1));
    let ysel =
        canvas_core::queries::selection::select_polygons_intersecting(&mut dev, vp, &zones, &q);
    println!(
        "point data   : {} of 20000 records selected (plan: B[⊙] → M[Mp'])",
        psel.records.len()
    );
    println!(
        "polygon data : {} of 30 records selected   (plan: B[⊕] → M[My]) — same operators",
        ysel.records.len()
    );
}

fn knn_demo(n: usize, seed: u64) {
    use canvas_core::prelude::*;
    use canvas_geom::Point;
    let extent = city_extent();
    let vp = Viewport::square_pixels(extent, DEFAULT_RESOLUTION);
    let pts = canvas_datagen::taxi_pickups(&extent, n, seed);
    let batch = PointBatch::from_points(pts);
    let mut dev = Device::nvidia();
    let x = Point::new(45.0, 55.0);
    for k in [1usize, 10, 100] {
        let t0 = std::time::Instant::now();
        let ids = canvas_core::queries::knn::knn(&mut dev, vp, &batch, x, k);
        println!(
            "k = {k:>4}: {} neighbors in {:.3}s wall (nearest id {})",
            ids.len(),
            t0.elapsed().as_secs_f64(),
            ids.first().copied().unwrap_or(0)
        );
    }
}

fn od_demo(n: usize, seed: u64) {
    use canvas_geom::{BBox, Point};
    let extent = city_extent();
    let vp = canvas_raster::Viewport::square_pixels(extent, DEFAULT_RESOLUTION);
    let trips = canvas_datagen::generate_trips(&extent, n, 16, seed);
    let q1 = canvas_datagen::star_polygon(
        &BBox::new(Point::new(15.0, 15.0), Point::new(55.0, 55.0)),
        48,
        0.4,
        seed,
    );
    let q2 = canvas_datagen::star_polygon(
        &BBox::new(Point::new(45.0, 45.0), Point::new(90.0, 90.0)),
        48,
        0.4,
        seed + 1,
    );
    let mut dev = canvas_core::Device::nvidia();
    let t0 = std::time::Instant::now();
    let ids = canvas_core::queries::od::select_od(&mut dev, vp, &trips.od_batch(), &q1, &q2);
    println!(
        "{} of {n} trips start in Q1 and end in Q2 ({:.3}s wall, {:.6}s modeled)",
        ids.len(),
        t0.elapsed().as_secs_f64(),
        dev.modeled_time()
    );
}
