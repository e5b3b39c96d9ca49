//! Benchmarks the figure-generation sweeps (Figs. 4–8): the full
//! per-point optimization pipeline that regenerates the paper's
//! evaluation curves, plus the serial-vs-parallel campaign baseline
//! (`rlckit-par`). Speedup entries record the thread count they ran
//! with, so results from differently-sized hosts stay comparable.

use std::hint::black_box;

use rlckit::optimizer::OptimizerOptions;
use rlckit::sweeps::{delay_ratio_series, inductance_sweep_with, standard_node_sweep};
use rlckit_bench::timer::{BenchOptions, Harness};
use rlckit_bench::variation::{run_variation_study_with, VariationConfig};
use rlckit_par::{available_threads, Parallelism};
use rlckit_tech::TechNode;
use rlckit_units::HenriesPerMeter;

/// Inductance-grid size for the serial-vs-parallel campaign baseline.
const CAMPAIGN_POINTS: usize = 200;

/// Physical core count. Recorded next to `threads` in every speedup
/// entry so a ~1× ratio from a single-CPU recording is legible as such
/// (and so `tier1.sh` can skip its parallel-speedup assertion there).
fn cores() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

fn bench_standard_sweep(h: &mut Harness) {
    let opts = BenchOptions::with_samples(20);
    for points in [5usize, 25] {
        let node = TechNode::nm100();
        h.bench_profiled(
            &format!("standard_100nm_{points}"),
            &opts,
            || black_box(standard_node_sweep(&node, points).expect("sweep")),
            |delta| {
                let points = delta.counter("sweeps.points").max(1) as f64;
                vec![
                    (
                        "optimizer_newton_iterations_per_solve".to_string(),
                        delta.histograms["optimizer.newton.iterations"].mean(),
                    ),
                    (
                        "delay_iterations_per_solve".to_string(),
                        delta.histograms["twopole.delay.iterations"].mean(),
                    ),
                    (
                        "no_convergence_per_point".to_string(),
                        delta.counters_ending_with(".no_convergence") as f64 / points,
                    ),
                    (
                        "delay_solves_per_point".to_string(),
                        delta.counter("twopole.delay.solves") as f64 / points,
                    ),
                ]
            },
        );
    }
}

fn bench_figure_series(h: &mut Harness) {
    let node = TechNode::nm250();
    let sweep = standard_node_sweep(&node, 25).expect("sweep");
    h.bench("fig7_series_from_sweep", || {
        black_box(delay_ratio_series(black_box(&sweep)))
    });
}

fn bench_campaign_parallelism(h: &mut Harness) {
    let opts = BenchOptions::with_samples(10);
    let node = TechNode::nm100();
    let grid: Vec<HenriesPerMeter> = rlckit_numeric::grid::linspace(0.0, 4.95, CAMPAIGN_POINTS)
        .into_iter()
        .map(HenriesPerMeter::from_nano_per_milli)
        .collect();
    for (name, policy) in [
        ("campaign_sweep_serial", Parallelism::Serial),
        ("campaign_sweep_parallel", Parallelism::Auto),
    ] {
        h.bench_with(name, &opts, || {
            black_box(
                inductance_sweep_with(
                    &node.line(),
                    &node.driver(),
                    grid.iter().copied(),
                    OptimizerOptions::default(),
                    policy,
                )
                .expect("sweep"),
            )
        });
    }
    h.record_speedup(
        "campaign_sweep_speedup",
        "campaign_sweep_serial",
        "campaign_sweep_parallel",
        &[("threads", available_threads() as f64), ("cores", cores())],
    );

    let cfg = VariationConfig {
        samples: 512,
        ..VariationConfig::default()
    };
    for (name, policy) in [
        ("monte_carlo_serial", Parallelism::Serial),
        ("monte_carlo_parallel", Parallelism::Auto),
    ] {
        h.bench_with(name, &opts, || {
            black_box(run_variation_study_with(&node, &cfg, policy))
        });
    }
    h.record_speedup(
        "monte_carlo_speedup",
        "monte_carlo_serial",
        "monte_carlo_parallel",
        &[("threads", available_threads() as f64), ("cores", cores())],
    );
}

fn main() {
    let mut h = Harness::from_args("sweeps");
    bench_standard_sweep(&mut h);
    bench_figure_series(&mut h);
    bench_campaign_parallelism(&mut h);
    h.finish();
}
