//! `paper_sweep`: the three Table 1 nodes over a seeded dense inductance
//! grid, through `inductance_sweep_outcomes`, serial and at `nproc`
//! threads. A closed-loop batch job: only the cold-solve stack runs.

use std::time::{Duration, Instant};

use rlckit::optimizer::{OptimizerOptions, RetryPolicy};
use rlckit::outcome::PointOutcome;
use rlckit::sweeps::{inductance_sweep_outcomes, SweepPoint};
use rlckit_par::Parallelism;
use rlckit_tech::TechNode;
use rlckit_units::HenriesPerMeter;

use crate::util::{median, repeat_for, secs, Report, Rng};
use crate::Ctx;

/// Grid points per node. 4000 makes one parallel sweep of all three
/// nodes take a few hundred milliseconds, so a run holds dozens.
const POINTS_PER_NODE: usize = 4000;
const TINY_POINTS_PER_NODE: usize = 24;
/// Points per node of the set-up warm-up sweep: one lockstep column.
const WARM_UP_POINTS: usize = 8;

/// Fig. 7 bands on `τ(4.95 nH/mm) / τ(0)`, as in `tests/paper_results.rs`.
const FIG7_BANDS: [(&str, f64, f64); 2] = [("250nm", 1.7, 2.4), ("100nm", 2.6, 3.6)];

/// One node's grid.
pub struct NodeGrid {
    pub name: &'static str,
    pub node: TechNode,
    pub inductances: Vec<HenriesPerMeter>,
}

pub fn nodes() -> [(&'static str, TechNode); 3] {
    [
        ("250nm", TechNode::nm250()),
        ("100nm", TechNode::nm100()),
        ("100nm_eps33", TechNode::nm100_with_250nm_dielectric()),
    ]
}

/// A stratified seeded grid over 0–4.95 nH/mm: the end points are exact
/// (the Fig. 7 ratio is taken between them) and each interior point is
/// drawn uniformly inside its own cell, so every seed covers the range
/// with the same density.
pub fn seeded_grid(seed: u64, salt: u64, points: usize) -> Vec<HenriesPerMeter> {
    let mut rng = Rng::new(seed, salt);
    let cell = 4.95 / (points - 1) as f64;
    (0..points)
        .map(|i| {
            let nh_mm = if i == 0 || i + 1 == points {
                cell * i as f64
            } else {
                cell * (i as f64 - 0.5 + rng.unit())
            };
            HenriesPerMeter::from_nano_per_milli(nh_mm)
        })
        .collect()
}

pub fn inputs(seed: u64, points_per_node: usize) -> Vec<NodeGrid> {
    nodes()
        .into_iter()
        .enumerate()
        .map(|(i, (name, node))| NodeGrid {
            name,
            node,
            inductances: seeded_grid(seed, 100 + i as u64, points_per_node),
        })
        .collect()
}

pub fn points_per_node(ctx: &Ctx) -> usize {
    if ctx.tiny {
        TINY_POINTS_PER_NODE
    } else {
        POINTS_PER_NODE
    }
}

/// Sweeps every node at `parallelism`; returns the outcomes per node and
/// the wall time.
pub fn sweep_all(
    grids: &[NodeGrid],
    parallelism: Parallelism,
) -> (Vec<Vec<PointOutcome<SweepPoint>>>, Duration) {
    let start = Instant::now();
    let outcomes = grids
        .iter()
        .map(|g| {
            inductance_sweep_outcomes(
                &g.node.line(),
                &g.node.driver(),
                g.inductances.iter().copied(),
                OptimizerOptions::default(),
                &RetryPolicy::default(),
                parallelism,
            )
            .expect("the sweep engine reports solver failures per point")
        })
        .collect();
    (outcomes, start.elapsed())
}

fn point_bits(p: &SweepPoint) -> [u64; 9] {
    [
        p.inductance.get().to_bits(),
        p.h_opt.to_bits(),
        p.k_opt.to_bits(),
        p.delay_per_length.to_bits(),
        p.h_ratio.to_bits(),
        p.k_ratio.to_bits(),
        p.l_crit.to_bits(),
        p.rc_design_delay_per_length.to_bits(),
        p.damping as u64,
    ]
}

/// Bitwise equality of two outcomes, variant and retry count included.
pub fn same_outcome(a: &PointOutcome<SweepPoint>, b: &PointOutcome<SweepPoint>) -> bool {
    use PointOutcome::{Converged, Degraded, Failed, Retried};
    match (a, b) {
        (Converged(x), Converged(y)) => point_bits(x) == point_bits(y),
        (
            Retried {
                value: x,
                attempts: i,
            },
            Retried {
                value: y,
                attempts: j,
            },
        )
        | (
            Degraded {
                value: x,
                attempts: i,
            },
            Degraded {
                value: y,
                attempts: j,
            },
        ) => i == j && point_bits(x) == point_bits(y),
        (Failed { attempts: i, .. }, Failed { attempts: j, .. }) => i == j,
        _ => false,
    }
}

/// Failed or degraded points: neither is the paper's rigorous optimum.
pub fn bad_points(outcomes: &[Vec<PointOutcome<SweepPoint>>]) -> u64 {
    outcomes
        .iter()
        .flatten()
        .filter(|o| {
            matches!(
                o,
                PointOutcome::Failed { .. } | PointOutcome::Degraded { .. }
            )
        })
        .count() as u64
}

/// The Fig. 7 gate: the top-of-grid delay ratio of each banded node.
pub fn fig7_gate(
    grids: &[NodeGrid],
    outcomes: &[Vec<PointOutcome<SweepPoint>>],
    report: &mut Report,
) {
    for (grid, node_outcomes) in grids.iter().zip(outcomes) {
        let Some(&(_, lo, hi)) = FIG7_BANDS.iter().find(|(n, ..)| *n == grid.name) else {
            continue;
        };
        let delay = |o: Option<&PointOutcome<SweepPoint>>| {
            o.and_then(PointOutcome::value)
                .map_or(f64::NAN, |p| p.delay_per_length)
        };
        let ratio = delay(node_outcomes.last()) / delay(node_outcomes.first());
        report.gate((lo..hi).contains(&ratio), || {
            format!(
                "Fig. 7 ratio of {} is {ratio}, outside [{lo}, {hi})",
                grid.name
            )
        });
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let n = points_per_node(ctx);
    // Set-up: generate the grids, then warm the program up with one
    // sweep column per node at full parallelism (thread start, lazy
    // statics, first-touch of the solver's code and data).
    let setups: Vec<f64> = (0..ctx.setup_reps)
        .map(|_| {
            let t = Instant::now();
            let mut warm = inputs(ctx.seed, n);
            for g in &mut warm {
                g.inductances.truncate(WARM_UP_POINTS);
            }
            std::hint::black_box(sweep_all(&warm, Parallelism::Threads(ctx.nproc)));
            secs(t.elapsed())
        })
        .collect();
    let grids = inputs(ctx.seed, n);
    let points: usize = grids.iter().map(|g| g.inductances.len()).sum();
    let threads = Parallelism::Threads(ctx.nproc);

    let mut first = true;
    let pairs = repeat_for(ctx.budget, 3, || {
        let (serial, t_serial) = sweep_all(&grids, Parallelism::Serial);
        let (parallel, t_parallel) = sweep_all(&grids, threads);
        let identical = serial
            .iter()
            .flatten()
            .zip(parallel.iter().flatten())
            .all(|(a, b)| same_outcome(a, b));
        if first {
            fig7_gate(&grids, &parallel, report);
            first = false;
        }
        (
            identical,
            bad_points(&parallel),
            secs(t_serial),
            secs(t_parallel),
        )
    });
    for (rep, &(identical, ..)) in pairs.iter().enumerate() {
        report.gate(identical, || {
            format!("serial and parallel sweeps differ in rep {rep}")
        });
    }
    report.attempted = (pairs.len() * points) as u64;
    report.failed = pairs.iter().map(|p| p.1).sum();

    let serial: Vec<f64> = pairs.iter().map(|p| p.2).collect();
    let parallel: Vec<f64> = pairs.iter().map(|p| p.3).collect();
    eprintln!(
        "perfbench: paper_sweep {points} points x {} reps, serial {:.1} ms, {} threads {:.1} ms",
        pairs.len(),
        median(&serial) * 1e3,
        ctx.nproc,
        median(&parallel) * 1e3
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("points_per_s", points as f64 / median(&parallel), "1/s");
    report.metric(
        "serial_points_per_s",
        points as f64 / median(&serial),
        "1/s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_point_trips_the_gates() {
        let grids = inputs(1, 3);
        let (outcomes, _) = sweep_all(&grids, Parallelism::Serial);
        let mut clean = Report::default();
        fig7_gate(&grids, &outcomes, &mut clean);
        assert!(clean.correct());

        let good = &outcomes[0][2];
        assert!(same_outcome(good, good));
        let mut bad = outcomes.clone();
        let scale = |outcomes: &mut Vec<Vec<PointOutcome<SweepPoint>>>, f: fn(f64) -> f64| {
            let PointOutcome::Converged(top) = &mut outcomes[0][2] else {
                panic!("the top of the 250 nm grid converges")
            };
            top.delay_per_length = f(top.delay_per_length);
        };
        scale(&mut bad, |d| f64::from_bits(d.to_bits() + 1));
        assert!(!same_outcome(good, &bad[0][2]));

        scale(&mut bad, |d| d * 10.0);
        let mut report = Report::default();
        fig7_gate(&grids, &bad, &mut report);
        assert!(!report.correct());
    }
}
