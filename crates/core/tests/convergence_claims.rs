//! Asserts the paper's convergence claims empirically, from the
//! `rlckit-trace` iteration histograms, over the same campaign grids
//! that regenerate Table 1 and Figs. 4–8.
//!
//! Banerjee & Mehrotra (DAC 2001) report that
//!
//! * the Eq. 3 delay crossing converges by Newton–Raphson "in less than
//!   four iterations in all cases", and
//! * the Eqs. 5–8 stationarity system converges "in less than six
//!   iterations in all cases".
//!
//! These tests hard-fail if solver changes push the campaign-wide
//! iteration *averages* past those claims (the strict per-solve maxima
//! get a small regression margin: the reproduction's bracketed Newton
//! trades a bisection safeguard for one or two extra iterations on the
//! worst points).
//!
//! Trace metrics are process-global, so the campaign runs exactly once
//! behind a `OnceLock` and every test asserts on the same snapshot
//! delta — concurrent test threads cannot pollute each other. The
//! random-configuration pool counts its iterations from
//! `delay_with_iterations` instead and reads no trace state.

use std::sync::OnceLock;

use rlckit::optimizer::segment_structure;
use rlckit::sweeps::standard_node_sweep;
use rlckit_numeric::rng::Rng;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_trace::Snapshot;
use rlckit_units::{HenriesPerMeter, Meters};

/// Grid density per node: the fig bins sweep 50 points over the paper's
/// `0 ≤ l < 5 nH/mm` range.
const GRID_POINTS: usize = 50;

/// Table 1's two nodes plus the Fig. 7 dielectric-control node.
fn campaign_nodes() -> Vec<TechNode> {
    let mut nodes = TechNode::table1();
    nodes.push(TechNode::nm100_with_250nm_dielectric());
    nodes
}

/// Runs the full campaign once and returns the trace delta it produced.
fn campaign_delta() -> &'static Snapshot {
    static DELTA: OnceLock<Snapshot> = OnceLock::new();
    DELTA.get_or_init(|| {
        // The claims are about clean solves: force fault injection off
        // even if the test process inherited RLCKIT_FAULTS.
        rlckit_fault::disarm();
        let before = rlckit_trace::snapshot();
        for node in campaign_nodes() {
            standard_node_sweep(&node, GRID_POINTS).expect("campaign sweep");
        }
        rlckit_trace::snapshot().since(&before)
    })
}

#[test]
fn eq3_delay_newton_averages_at_most_four_iterations() {
    let delta = campaign_delta();
    let iters = &delta.histograms["twopole.delay.iterations"];
    // Every optimizer point needs many delay solves; make sure the
    // campaign actually exercised the solver at scale.
    assert!(
        iters.count > 1_000,
        "campaign too small to test the claim: {} delay solves",
        iters.count
    );
    let mean = iters.mean();
    assert!(
        mean <= 4.0,
        "Eq. 3 Newton claim regressed: campaign average {mean:.3} iterations > 4"
    );
    // Regression margin over the paper's "all cases" wording: the
    // bracketed solver currently peaks at 7 on near-critical points.
    let max = iters.max_bucket().expect("nonempty histogram");
    assert!(max <= 8, "worst delay solve took {max} iterations");
}

/// The paper's "all cases" wording, off the campaign grid: 256 seeded
/// random `(l, h, k)` draws on the 100 nm node, `l ∈ [0, 5)` nH/mm,
/// `h ∈ [3, 30)` mm, `k ∈ [50, 1500)`, each solved once at the 50 %
/// threshold.
#[test]
fn eq3_delay_newton_averages_at_most_four_iterations_on_random_configs() {
    const DRAWS: usize = 256;
    rlckit_fault::disarm();
    let node = TechNode::nm100();
    let mut rng = Rng::new(0x5eed);
    let mut total = 0;
    let mut worst = 0;
    for _ in 0..DRAWS {
        let l = rng.uniform(0.0, 5.0);
        let h_mm = rng.uniform(3.0, 30.0);
        let k = rng.uniform(50.0, 1500.0);
        let line = LineRlc::new(
            node.line().resistance,
            HenriesPerMeter::from_nano_per_milli(l),
            node.line().capacitance,
        );
        let tp = segment_structure(&line, &node.driver(), Meters::from_milli(h_mm), k).two_pole();
        let (_, iterations) = tp.delay_with_iterations(0.5).expect("delay");
        total += iterations;
        worst = worst.max(iterations);
    }
    let mean = total as f64 / DRAWS as f64;
    assert!(
        mean <= 4.1,
        "Eq. 3 Newton claim regressed on random configs: mean {mean:.3} iterations > 4.1"
    );
    assert!(worst <= 8, "worst random-config delay solve took {worst} iterations");
}

#[test]
fn eqs5_to_8_optimizer_newton_averages_at_most_six_iterations() {
    let delta = campaign_delta();
    let iters = &delta.histograms["optimizer.newton.iterations"];
    let solves = campaign_nodes().len() * GRID_POINTS;
    assert_eq!(
        iters.count,
        solves as u64,
        "every campaign point must solve via Newton (no fallbacks)"
    );
    let mean = iters.mean();
    assert!(
        mean <= 6.0,
        "Eqs. 5-8 Newton claim regressed: campaign average {mean:.3} iterations > 6"
    );
    let max = iters.max_bucket().expect("nonempty histogram");
    assert!(max <= 10, "worst optimizer solve took {max} iterations");
}

#[test]
fn campaign_completes_without_surfaced_or_internal_failures() {
    let delta = campaign_delta();
    assert_eq!(
        delta.counters_ending_with(".no_convergence"),
        0,
        "campaign-level NoConvergence was surfaced"
    );
    assert_eq!(
        delta.counters_ending_with(".budget_exhausted"),
        0,
        "a solver exhausted its iteration budget"
    );
    assert_eq!(
        delta.counter("optimizer.fallbacks"),
        0,
        "the optimizer fell back to Nelder-Mead on a campaign point"
    );
    assert_eq!(
        delta.counter("roots.newton_system.relaxed_accepts"),
        0,
        "a stationarity solve only met the relaxed tolerance"
    );
}

#[test]
fn clean_campaign_spends_no_retry_budget() {
    // The retry ladder must be invisible on a clean pass: no transient
    // re-runs, no perturbed restarts, no degradations to Nelder-Mead,
    // no failed points — and, with injection disarmed, no injected
    // faults anywhere in the stack.
    let delta = campaign_delta();
    assert_eq!(delta.counter("optimizer.retries"), 0, "optimizer retried");
    assert_eq!(
        delta.counter("optimizer.degraded"),
        0,
        "optimizer degraded to the fallback"
    );
    assert_eq!(
        delta.counter("campaign.point_retries"),
        0,
        "a campaign point was retried"
    );
    assert_eq!(
        delta.counter("campaign.points_failed"),
        0,
        "a campaign point failed outright"
    );
    assert_eq!(
        delta.counters_ending_with(".injected_faults"),
        0,
        "an injected fault fired in a disarmed campaign"
    );
}
