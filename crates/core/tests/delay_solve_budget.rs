//! The cost of one cold optimum, counted in Eq. (3) delay solves.
//!
//! Each evaluation of the Eqs. (5)–(8) stationarity system costs one
//! delay solve and yields the residual together with its exact
//! Jacobian, so an optimum costs one solve per Newton iterate plus any
//! line-search trials: about 6.6 on the campaign grids. Any extra
//! evaluation per iteration (a finite-difference Jacobian costs four)
//! breaks the budget of 7.
//!
//! Trace counters are process-global, so the tests in this binary
//! serialize on `LOCK`.

use std::sync::{Mutex, PoisonError};

use rlckit::optimizer::{optimize_rlc, OptimizerOptions};
use rlckit_numeric::NumericError;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

static LOCK: Mutex<()> = Mutex::new(());

fn line(node: &TechNode, l: HenriesPerMeter) -> LineRlc {
    LineRlc::new(node.line().resistance, l, node.line().capacitance)
}

#[test]
fn an_optimum_costs_at_most_seven_delay_solves_on_average() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    rlckit_fault::disarm();
    let mut nodes = TechNode::table1();
    nodes.push(TechNode::nm100_with_250nm_dielectric());
    let grid = rlckit_numeric::grid::linspace(0.0, 4.95, 50);

    let before = rlckit_trace::snapshot();
    let mut calls = 0u64;
    for node in &nodes {
        for &l in &grid {
            let l = HenriesPerMeter::from_nano_per_milli(l);
            let opt = optimize_rlc(&line(node, l), &node.driver(), OptimizerOptions::default())
                .expect("campaign point converges");
            assert!(!opt.used_fallback && opt.restarts == 0);
            calls += 1;
        }
    }
    let delta = rlckit_trace::snapshot().since(&before);
    assert_eq!(delta.counter("optimizer.solves"), calls);
    let per_call = delta.counter("twopole.delay.solves") as f64 / calls as f64;
    assert!(
        per_call <= 7.0,
        "{per_call:.2} delay solves per optimize_rlc call (budget 7)"
    );
}

#[test]
fn an_infinite_inductance_line_fails_at_once_as_invalid_input() {
    // The degenerate start fails the point with the non-retryable
    // InvalidInput class: no retry, no perturbed restart and no
    // Nelder–Mead fallback is spent on it.
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    rlckit_fault::disarm();
    let node = TechNode::nm250();
    let before = rlckit_trace::snapshot();
    let result = optimize_rlc(
        &line(&node, HenriesPerMeter::new(f64::INFINITY)),
        &node.driver(),
        OptimizerOptions::default(),
    );
    let delta = rlckit_trace::snapshot().since(&before);
    assert!(
        matches!(result, Err(NumericError::InvalidInput(_))),
        "expected InvalidInput, got {result:?}"
    );
    assert_eq!(delta.counter("optimizer.retries"), 0);
    assert_eq!(delta.counter("optimizer.fallbacks"), 0);
    assert_eq!(delta.counter("optimizer.degraded"), 0);
}
