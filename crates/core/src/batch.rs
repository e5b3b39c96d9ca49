//! Many independent optima in one call.
//!
//! [`optimize_batch`] is a loop: each point runs the scalar solve,
//! [`crate::outcome::run_point`] around
//! [`crate::optimizer::optimize_rlc_with_retry`], under its own fault
//! scope. Sweeps, campaign shards and the planner share that per-point
//! path.

use rlckit_tech::DriverParams;
use rlckit_tline::LineRlc;

use crate::optimizer::{optimize_rlc_with_retry, OptimizerOptions, RetryPolicy, RlcOptimum};
use crate::outcome::{run_point, PointOutcome, Solved};

/// One point of a batched optimization: the full RLC line description
/// plus the point's deterministic fault-scope key (its original grid
/// index in a campaign, so injection decisions are independent of
/// batching, thread count, and resume).
#[derive(Debug, Clone)]
pub struct RlcPoint {
    /// The line to optimize `(h, k)` for.
    pub line: LineRlc,
    /// Fault scope key (stable grid identity of the point).
    pub scope: u64,
}

/// Optimizes every point of `points` for minimum delay per unit length:
/// [`crate::outcome::run_point`] around [`optimize_rlc_with_retry`] on
/// each point in sequence.
///
/// # Examples
///
/// ```
/// use rlckit::batch::{optimize_batch, RlcPoint};
/// use rlckit::optimizer::{optimize_rlc_with_retry, OptimizerOptions, RetryPolicy};
/// use rlckit_tech::TechNode;
/// use rlckit_tline::LineRlc;
/// use rlckit_units::HenriesPerMeter;
///
/// let node = TechNode::nm250();
/// let points: Vec<RlcPoint> = (0..6)
///     .map(|i| RlcPoint {
///         line: LineRlc::new(
///             node.line().resistance,
///             HenriesPerMeter::from_nano_per_milli(0.5 * i as f64),
///             node.line().capacitance,
///         ),
///         scope: i,
///     })
///     .collect();
/// let options = OptimizerOptions::default();
/// let policy = RetryPolicy::default();
/// let batched = optimize_batch(&points, &node.driver(), options, &policy);
/// for (p, outcome) in points.iter().zip(&batched) {
///     let scalar = optimize_rlc_with_retry(&p.line, &node.driver(), options, &policy).unwrap();
///     let got = outcome.value().unwrap();
///     assert_eq!(
///         scalar.segment_length.get().to_bits(),
///         got.segment_length.get().to_bits()
///     );
/// }
/// ```
#[must_use]
pub fn optimize_batch(
    points: &[RlcPoint],
    driver: &DriverParams,
    options: OptimizerOptions,
    policy: &RetryPolicy,
) -> Vec<PointOutcome<RlcOptimum>> {
    points
        .iter()
        .map(|p| {
            run_point(p.scope, policy, || {
                optimize_rlc_with_retry(&p.line, driver, options, policy).map(|opt| Solved {
                    restarts: opt.restarts,
                    degraded: opt.used_fallback,
                    value: opt,
                })
            })
        })
        .collect()
}
