//! Route planning: from the continuous optimum to an implementable
//! repeater plan.
//!
//! The paper minimizes delay per unit length, implicitly allowing a
//! fractional number of segments (`L/h`). A real route needs an integer
//! repeater count, and designers care about the cost side — total
//! repeater area and switching capacitance — as well as the delay. This
//! module discretizes the optimum and exposes the cost/delay trade-off.
//!
//! # Probe caching
//!
//! The golden-section size re-optimization probes `segment_delay` dozens
//! of times per point, and its caller then re-evaluates the delay at the
//! returned minimum — a value the bracket walk has already computed.
//! Every planner point therefore routes its probes through a per-point
//! memo table keyed on the exact bit patterns of `(h, k)`: a hit returns
//! the identical bits the miss produced, so cached and uncached runs are
//! bit-for-bit the same, and the post-solve re-evaluation is a
//! guaranteed hit ([`golden_section`](rlckit_numeric::minimize::golden_section)
//! evaluates its objective at the midpoint it returns). Hits and misses
//! are observable as the `planner.cache.hits` / `planner.cache.misses`
//! trace counters. Only `Ok` delays enter the table, and each retry
//! attempt starts with a fresh table, so injected faults can neither
//! poison a cache entry nor leak across perturbed restarts.

use std::cell::RefCell;

use rlckit_numeric::{NumericError, Result};
use rlckit_par::{par_map_guided, Parallelism};
use rlckit_tech::DriverParams;
use rlckit_trace::counter;
use rlckit_tline::LineRlc;
use rlckit_units::{Farads, Meters, Seconds};

use crate::optimizer::{optimize_rlc_with_retry, segment_delay, OptimizerOptions, RetryPolicy};
use crate::outcome::{run_point, PointOutcome, Solved};

/// Salt mixed into planner fault-scope keys so a planner point and a
/// sweep point with the same index draw independent fault decisions.
const PLANNER_SCOPE_SALT: u64 = 0x504C_0000_0000_0000;

/// An implementable repeater plan for a route of fixed length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePlan {
    /// Number of buffered segments (= number of repeaters).
    pub segments: usize,
    /// Realized segment length `L/N`.
    pub segment_length: Meters,
    /// Repeater size, re-optimized for the realized segment length.
    pub repeater_size: f64,
    /// Total route delay with the integer plan.
    pub total_delay: Seconds,
    /// The continuous-relaxation lower bound (`L/h_opt · τ_opt`).
    pub continuous_bound: Seconds,
    /// Total repeater input+parasitic capacitance of the plan — the
    /// switching-energy cost proxy (`N·k·(c₀+c_p)`).
    pub repeater_capacitance: Farads,
}

impl RoutePlan {
    /// Discretization penalty over the continuous relaxation (≥ 1).
    #[must_use]
    pub fn discretization_penalty(&self) -> f64 {
        self.total_delay.get() / self.continuous_bound.get()
    }
}

/// Per-point memo table for `segment_delay` probes, keyed on the exact
/// bit patterns of `(h, k)`. Linear scan: a planner point performs a few
/// dozen probes, so a sorted structure would cost more than it saves.
type ProbeCache = RefCell<Vec<((u64, u64), f64)>>;

/// [`segment_delay`] through a per-point probe cache. Hits return the
/// exact bits the original miss computed; only `Ok` delays are cached,
/// so a faulted probe is re-evaluated (and re-draws its fault decision)
/// on the next request for the same `(h, k)`.
fn segment_delay_cached(
    cache: &ProbeCache,
    line: &LineRlc,
    driver: &DriverParams,
    h: Meters,
    k: f64,
    threshold: f64,
) -> Result<Seconds> {
    let key = (h.get().to_bits(), k.to_bits());
    if let Some(&(_, d)) = cache.borrow().iter().find(|(k2, _)| *k2 == key) {
        counter!("planner.cache.hits").incr();
        return Ok(Seconds::new(d));
    }
    counter!("planner.cache.misses").incr();
    let d = segment_delay(line, driver, h, k, threshold)?;
    cache.borrow_mut().push((key, d.get()));
    Ok(d)
}

/// Re-optimizes the repeater size for a *fixed* segment length by
/// golden-section search on the rigorous delay (the `h` is dictated by
/// the integer segmentation; only `k` is free).
///
/// # Errors
///
/// Propagates delay-solver failures.
pub fn optimal_size_for_length(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    threshold: f64,
) -> Result<f64> {
    optimal_size_for_length_cached(
        &RefCell::new(Vec::new()),
        line,
        driver,
        segment_length,
        threshold,
    )
}

/// [`optimal_size_for_length`] with a caller-owned probe cache, so the
/// caller's follow-up `segment_delay` at the returned size reuses the
/// bracket walk's final evaluation instead of re-solving it.
fn optimal_size_for_length_cached(
    cache: &ProbeCache,
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    threshold: f64,
) -> Result<f64> {
    counter!("planner.size_reopts").incr();
    let objective = |ln_k: f64| {
        segment_delay_cached(cache, line, driver, segment_length, ln_k.exp(), threshold)
            .map_or(f64::INFINITY, |d| d.get())
    };
    let minimum = rlckit_numeric::minimize::golden_section(
        objective,
        (1.0f64).ln(),
        (20_000.0f64).ln(),
        1e-10,
        400,
    )?;
    Ok(minimum.x[0].exp())
}

/// Plans repeater insertion for a route of length `route_length`:
/// rounds the continuous optimum to the neighbouring integer segment
/// counts, re-optimizes `k` for each, and returns the faster plan.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] if the route is shorter than
/// one optimal segment (no repeater needed — drive it directly), and
/// propagates optimizer failures.
///
/// # Examples
///
/// ```
/// use rlckit::planner::plan_route;
/// use rlckit::prelude::*;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let node = TechNode::nm100();
/// let line = LineRlc::new(
///     node.line().resistance,
///     HenriesPerMeter::from_nano_per_milli(1.8),
///     node.line().capacitance,
/// );
/// let plan = plan_route(&line, &node.driver(), Meters::from_milli(40.0), 0.5)?;
/// assert!(plan.segments >= 2);
/// assert!(plan.discretization_penalty() < 1.05);
/// # Ok(())
/// # }
/// ```
pub fn plan_route(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
) -> Result<RoutePlan> {
    let policy = RetryPolicy::default();
    run_point(route_length.get().to_bits(), &policy, || {
        plan_route_attempt(line, driver, route_length, threshold, &policy)
    })
    .into_result()
}

fn plan_route_attempt(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    policy: &RetryPolicy,
) -> Result<Solved<RoutePlan>> {
    let options = OptimizerOptions {
        threshold,
        ..OptimizerOptions::default()
    };
    let continuous = optimize_rlc_with_retry(line, driver, options, policy)?;
    let length = route_length.get();
    let ideal_segments = length / continuous.segment_length.get();
    if ideal_segments < 1.0 {
        return Err(NumericError::InvalidInput(format!(
            "route ({route_length}) is shorter than one optimal segment ({}); \
             repeater insertion does not pay",
            continuous.segment_length
        )));
    }
    let continuous_bound = Seconds::new(continuous.delay_per_length() * length);

    // One probe cache per attempt: both candidate counts and their
    // post-solve delay re-evaluations share it (keys carry `h`, so the
    // two counts cannot collide), and a retried attempt starts fresh.
    let cache: ProbeCache = RefCell::new(Vec::new());
    let mut best: Option<RoutePlan> = None;
    for n in [ideal_segments.floor() as usize, ideal_segments.ceil() as usize] {
        if n == 0 {
            continue;
        }
        let h = Meters::new(length / n as f64);
        let k = optimal_size_for_length_cached(&cache, line, driver, h, threshold)?;
        let tau = segment_delay_cached(&cache, line, driver, h, k, threshold)?;
        let plan = assemble_plan(driver, n, h, k, tau, continuous_bound);
        if best
            .as_ref()
            .is_none_or(|b| plan.total_delay.get() < b.total_delay.get())
        {
            best = Some(plan);
        }
    }
    best.map(|plan| Solved {
        value: plan,
        restarts: continuous.restarts,
        degraded: continuous.used_fallback,
    })
    .ok_or_else(|| {
        NumericError::InvalidInput(format!(
            "no candidate segment count for route {route_length}"
        ))
    })
}

/// The delay/cost trade-off around the optimum: plans forced to use
/// `segments` repeaters for each count in `range`, exposing how much
/// delay each saved repeater costs.
///
/// Each count re-runs a golden-section size optimization, so the sweep
/// executes on the `rlckit-par` campaign engine by default (pure
/// per-count computation — output is bit-identical to serial).
///
/// # Errors
///
/// Propagates solver failures; counts of zero are skipped.
pub fn segment_count_tradeoff(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    range: impl IntoIterator<Item = usize>,
) -> Result<Vec<RoutePlan>> {
    segment_count_tradeoff_with(line, driver, route_length, threshold, range, Parallelism::Auto)
}

/// [`segment_count_tradeoff`] with an explicit execution policy
/// ([`Parallelism::Serial`] is the reference semantics).
///
/// # Errors
///
/// See [`segment_count_tradeoff`].
pub fn segment_count_tradeoff_with(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    range: impl IntoIterator<Item = usize>,
    parallelism: Parallelism,
) -> Result<Vec<RoutePlan>> {
    segment_count_tradeoff_outcomes(
        line,
        driver,
        route_length,
        threshold,
        range,
        &RetryPolicy::default(),
        parallelism,
    )?
    .into_iter()
    .map(PointOutcome::into_result)
    .collect()
}

/// The fault-tolerant trade-off engine: each segment count is solved
/// inside its own deterministic fault scope and recorded as a
/// [`PointOutcome`], so one failed count never aborts the sweep.
///
/// # Errors
///
/// Surfaces failures of the shared continuous solve (after its retry
/// ladder) and infrastructure failures of the campaign engine;
/// per-count solver failures are recorded in the outcomes.
pub fn segment_count_tradeoff_outcomes(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    range: impl IntoIterator<Item = usize>,
    policy: &RetryPolicy,
    parallelism: Parallelism,
) -> Result<Vec<PointOutcome<RoutePlan>>> {
    let options = OptimizerOptions {
        threshold,
        ..OptimizerOptions::default()
    };
    let continuous = run_point(route_length.get().to_bits(), policy, || {
        optimize_rlc_with_retry(line, driver, options, policy).map(|opt| Solved {
            restarts: opt.restarts,
            degraded: opt.used_fallback,
            value: opt,
        })
    })
    .into_result()?;
    let continuous_bound = Seconds::new(continuous.delay_per_length() * route_length.get());
    let counts: Vec<usize> = range.into_iter().filter(|&n| n > 0).collect();
    // Guided self-scheduling: per-count cost varies ~3× across the range
    // (small counts mean long segments and slow delay solves), so static
    // chunking leaves workers idle at the tail. Results are reassembled
    // in input order, so the outcome vector is bit-identical to serial
    // execution.
    par_map_guided(&counts, parallelism, |i, &n| {
        counter!("planner.points").incr();
        let outcome = run_point(PLANNER_SCOPE_SALT | i as u64, policy, || {
            plan_for_count(line, driver, route_length, threshold, continuous_bound, n)
        });
        if outcome.is_failed() {
            counter!("planner.no_convergence").incr();
        }
        Ok(outcome)
    })
}

/// Assembles the [`RoutePlan`] of a solved count (shared by every
/// planner path, so the derived quantities are the same expressions —
/// and hence the same bits — everywhere).
fn assemble_plan(
    driver: &DriverParams,
    n: usize,
    h: Meters,
    k: f64,
    tau: Seconds,
    continuous_bound: Seconds,
) -> RoutePlan {
    RoutePlan {
        segments: n,
        segment_length: h,
        repeater_size: k,
        total_delay: Seconds::new(tau.get() * n as f64),
        continuous_bound,
        repeater_capacitance: Farads::new(
            n as f64 * k * (driver.input_capacitance.get() + driver.parasitic_capacitance.get()),
        ),
    }
}

/// The solve of one forced segment count: re-optimize the repeater size
/// for the forced segment length, then re-evaluate the delay there (a
/// guaranteed probe-cache hit).
fn plan_for_count(
    line: &LineRlc,
    driver: &DriverParams,
    route_length: Meters,
    threshold: f64,
    continuous_bound: Seconds,
    n: usize,
) -> Result<Solved<RoutePlan>> {
    let cache: ProbeCache = RefCell::new(Vec::new());
    let h = Meters::new(route_length.get() / n as f64);
    let k = optimal_size_for_length_cached(&cache, line, driver, h, threshold)?;
    let tau = segment_delay_cached(&cache, line, driver, h, k, threshold)?;
    Ok(Solved::converged(assemble_plan(
        driver,
        n,
        h,
        k,
        tau,
        continuous_bound,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize_rlc;
    use rlckit_tech::TechNode;
    use rlckit_units::HenriesPerMeter;

    fn setup() -> (LineRlc, DriverParams) {
        let node = TechNode::nm100();
        (
            LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(1.8),
                node.line().capacitance,
            ),
            node.driver(),
        )
    }

    #[test]
    fn plan_rounds_the_continuous_optimum() {
        let (line, driver) = setup();
        let continuous =
            optimize_rlc(&line, &driver, OptimizerOptions::default()).unwrap();
        let route = Meters::from_milli(50.0);
        let plan = plan_route(&line, &driver, route, 0.5).unwrap();
        let ideal = route.get() / continuous.segment_length.get();
        assert!(
            plan.segments == ideal.floor() as usize || plan.segments == ideal.ceil() as usize
        );
        assert!((plan.segment_length.get() * plan.segments as f64 - route.get()).abs() < 1e-12);
    }

    #[test]
    fn integer_plan_cannot_beat_the_continuous_bound() {
        let (line, driver) = setup();
        for mm in [25.0, 40.0, 73.0] {
            let plan = plan_route(&line, &driver, Meters::from_milli(mm), 0.5).unwrap();
            assert!(
                plan.total_delay.get() >= plan.continuous_bound.get() * (1.0 - 1e-9),
                "{mm} mm: {:?}",
                plan
            );
            assert!(plan.discretization_penalty() < 1.1, "{mm} mm penalty");
        }
    }

    #[test]
    fn short_route_is_rejected() {
        let (line, driver) = setup();
        let err = plan_route(&line, &driver, Meters::from_milli(5.0), 0.5);
        assert!(err.is_err());
    }

    #[test]
    fn size_reoptimization_adapts_to_forced_length() {
        let (line, driver) = setup();
        // Shorter segments want smaller relative drive than the optimal-h
        // segments of the same line? Verify the re-optimized k actually
        // minimizes the delay at its h.
        let h = Meters::from_milli(9.0);
        let k = optimal_size_for_length(&line, &driver, h, 0.5).unwrap();
        let at = |kk: f64| segment_delay(&line, &driver, h, kk, 0.5).unwrap().get();
        assert!(at(k) <= at(k * 1.05) && at(k) <= at(k * 0.95));
    }

    /// Cached-vs-uncached bit identity for the size re-optimization:
    /// the reference below is the same golden-section walk probing
    /// `segment_delay` directly, with no cache anywhere. The cached
    /// public path must land on the same repeater size to the last bit
    /// for arbitrary lines and forced segment lengths.
    #[test]
    fn probe_cache_is_bit_transparent_for_the_size_reopt() {
        use rlckit_check::{gen, Check};
        Check::new().cases(12).run(
            &gen::tuple2(
                gen::range(0.4, 3.5),  // l in nH/mm
                gen::range(4.0, 16.0), // segment length in mm
            ),
            |(l, h_mm)| {
                let node = TechNode::nm100();
                let line = LineRlc::new(
                    node.line().resistance,
                    HenriesPerMeter::from_nano_per_milli(*l),
                    node.line().capacitance,
                );
                let driver = node.driver();
                let h = Meters::from_milli(*h_mm);
                let reference = rlckit_numeric::minimize::golden_section(
                    |ln_k| {
                        segment_delay(&line, &driver, h, ln_k.exp(), 0.5)
                            .map_or(f64::INFINITY, |d| d.get())
                    },
                    (1.0f64).ln(),
                    (20_000.0f64).ln(),
                    1e-10,
                    400,
                )
                .unwrap()
                .x[0]
                    .exp();
                let cached = optimal_size_for_length(&line, &driver, h, 0.5).unwrap();
                assert_eq!(
                    cached.to_bits(),
                    reference.to_bits(),
                    "cached size re-opt drifted at l = {l} nH/mm, h = {h_mm} mm"
                );
            },
        );
    }

    /// The engineered hit: `golden_section` evaluates its objective at
    /// the midpoint it returns, so the planner's post-solve
    /// `segment_delay` at the optimal size must find that probe in the
    /// per-point cache. This is the planner half of the tier-1 perf
    /// guard's cache-liveness check.
    #[test]
    fn size_reopt_probe_cache_hits_at_least_once_per_point() {
        let (line, driver) = setup();
        let before = rlckit_trace::snapshot();
        plan_route(&line, &driver, Meters::from_milli(40.0), 0.5).unwrap();
        let delta = rlckit_trace::snapshot().since(&before);
        assert!(
            delta.counter("planner.cache.hits") >= 1,
            "post-solve delay re-evaluation must hit the probe cache, got {} hits / {} misses",
            delta.counter("planner.cache.hits"),
            delta.counter("planner.cache.misses"),
        );
        assert!(delta.counter("planner.cache.misses") >= 1);
    }

    #[test]
    fn guided_tradeoff_matches_serial_bit_for_bit() {
        let (line, driver) = setup();
        let route = Meters::from_milli(60.0);
        let serial = segment_count_tradeoff_with(
            &line, &driver, route, 0.5, 1..=12, Parallelism::Serial,
        )
        .unwrap();
        for threads in [2, 5] {
            let guided = segment_count_tradeoff_with(
                &line, &driver, route, 0.5, 1..=12, Parallelism::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial.len(), guided.len());
            for (s, g) in serial.iter().zip(&guided) {
                assert_eq!(s.segments, g.segments, "{threads} threads");
                assert_eq!(
                    s.total_delay.get().to_bits(),
                    g.total_delay.get().to_bits(),
                    "{threads} threads, n = {}",
                    s.segments
                );
                assert_eq!(
                    s.repeater_size.to_bits(),
                    g.repeater_size.to_bits(),
                    "{threads} threads, n = {}",
                    s.segments
                );
            }
        }
    }

    #[test]
    fn tradeoff_is_convex_around_the_best_count() {
        let (line, driver) = setup();
        let route = Meters::from_milli(60.0);
        let best = plan_route(&line, &driver, route, 0.5).unwrap();
        let lo = best.segments.saturating_sub(2).max(1);
        let plans =
            segment_count_tradeoff(&line, &driver, route, 0.5, lo..=best.segments + 2).unwrap();
        let best_delay = plans
            .iter()
            .map(|p| p.total_delay.get())
            .fold(f64::MAX, f64::min);
        assert!((best.total_delay.get() - best_delay).abs() / best_delay < 1e-9);
        // Fewer repeaters always means less repeater capacitance.
        for w in plans.windows(2) {
            assert!(w[1].repeater_capacitance.get() > 0.0);
            assert!(w[1].segments > w[0].segments);
        }
    }
}
