//! The paper's contribution: rigorous RLC repeater-insertion optimization.
//!
//! Minimizes the delay per unit length `τ/h` of a buffered distributed
//! RLC line over segment length `h` and repeater size `k` by solving the
//! stationarity system `g₁ = g₂ = 0` of Eqs. (7)–(8) with a damped
//! Newton iteration:
//!
//! * the moments `b₁`, `b₂` and their `∂/∂h`, `∂/∂k` are analytic;
//! * the pole sensitivities `∂s₁,₂/∂h,k` use the paper's closed form,
//!   carried in complex arithmetic so the same code covers the over- and
//!   under-damped regimes (the residuals are real by conjugate symmetry);
//! * the `f·100 %` delay `τ` inside the residuals is the rigorous Newton
//!   solve of Eq. (3) ([`rlckit_tline::twopole::TwoPole::delay`]);
//! * the outer Jacobian of `(g₁, g₂)` is taken by central differences,
//!   which is robust across the critically-damped manifold.
//!
//! A derivative-free Nelder–Mead minimizer over `(ln h, ln k)` is
//! provided both as an automatic fallback and as an independent
//! cross-check ([`optimize_rlc_direct`]); property tests assert the two
//! agree.

use std::cell::RefCell;

use rlckit_numeric::fd::central_jacobian;
use rlckit_numeric::minimize::{nelder_mead, NelderMeadOptions};
use rlckit_numeric::rng::Rng;
use rlckit_numeric::roots::{newton_system, RootOptions};
use rlckit_numeric::{Complex, NumericError, Result};
use rlckit_tech::DriverParams;
use rlckit_trace::{counter, histogram, span};
use rlckit_tline::twopole::{Damping, TwoPole};
use rlckit_tline::{DriverInterconnectLoad, LineRlc};
use rlckit_units::{Farads, HenriesPerMeter, Meters, Ohms, Seconds};

use crate::elmore::rc_optimum;

/// Options for the RLC optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerOptions {
    /// Delay threshold `f` (0.5 = the 50 % delay).
    pub threshold: f64,
    /// Relative convergence tolerance on `(h, k)`.
    pub tolerance: f64,
    /// Newton iteration budget.
    pub max_iterations: usize,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        Self {
            threshold: 0.5,
            tolerance: 1e-10,
            max_iterations: 60,
        }
    }
}

/// Policy for retrying failed optimizer solves before degrading to the
/// derivative-free fallback.
///
/// The retry ladder distinguishes two failure kinds:
///
/// * **Transient** failures (injected faults from `rlckit-fault`): the
///   solve is re-run unchanged — a transient fault fires at most once
///   per scope attempt, so a plain re-run is pure and lands on the
///   exact same iterate path (and hence bit-identical results).
/// * **Numerical** failures (budget exhausted, singular Jacobian,
///   non-finite residual): the Newton solve is re-seeded from a
///   deterministically perturbed starting point drawn from a split RNG
///   stream, up to [`RetryPolicy::max_restarts`] times.
///
/// If the ladder is exhausted and
/// [`RetryPolicy::nelder_mead_fallback`] is set, the solve degrades to
/// [`optimize_rlc_direct`] and the result is marked
/// [`RlcOptimum::used_fallback`]. Domain errors
/// ([`rlckit_numeric::FailureClass::InvalidInput`]) are never retried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Plain re-runs allowed for injected (transient) faults.
    pub max_transient_retries: u32,
    /// Perturbed restarts allowed for numerical failures.
    pub max_restarts: u32,
    /// Relative perturbation applied to the scaled starting point
    /// `(h/h₀, k/k₀) = (1, 1)` on each restart.
    pub perturbation: f64,
    /// Seed of the restart RNG. Fixed by default so retried campaigns
    /// are reproducible run-to-run.
    pub seed: u64,
    /// Degrade to the Nelder–Mead minimizer once retries are exhausted
    /// instead of surfacing the last error.
    pub nelder_mead_fallback: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_transient_retries: 2,
            max_restarts: 2,
            perturbation: 0.05,
            // "RLC_SEED" in ASCII.
            seed: 0x524c_435f_5345_4544,
            nelder_mead_fallback: true,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never degrades: the first
    /// failure is surfaced as-is. Useful in tests that need to observe
    /// raw solver errors.
    #[must_use]
    pub fn fail_fast() -> Self {
        Self {
            max_transient_retries: 0,
            max_restarts: 0,
            perturbation: 0.0,
            seed: 0,
            nelder_mead_fallback: false,
        }
    }
}

/// The result of an RLC repeater-insertion optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlcOptimum {
    /// Optimal segment length `h_optRLC`.
    pub segment_length: Meters,
    /// Optimal repeater size `k_optRLC` (× minimum).
    pub repeater_size: f64,
    /// The `f·100 %` delay of one optimal segment.
    pub segment_delay: Seconds,
    /// Damping regime of the optimal configuration.
    pub damping: Damping,
    /// Critical inductance `l_crit` at the optimal `(h, k)` (Eq. 4).
    pub critical_inductance: HenriesPerMeter,
    /// Outer iterations spent (Newton steps, or simplex evaluations for
    /// the fallback path).
    pub iterations: usize,
    /// True if the Newton solve failed and the Nelder–Mead fallback
    /// produced this result.
    pub used_fallback: bool,
    /// Retries spent before this result was produced (transient
    /// re-runs plus perturbed restarts; 0 on the clean first-attempt
    /// path).
    pub restarts: u32,
}

impl RlcOptimum {
    /// Delay per unit length `τ/h` at the optimum, in s/m.
    #[must_use]
    pub fn delay_per_length(&self) -> f64 {
        self.segment_delay.get() / self.segment_length.get()
    }

    /// Total delay of a line of the given length cut into optimal
    /// segments.
    #[must_use]
    pub fn total_delay(&self, line_length: Meters) -> Seconds {
        Seconds::new(self.delay_per_length() * line_length.get())
    }
}

/// Builds the driver–interconnect–load structure for a repeater of size
/// `k` driving a segment of length `h`.
///
/// # Panics
///
/// Panics unless `h` and `k` are strictly positive.
#[must_use]
pub fn segment_structure(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    repeater_size: f64,
) -> DriverInterconnectLoad {
    DriverInterconnectLoad::new(
        Ohms::new(driver.output_resistance.get() / repeater_size),
        Farads::new(driver.parasitic_capacitance.get() * repeater_size),
        *line,
        segment_length,
        Farads::new(driver.input_capacitance.get() * repeater_size),
    )
}

/// The rigorous `f·100 %` delay of one buffered segment at `(h, k)`.
///
/// # Errors
///
/// Propagates [`rlckit_tline::twopole::TwoPole::delay`] failures
/// (invalid threshold), or [`NumericError::InvalidInput`] for
/// degenerate moments (campaign paths must fail the point, never
/// panic the process).
pub fn segment_delay(
    line: &LineRlc,
    driver: &DriverParams,
    segment_length: Meters,
    repeater_size: f64,
    threshold: f64,
) -> Result<Seconds> {
    segment_structure(line, driver, segment_length, repeater_size)
        .try_two_pole()?
        .delay(threshold)
}

/// Moments and their analytic sensitivities at `(h, k)`.
struct MomentDerivatives {
    b1: f64,
    b2: f64,
    db1_dh: f64,
    db1_dk: f64,
    db2_dh: f64,
    db2_dk: f64,
}

fn moment_derivatives(line: &LineRlc, driver: &DriverParams, h: f64, k: f64) -> MomentDerivatives {
    let r = line.resistance().get();
    let l = line.inductance().get();
    let c = line.capacitance().get();
    let rs = driver.output_resistance.get();
    let c0 = driver.input_capacitance.get();
    let cp = driver.parasitic_capacitance.get();

    let rch2 = r * c * h * h;
    // b₁ = r_s(c_p+c₀) + rch²/2 + r_s·c·h/k + c₀·r·h·k
    let b1 = rs * (cp + c0) + rch2 / 2.0 + rs * c * h / k + c0 * r * h * k;
    let db1_dh = r * c * h + rs * c / k + c0 * r * k;
    let db1_dk = -rs * c * h / (k * k) + c0 * r * h;

    // b₂ = lch²/2 + (rch²)²/24 + r_s(c_p+c₀)·rch²/2
    //    + (r_s·c·h/k + c₀·r·h·k)·rch²/6 + c₀·k·l·h + r_s·c_p·c₀·k·r·h
    let mixed = rs * c * h / k + c0 * r * h * k;
    let b2 = l * c * h * h / 2.0
        + rch2 * rch2 / 24.0
        + rs * (cp + c0) * rch2 / 2.0
        + mixed * rch2 / 6.0
        + c0 * k * l * h
        + rs * cp * c0 * k * r * h;
    let dmixed_dh = rs * c / k + c0 * r * k;
    let dmixed_dk = -rs * c * h / (k * k) + c0 * r * h;
    let drch2_dh = 2.0 * r * c * h;
    let db2_dh = l * c * h
        + rch2 * drch2_dh / 12.0
        + rs * (cp + c0) * drch2_dh / 2.0
        + (dmixed_dh * rch2 + mixed * drch2_dh) / 6.0
        + c0 * k * l
        + rs * cp * c0 * k * r;
    let db2_dk = dmixed_dk * rch2 / 6.0 + c0 * l * h + rs * cp * c0 * r * h;

    MomentDerivatives {
        b1,
        b2,
        db1_dh,
        db1_dk,
        db2_dh,
        db2_dk,
    }
}

/// Pole pair and their sensitivities (complex when underdamped).
struct PoleDerivatives {
    s1: Complex,
    s2: Complex,
    ds1_dh: Complex,
    ds2_dh: Complex,
    ds1_dk: Complex,
    ds2_dk: Complex,
}

fn pole_derivatives(m: &MomentDerivatives) -> PoleDerivatives {
    let disc = m.b1 * m.b1 - 4.0 * m.b2;
    // Nudge exact criticality so 1/w stays finite; the FD outer Jacobian
    // absorbs the resulting O(ε) noise.
    let disc = if disc.abs() < 1e-30 { 1e-30 } else { disc };
    let w = Complex::from_real(disc).sqrt();
    let two_b2 = 2.0 * m.b2;
    let s1 = (w - m.b1) / two_b2;
    let s2 = (-w - m.b1) / two_b2;

    let ds = |db1: f64, db2: f64| -> (Complex, Complex) {
        let core = (Complex::from_real(m.b1 * db1 - 2.0 * db2)) / w;
        let d1 = (core - db1) / two_b2 - s1 * (db2 / m.b2);
        let d2 = ((-core) - db1) / two_b2 - s2 * (db2 / m.b2);
        (d1, d2)
    };
    let (ds1_dh, ds2_dh) = ds(m.db1_dh, m.db2_dh);
    let (ds1_dk, ds2_dk) = ds(m.db1_dk, m.db2_dk);
    PoleDerivatives {
        s1,
        s2,
        ds1_dh,
        ds2_dh,
        ds1_dk,
        ds2_dk,
    }
}

/// Evaluates the stationarity residuals `(g₁, g₂)` of Eqs. (7)–(8) at
/// `(h, k)`, divided by `(s₂ − s₁)` and normalized to relative
/// stationarity violations.
///
/// Dividing by `(s₂ − s₁)` matters: the paper's `gᵢ` come from Eq. 3
/// *multiplied by* `(s₂ − s₁)`, so with a complex-conjugate pole pair
/// they are purely imaginary — the information lives in `g/(s₂ − s₁)`,
/// which is real in both damping regimes and continuous across the
/// critical boundary. The normalizer `|∂F/∂τ|·τ/h` (resp. `τ/k`) turns
/// the residual into "relative error of the stationarity condition",
/// making the Newton tolerance meaningful across technologies.
fn residuals(
    line: &LineRlc,
    driver: &DriverParams,
    h: f64,
    k: f64,
    threshold: f64,
) -> Result<[f64; 2]> {
    let m = moment_derivatives(line, driver, h, k);
    let p = pole_derivatives(&m);
    // `try_new`, not `new`: a perturbed restart or a degenerate sweep
    // point can reach non-positive moments, which must fail the point
    // (non-retryable InvalidInput), never panic the campaign process.
    let tau = TwoPole::try_new(m.b1, m.b2)?.delay(threshold)?.get();

    let one_minus_f = 1.0 - threshold;
    let e1 = (p.s1 * tau).exp();
    let e2 = (p.s2 * tau).exp();
    let diff = p.s2 - p.s1;

    // g₁ (Eq. 7): stationarity in h with dτ/dh = τ/h substituted.
    let g1 = (p.ds2_dh - p.ds1_dh) * one_minus_f - p.ds2_dh * e1 + p.ds1_dh * e2
        - p.s2 * tau * (p.ds1_dh + p.s1 / h) * e1
        + p.s1 * tau * (p.ds2_dh + p.s2 / h) * e2;

    // g₂ (Eq. 8): stationarity in k with dτ/dk = 0 substituted.
    let g2 = (p.ds2_dk - p.ds1_dk) * one_minus_f - p.ds2_dk * e1 - p.s2 * tau * p.ds1_dk * e1
        + p.ds1_dk * e2
        + p.s1 * tau * p.ds2_dk * e2;

    // ∂F/∂τ / (s₂ − s₁) = s₁s₂·(e^{s₂τ} − e^{s₁τ})/(s₂ − s₁): finite and
    // nonzero everywhere the first crossing exists.
    let f_tau = p.s1 * p.s2 * (e2 - e1) / diff;
    let f_tau_mag = f_tau.abs().max(f64::MIN_POSITIVE);

    let out1 = (g1 / diff).re / (f_tau_mag * tau / h);
    let out2 = (g2 / diff).re / (f_tau_mag * tau / k);
    Ok([out1, out2])
}

/// Exact-bit-keyed memo of successful residual evaluations for one
/// optimizer call.
///
/// The key is the raw bit pattern of `(h, k)`, so a hit returns the
/// *identical* `f64` bits a fresh evaluation would produce — which is
/// what keeps the `rlckit-par` serial/parallel determinism contract
/// intact with caching enabled. Only `Ok` results are stored: an
/// injected fault or a numerical failure is never cached, so retry
/// re-runs and perturbed restarts can never be served a poisoned or
/// stale entry (every stored value is a pure function of the key).
///
/// Lookup is a linear scan: one Newton solve touches a few dozen
/// distinct probe points at most, where a scan beats hashing the key.
type ResidualCache = RefCell<Vec<((u64, u64), [f64; 2])>>;

/// [`residuals`] through the per-call cache, with
/// `optimizer.cache.hits`/`optimizer.cache.misses` telemetry.
fn residuals_cached(
    cache: &ResidualCache,
    line: &LineRlc,
    driver: &DriverParams,
    h: f64,
    k: f64,
    threshold: f64,
) -> Result<[f64; 2]> {
    let key = (h.to_bits(), k.to_bits());
    if let Some(&(_, g)) = cache.borrow().iter().find(|(k2, _)| *k2 == key) {
        counter!("optimizer.cache.hits").incr();
        return Ok(g);
    }
    counter!("optimizer.cache.misses").incr();
    let g = residuals(line, driver, h, k, threshold)?;
    cache.borrow_mut().push((key, g));
    Ok(g)
}

/// Optimizes `(h, k)` for minimum delay per unit length by the paper's
/// Newton method on the stationarity residuals, starting from the Elmore
/// optimum. Falls back to [`optimize_rlc_direct`] if Newton fails.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for a threshold outside
/// `(0, 1)`, or propagates the fallback minimizer's failure (does not
/// occur for physical technology parameters).
///
/// # Examples
///
/// ```
/// use rlckit::optimizer::{optimize_rlc, OptimizerOptions};
/// use rlckit_tech::TechNode;
/// use rlckit_tline::LineRlc;
/// use rlckit_units::HenriesPerMeter;
///
/// # fn main() -> Result<(), rlckit_numeric::NumericError> {
/// let node = TechNode::nm250();
/// let line = LineRlc::new(
///     node.line().resistance,
///     HenriesPerMeter::from_nano_per_milli(1.0),
///     node.line().capacitance,
/// );
/// let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default())?;
/// // With inductance the optimal segments are longer than the RC optimum…
/// assert!(opt.segment_length.get() > 0.0144);
/// // …and the repeater smaller than k_optRC = 578.
/// assert!(opt.repeater_size < 578.0);
/// # Ok(())
/// # }
/// ```
pub fn optimize_rlc(
    line: &LineRlc,
    driver: &DriverParams,
    options: OptimizerOptions,
) -> Result<RlcOptimum> {
    optimize_rlc_with_retry(line, driver, options, &RetryPolicy::default())
}

/// [`optimize_rlc`] with an explicit [`RetryPolicy`] governing how
/// solver failures are retried before degrading to the Nelder–Mead
/// fallback.
///
/// The clean first-attempt path is bit-identical to the historical
/// [`optimize_rlc`]: the retry machinery only engages once the Newton
/// solve fails. Transient (injected) faults are re-run unchanged;
/// numerical failures are re-seeded from deterministically perturbed
/// starting points before falling back.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for a threshold outside
/// `(0, 1)`; once the ladder is exhausted (and the fallback is disabled
/// or also fails), surfaces the last solver error.
pub fn optimize_rlc_with_retry(
    line: &LineRlc,
    driver: &DriverParams,
    options: OptimizerOptions,
    policy: &RetryPolicy,
) -> Result<RlcOptimum> {
    if !(0.0 < options.threshold && options.threshold < 1.0) {
        return Err(NumericError::InvalidInput(format!(
            "delay threshold must lie in (0, 1), got {}",
            options.threshold
        )));
    }
    counter!("optimizer.solves").incr();
    let _span = span!("optimizer.solve");
    let rc = rc_optimum(
        &rlckit_tech::LineParams::new(line.resistance(), line.capacitance()),
        driver,
    );
    let h0 = rc.segment_length.get();
    let k0 = rc.repeater_size;

    // Unknowns are scaled: u = (h/h₀, k/k₀). The residual cache is
    // shared by the Newton evaluations, the FD Jacobian probes and the
    // pre-flight warm-up below, for the lifetime of this call.
    let cache: ResidualCache = RefCell::new(Vec::new());
    let eval = |u: &[f64], out: &mut [f64]| {
        let (h, k) = (u[0] * h0, u[1] * k0);
        if h <= 0.0 || k <= 0.0 {
            out[0] = f64::NAN;
            out[1] = f64::NAN;
            return;
        }
        match residuals_cached(&cache, line, driver, h, k, options.threshold) {
            Ok(g) => {
                out[0] = g[0];
                out[1] = g[1];
            }
            Err(_) => {
                out[0] = f64::NAN;
                out[1] = f64::NAN;
            }
        }
    };
    let jac = |u: &[f64], m: &mut rlckit_numeric::dense::Matrix| {
        let j = central_jacobian(eval, u, 2, 1e-6);
        for i in 0..2 {
            for jj in 0..2 {
                m[(i, jj)] = j[(i, jj)];
            }
        }
    };

    let mut restart_rng = Rng::new(policy.seed);
    let mut u0 = [1.0, 1.0];
    let mut transient_retries = 0u32;
    let mut restarts = 0u32;
    let last_error = loop {
        // Pre-flight: evaluate the residuals at the starting point
        // through the cache before handing the solver the same closure.
        // The solver's own first evaluation at `u0` then *hits*, so the
        // miss here replaces (rather than adds to) the first delay
        // solve — every optimizer call performs at least one cache hit
        // at zero net cost, which the tier-1 perf guard checks. A
        // failing start feeds the retry ladder the genuine error class:
        // injected faults re-run, numerical failures restart perturbed,
        // and a degenerate start (InvalidInput) fails the point at once
        // instead of burning restarts on NaN residuals.
        let preflight = {
            let (h, k) = (u0[0] * h0, u0[1] * k0);
            if h <= 0.0 || k <= 0.0 {
                Err(NumericError::InvalidInput(format!(
                    "optimizer start must be positive, got h = {h:e}, k = {k:e}"
                )))
            } else {
                residuals_cached(&cache, line, driver, h, k, options.threshold)
            }
        };
        let attempt = preflight
            .and_then(|_| {
                newton_system(
                    eval,
                    jac,
                    &u0,
                    RootOptions {
                        x_tol: options.tolerance,
                        f_tol: 1e-10,
                        max_iterations: options.max_iterations,
                        // Explicitly requested: the FD outer Jacobian limits the
                        // achievable stationarity residual, so a budget-exhausted
                        // solve that got below 1e-9 is still a usable optimum (the
                        // Nelder–Mead fallback would find the same point more
                        // slowly).
                        relaxed_f_tol: Some(1e-9),
                    },
                )
            })
            .and_then(|sol| {
                if sol.x[0] > 0.0 && sol.x[1] > 0.0 {
                    Ok(sol)
                } else {
                    Err(NumericError::NoConvergence {
                        iterations: sol.iterations,
                        residual: sol.residual,
                    })
                }
            })
            .and_then(|sol| {
                histogram!("optimizer.newton.iterations").observe(sol.iterations as u64);
                let h = sol.x[0] * h0;
                let k = sol.x[1] * k0;
                finish(line, driver, h, k, options.threshold, sol.iterations, false)
            });

        match attempt {
            Ok(mut opt) => {
                opt.restarts = transient_retries + restarts;
                return Ok(opt);
            }
            Err(e) => {
                let injected = e.is_injected() || rlckit_fault::poisoned();
                if injected && transient_retries < policy.max_transient_retries {
                    // Transient: a plain re-run of the same attempt is
                    // pure once the one-shot injection has fired.
                    transient_retries += 1;
                } else if !injected && e.is_retryable() && restarts < policy.max_restarts {
                    restarts += 1;
                    let mut child = restart_rng.split();
                    u0 = [
                        1.0 + policy.perturbation * child.uniform(-1.0, 1.0),
                        1.0 + policy.perturbation * child.uniform(-1.0, 1.0),
                    ];
                } else {
                    break e;
                }
                counter!("optimizer.retries").incr();
                rlckit_fault::next_attempt();
            }
        }
    };

    if !policy.nelder_mead_fallback || !last_error.is_retryable() {
        return Err(last_error);
    }
    counter!("optimizer.fallbacks").incr();
    counter!("optimizer.degraded").incr();
    let direct = optimize_rlc_direct(line, driver, options)?;
    Ok(RlcOptimum {
        used_fallback: true,
        restarts: transient_retries + restarts,
        ..direct
    })
}

/// Derivative-free reference optimizer: Nelder–Mead over `(ln h, ln k)`
/// minimizing the rigorous delay per unit length.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for a threshold outside
/// `(0, 1)` and propagates simplex failures.
pub fn optimize_rlc_direct(
    line: &LineRlc,
    driver: &DriverParams,
    options: OptimizerOptions,
) -> Result<RlcOptimum> {
    if !(0.0 < options.threshold && options.threshold < 1.0) {
        return Err(NumericError::InvalidInput(format!(
            "delay threshold must lie in (0, 1), got {}",
            options.threshold
        )));
    }
    let rc = rc_optimum(
        &rlckit_tech::LineParams::new(line.resistance(), line.capacitance()),
        driver,
    );
    let h0 = rc.segment_length.get();
    let k0 = rc.repeater_size;

    let objective = |u: &[f64]| {
        let h = h0 * u[0].exp();
        let k = k0 * u[1].exp();
        match segment_delay(line, driver, Meters::new(h), k, options.threshold) {
            Ok(tau) => tau.get() / h,
            Err(_) => f64::INFINITY,
        }
    };
    let minimum = nelder_mead(
        objective,
        &[0.0, 0.0],
        NelderMeadOptions {
            initial_scale: 0.25,
            f_tol: 1e-13,
            x_tol: 1e-9,
            max_evaluations: 4000,
        },
    )?;
    let h = h0 * minimum.x[0].exp();
    let k = k0 * minimum.x[1].exp();
    finish(line, driver, h, k, options.threshold, minimum.evaluations, true)
}

fn finish(
    line: &LineRlc,
    driver: &DriverParams,
    h: f64,
    k: f64,
    threshold: f64,
    iterations: usize,
    used_fallback: bool,
) -> Result<RlcOptimum> {
    let dil = segment_structure(line, driver, Meters::new(h), k);
    let two_pole = dil.try_two_pole()?;
    Ok(RlcOptimum {
        segment_length: Meters::new(h),
        repeater_size: k,
        segment_delay: two_pole.delay(threshold)?,
        damping: two_pole.damping(),
        critical_inductance: dil.critical_inductance(),
        iterations,
        used_fallback,
        restarts: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_tech::TechNode;
    use rlckit_units::{FaradsPerMeter, OhmsPerMeter};

    fn line_for(node: &TechNode, l_nh_mm: f64) -> LineRlc {
        LineRlc::new(
            node.line().resistance,
            HenriesPerMeter::from_nano_per_milli(l_nh_mm),
            node.line().capacitance,
        )
    }

    #[test]
    fn results_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RlcOptimum>();
        assert_send_sync::<OptimizerOptions>();
    }

    #[test]
    fn moment_derivatives_match_finite_differences() {
        let node = TechNode::nm250();
        let line = line_for(&node, 2.0);
        let d = node.driver();
        let (h, k) = (0.015, 400.0);
        let m = moment_derivatives(&line, &d, h, k);
        let eps_h = h * 1e-6;
        let eps_k = k * 1e-6;
        let b1 = |h: f64, k: f64| moment_derivatives(&line, &d, h, k).b1;
        let b2 = |h: f64, k: f64| moment_derivatives(&line, &d, h, k).b2;
        assert!(
            ((b1(h + eps_h, k) - b1(h - eps_h, k)) / (2.0 * eps_h) - m.db1_dh).abs()
                < 1e-6 * m.db1_dh.abs()
        );
        assert!(
            ((b1(h, k + eps_k) - b1(h, k - eps_k)) / (2.0 * eps_k) - m.db1_dk).abs()
                < 1e-6 * m.db1_dk.abs().max(1e-20)
        );
        assert!(
            ((b2(h + eps_h, k) - b2(h - eps_h, k)) / (2.0 * eps_h) - m.db2_dh).abs()
                < 1e-6 * m.db2_dh.abs()
        );
        assert!(
            ((b2(h, k + eps_k) - b2(h, k - eps_k)) / (2.0 * eps_k) - m.db2_dk).abs()
                < 1e-6 * m.db2_dk.abs().max(1e-30)
        );
    }

    #[test]
    fn moments_agree_with_dil_closed_forms() {
        let node = TechNode::nm100();
        let line = line_for(&node, 1.5);
        let d = node.driver();
        let (h, k) = (0.011, 500.0);
        let m = moment_derivatives(&line, &d, h, k);
        let dil = segment_structure(&line, &d, Meters::new(h), k);
        assert!((m.b1 - dil.b1()).abs() / dil.b1() < 1e-12);
        assert!((m.b2 - dil.b2()).abs() / dil.b2() < 1e-12);
    }

    #[test]
    fn pole_derivatives_match_finite_differences() {
        let node = TechNode::nm250();
        let d = node.driver();
        for l in [0.5, 3.0] {
            let line = line_for(&node, l);
            let (h, k) = (0.016, 450.0);
            let p_at = |h: f64, k: f64| pole_derivatives(&moment_derivatives(&line, &d, h, k));
            let p = p_at(h, k);
            let eps = h * 1e-6;
            let fd1 = (p_at(h + eps, k).s1 - p_at(h - eps, k).s1) / (2.0 * eps);
            assert!(
                (fd1 - p.ds1_dh).abs() < 1e-4 * p.ds1_dh.abs(),
                "l={l}: {fd1} vs {}",
                p.ds1_dh
            );
            let eps = k * 1e-6;
            let fd2 = (p_at(h, k + eps).s2 - p_at(h, k - eps).s2) / (2.0 * eps);
            assert!(
                (fd2 - p.ds2_dk).abs() < 1e-4 * p.ds2_dk.abs(),
                "l={l}: {fd2} vs {}",
                p.ds2_dk
            );
        }
    }

    #[test]
    fn newton_agrees_with_direct_minimizer() {
        let node = TechNode::nm250();
        for l in [0.0, 0.5, 2.0, 4.5] {
            let line = line_for(&node, l);
            let newton = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
            let direct =
                optimize_rlc_direct(&line, &node.driver(), OptimizerOptions::default()).unwrap();
            assert!(
                (newton.segment_length / direct.segment_length - 1.0).abs() < 5e-3,
                "l={l}: h {} vs {}",
                newton.segment_length,
                direct.segment_length
            );
            assert!(
                (newton.repeater_size / direct.repeater_size - 1.0).abs() < 5e-3,
                "l={l}: k {} vs {}",
                newton.repeater_size,
                direct.repeater_size
            );
        }
    }

    #[test]
    fn optimum_is_stationary_for_the_objective() {
        let node = TechNode::nm100();
        let line = line_for(&node, 2.0);
        let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        let obj = |h: f64, k: f64| {
            segment_delay(&line, &node.driver(), Meters::new(h), k, 0.5)
                .unwrap()
                .get()
                / h
        };
        let best = obj(opt.segment_length.get(), opt.repeater_size);
        for (hs, ks) in [(1.02, 1.0), (0.98, 1.0), (1.0, 1.02), (1.0, 0.98)] {
            let perturbed = obj(opt.segment_length.get() * hs, opt.repeater_size * ks);
            assert!(
                perturbed >= best * (1.0 - 1e-9),
                "perturbation ({hs},{ks}) went below the optimum"
            );
        }
    }

    #[test]
    fn zero_inductance_optimum_sits_just_below_rc_optimum() {
        // Paper §3.1: at l = 0 the two-pole optimization gives h slightly
        // smaller than h_optRC — an effect the curve-fitted baselines
        // cannot produce.
        let node = TechNode::nm250();
        let line = line_for(&node, 0.0);
        let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        let rc = rc_optimum(&node.line(), &node.driver());
        let ratio = opt.segment_length / rc.segment_length;
        assert!(ratio < 1.0, "h ratio {ratio}");
        assert!(ratio > 0.75, "h ratio {ratio}");
    }

    #[test]
    fn trends_with_inductance_match_figs_5_and_6() {
        let node = TechNode::nm100();
        let mut last_h = 0.0;
        let mut last_k = f64::INFINITY;
        for l in [0.5, 1.5, 2.5, 3.5, 4.5] {
            let line = line_for(&node, l);
            let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
            assert!(opt.segment_length.get() > last_h, "h not increasing at l={l}");
            assert!(opt.repeater_size < last_k, "k not decreasing at l={l}");
            last_h = opt.segment_length.get();
            last_k = opt.repeater_size;
        }
    }

    #[test]
    fn k_flattens_at_large_inductance() {
        // Fig. 6 shows k_optRLC falling and flattening. (The paper reads
        // the flat tail as impedance matching; within the two-pole model
        // the driver resistance r_s/k does rise with l but stays below
        // √(l/c) — the flattening itself is what the model reproduces.)
        let node = TechNode::nm100();
        let k_at = |l: f64| {
            optimize_rlc(&line_for(&node, l), &node.driver(), OptimizerOptions::default())
                .unwrap()
                .repeater_size
        };
        let (k1, k2, k4) = (k_at(1.0), k_at(2.0), k_at(4.0));
        let drop_first = k1 - k2;
        let drop_second = k2 - k4;
        assert!(drop_first > 0.0 && drop_second > 0.0, "k must keep falling");
        // Per-unit-l slope flattens: the second octave drops at less than
        // half the rate of the first.
        assert!(
            drop_second / 2.0 < drop_first,
            "k not flattening: {drop_first} then {drop_second} over double the span"
        );
    }

    #[test]
    fn threshold_is_configurable() {
        let node = TechNode::nm250();
        let line = line_for(&node, 1.0);
        let d90 = optimize_rlc(
            &line,
            &node.driver(),
            OptimizerOptions {
                threshold: 0.9,
                ..OptimizerOptions::default()
            },
        )
        .unwrap();
        let d50 = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        assert!(d90.segment_delay.get() > d50.segment_delay.get());
    }

    #[test]
    fn invalid_threshold_is_rejected() {
        let node = TechNode::nm250();
        let line = line_for(&node, 1.0);
        for f in [0.0, 1.0, -0.2] {
            let err = optimize_rlc(
                &line,
                &node.driver(),
                OptimizerOptions {
                    threshold: f,
                    ..OptimizerOptions::default()
                },
            );
            assert!(err.is_err(), "f={f}");
        }
    }

    #[test]
    fn newton_path_is_used_and_fast() {
        let node = TechNode::nm250();
        let line = line_for(&node, 2.0);
        let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        assert!(!opt.used_fallback, "newton path expected");
        // Paper: ≤ 6 iterations; damping can add a few.
        assert!(opt.iterations <= 15, "{} iterations", opt.iterations);
    }

    #[test]
    fn degenerate_point_fails_the_point_not_the_process() {
        // Pre-fix this test PANICKED: with zero inductance and an
        // infinite segment length the second moment evaluates to
        // 0·∞ = NaN, and `TwoPole::new`'s assert killed the whole
        // campaign process. The fault-tolerant-campaign contract is
        // per-point isolation: the degenerate point must record
        // `PointOutcome::Failed` with the non-retryable InvalidInput
        // class, spending zero retries.
        use crate::outcome::{run_point, PointOutcome, Solved};
        let node = TechNode::nm250();
        let line = line_for(&node, 0.0);
        let outcome = run_point(0, &RetryPolicy::default(), || {
            segment_delay(
                &line,
                &node.driver(),
                Meters::new(f64::INFINITY),
                578.0,
                0.5,
            )
            .map(|tau| Solved::converged(tau.get()))
        });
        match outcome {
            PointOutcome::Failed { attempts, error } => {
                assert_eq!(attempts, 0, "InvalidInput must never be retried");
                assert!(
                    matches!(error, NumericError::InvalidInput(_)),
                    "expected InvalidInput, got {error:?}"
                );
            }
            other => panic!("degenerate point must fail the point, got {other:?}"),
        }
    }

    /// The cache-transparency contract, property-tested: for arbitrary
    /// `(l, h, k)` draws, a cache miss, a cache hit, and a direct
    /// (uncached) evaluation of the stationarity residuals must all
    /// return the same bits — and errors must never be cached.
    #[test]
    fn residual_cache_is_bit_transparent_for_random_points() {
        use rlckit_check::{gen, Check};
        Check::new().cases(60).run(
            &gen::tuple3(
                gen::range(0.2, 4.5),    // l in nH/mm
                gen::range(2e-3, 2e-2),  // h in m
                gen::range(20.0, 500.0), // k
            ),
            |(l, h, k)| {
                let node = TechNode::nm100();
                let line = line_for(&node, *l);
                let driver = node.driver();
                let cache: ResidualCache = RefCell::new(Vec::new());
                let direct = residuals(&line, &driver, *h, *k, 0.5);
                let miss = residuals_cached(&cache, &line, &driver, *h, *k, 0.5);
                let hit = residuals_cached(&cache, &line, &driver, *h, *k, 0.5);
                match (direct, miss, hit) {
                    (Ok(d), Ok(m), Ok(h2)) => {
                        for i in 0..2 {
                            assert_eq!(d[i].to_bits(), m[i].to_bits(), "miss drifted at {i}");
                            assert_eq!(d[i].to_bits(), h2[i].to_bits(), "hit drifted at {i}");
                        }
                        assert_eq!(cache.borrow().len(), 1, "one entry per unique (h, k)");
                    }
                    (Err(_), Err(_), Err(_)) => {
                        assert!(cache.borrow().is_empty(), "errors must never be cached");
                    }
                    other => panic!("cache changed the outcome kind: {other:?}"),
                }
            },
        );
    }

    #[test]
    fn cached_solve_performs_at_least_one_hit_per_call() {
        // The pre-flight warm-up guarantees the solver's first residual
        // evaluation hits the per-call cache — the engineered hit the
        // tier-1 perf guard checks for.
        let node = TechNode::nm250();
        let line = line_for(&node, 1.0);
        let before = rlckit_trace::snapshot();
        optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        let delta = rlckit_trace::snapshot().since(&before);
        assert!(
            delta.counter("optimizer.cache.hits") >= 1,
            "expected at least one cache hit per solve, got {}",
            delta.counter("optimizer.cache.hits")
        );
        assert!(delta.counter("optimizer.cache.misses") >= 1);
    }

    #[test]
    fn works_for_custom_technologies() {
        // A made-up wide low-resistance bus.
        let line = LineRlc::new(
            OhmsPerMeter::from_ohm_per_milli(1.0),
            HenriesPerMeter::from_nano_per_milli(0.8),
            FaradsPerMeter::from_pico(250.0),
        );
        let node = TechNode::nm100();
        let opt = optimize_rlc(&line, &node.driver(), OptimizerOptions::default()).unwrap();
        assert!(opt.segment_length.get() > 0.0);
        assert!(opt.repeater_size > 1.0);
    }
}
