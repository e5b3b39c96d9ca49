//! The paper's contribution: rigorous RLC repeater-insertion optimization.
//!
//! Minimizes the delay per unit length `τ/h` of a buffered distributed
//! RLC line over segment length `h` and repeater size `k` by solving the
//! stationarity system `g₁ = g₂ = 0` of Eqs. (5)–(8) with a damped
//! Newton iteration:
//!
//! * the moments `b₁`, `b₂` and their `∂/∂h`, `∂/∂k` are analytic;
//! * the `f·100 %` delay `τ` inside the residuals is the rigorous Newton
//!   solve of Eq. (3) ([`rlckit_tline::twopole::TwoPole::delay`]);
//! * the residual `R = (1 − h·τ_h/τ, −k·τ_k/τ)` takes `τ_h`, `τ_k` from
//!   implicit differentiation of Eq. (3), with the step response written
//!   through the entire functions `cosh √x` and `sinh √x / √x`: one
//!   real-valued formula with no poles covers the over-, critically and
//!   under-damped regimes;
//! * the outer Jacobian is exact: the same code runs once on forward-mode
//!   jets, so one residual-and-Jacobian evaluation costs exactly one
//!   delay solve (fewer than seven per optimum on the campaign grids).
//!
//! A derivative-free Nelder–Mead minimizer over `(ln h, ln k)` is
//! provided both as an automatic fallback and as an independent
//! cross-check ([`optimize_rlc_direct`]); property tests assert the two
//! agree.

use std::cell::RefCell;

use rlckit_numeric::dense::Matrix;
use rlckit_numeric::minimize::{nelder_mead, NelderMeadOptions};
use rlckit_numeric::rng::Rng;
use rlckit_numeric::roots::{newton_system, RootOptions};
use rlckit_numeric::{NumericError, Result};
use rlckit_tech::DriverParams;
use rlckit_trace::{counter, histogram, span};
use rlckit_tline::twopole::{Damping, TwoPole};
use rlckit_tline::{DriverInterconnectLoad, LineRlc};
use rlckit_units::{Farads, HenriesPerMeter, Meters, Ohms, Seconds};

use crate::elmore::rc_optimum;
use crate::jet::Jet;

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

/// Moments and their analytic sensitivities at `(h, k)`, as jets: the
/// gradients of the sensitivities are the second derivatives the exact
/// outer Jacobian needs.
struct MomentDerivatives {
    b1: Jet,
    b2: Jet,
    db1_dh: Jet,
    db1_dk: Jet,
    db2_dh: Jet,
    db2_dk: Jet,
}

fn moment_derivatives(line: &LineRlc, driver: &DriverParams, h: Jet, k: Jet) -> MomentDerivatives {
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

/// Terms of the power series [`even_form`] uses near `x = 0`.
const SERIES_TERMS: usize = 12;

/// `1/m!` for `m < 2·SERIES_TERMS + 4`.
const INV_FACTORIAL: [f64; 2 * SERIES_TERMS + 4] = {
    let mut table = [1.0; 2 * SERIES_TERMS + 4];
    let mut m = 1;
    while m < table.len() {
        table[m] = table[m - 1] / m as f64;
        m += 1;
    }
    table
};

/// `e^a` times `C(x)`, `S(x)`, `S'(x)` and `S''(x)`, where
/// `C(x) = cosh √x` and `S(x) = sinh √x / √x`.
///
/// Both are entire in `x` (`cos √−x` and `sin √−x / √−x` for `x < 0`),
/// so the step response written through them has no pole, no complex
/// arithmetic and no case split at critical damping. For `|x| < 1` the
/// four come from their power series `C = Σ xⁿ/(2n)!` and
/// `S = Σ xⁿ/(2n+1)!`; outside, from the closed forms, with
/// `S' = (C − S)/2x` and `S'' = (S/2 − 3S')/2x`. In the overdamped case
/// the `e^a` factor is folded into `e^{a ± √x}`, which cannot overflow
/// because `a + √x` is the slow pole times the delay.
fn even_form(a: f64, x: f64) -> [f64; 4] {
    let (c, s) = if x.abs() < 1.0 {
        let mut sums = [0.0; 4];
        for n in (0..SERIES_TERMS).rev() {
            let coefficients = [
                INV_FACTORIAL[2 * n],
                INV_FACTORIAL[2 * n + 1],
                (n + 1) as f64 * INV_FACTORIAL[2 * n + 3],
                ((n + 1) * (n + 2)) as f64 * INV_FACTORIAL[2 * n + 5],
            ];
            for (sum, coefficient) in sums.iter_mut().zip(coefficients) {
                *sum = *sum * x + coefficient;
            }
        }
        let ea = a.exp();
        return sums.map(|sum| ea * sum);
    } else if x > 0.0 {
        let r = x.sqrt();
        let (up, down) = ((a + r).exp(), (a - r).exp());
        (0.5 * (up + down), 0.5 * (up - down) / r)
    } else {
        let r = (-x).sqrt();
        let ea = a.exp();
        (ea * r.cos(), ea * r.sin() / r)
    };
    let ds = (c - s) / (2.0 * x);
    [c, s, ds, (0.5 * s - 3.0 * ds) / (2.0 * x)]
}

/// The stationarity residual at `(h, k)`, its exact Jacobian, and the
/// delay it was evaluated at.
struct Stationarity {
    /// `R = (1 − h·τ_h/τ, −k·τ_k/τ)`.
    residual: [f64; 2],
    /// `∂Rᵢ/∂(h, k)ⱼ`, including the motion of `τ` with `(h, k)`.
    jacobian: [[f64; 2]; 2],
    /// The `f·100 %` delay `τ` of the segment at `(h, k)`.
    tau: f64,
}

/// Evaluates the stationarity conditions of Eqs. (5)–(8) at `(h, k)`
/// together with their exact Jacobian, for one Eq. (3) delay solve.
///
/// The optimum of the delay per unit length `τ/h` has `∂(τ/h)/∂h = 0`
/// and `∂τ/∂k = 0`. Normalized to relative violations, that is
/// `R = (1 − h·τ_h/τ, −k·τ_k/τ) = 0`, which is `−∇ ln(τ/h)` in
/// `(ln h, ln k)`: `R` is the paper's `g/(s₂ − s₁)` divided by
/// `|∂F/∂τ|·τ/h` (resp. `τ/k`), real in both damping regimes.
///
/// The delay sensitivities come from implicit differentiation of
/// Eq. (3), `τ_x = −v_x/v_t`, with the step response written as
/// `v(t) = 1 − e^a·(C(x) − a·S(x))`, `a = −b₁t/2b₂` and
/// `x = (b₁² − 4b₂)t²/4b₂² = a² − t²/b₂` (see [`even_form`]); then
/// `v_t = t·e^a·S/b₂` is the impulse response, and time-scaling
/// invariance (`t v_t + b₁ v_b₁ + 2b₂ v_b₂ = 0`) gives `v_b₂` from
/// `v_t` and `v_b₁`. Evaluated on [`Jet`]s along `(h, k, τ)`, the same
/// code yields `∂R/∂h` and `∂R/∂k` at fixed `τ` and `∂R/∂τ`; the chain
/// rule with `(τ_h, τ_k)` turns those into the total Jacobian.
fn stationarity(
    line: &LineRlc,
    driver: &DriverParams,
    h: f64,
    k: f64,
    threshold: f64,
) -> Result<Stationarity> {
    let (hj, kj) = (Jet::variable(h, 0), Jet::variable(k, 1));
    let m = moment_derivatives(line, driver, hj, kj);
    // `try_new`, not `new`: a perturbed restart or a degenerate sweep
    // point can reach non-positive moments, which must fail the point
    // (non-retryable InvalidInput), never panic the campaign process.
    let tau = TwoPole::try_new(m.b1.v, m.b2.v)?.delay(threshold)?.get();
    let t = Jet::variable(tau, 2);
    let (b1, b2) = (m.b1, m.b2);

    let a = -(b1 * t) / (2.0 * b2);
    let x = a * a - t * t / b2;
    let [p, q, u, w] = even_form(a.v, x.v);
    // e^a·C, e^a·S and e^a·S' as jets: d(e^a·C) = e^a·C da + e^a·S/2 dx,
    // and so on down the chain C' = S/2.
    let p = Jet::chain2(p, (p, a), (0.5 * q, x));
    let u = Jet::chain2(u, (u, a), (w, x));
    let q = Jet::chain2(q, (q, a), (u.v, x));

    let v_t = t * q / b2;
    let v_a = -(p - (1.0 + a) * q);
    let v_x = -(0.5 * q - a * u);
    let v_b1 = a / b1 * (v_a + 2.0 * a * v_x);
    let v_b2 = -(t * v_t + b1 * v_b1) / (2.0 * b2);
    let tau_h = -(v_b1 * m.db1_dh + v_b2 * m.db2_dh) / v_t;
    let tau_k = -(v_b1 * m.db1_dk + v_b2 * m.db2_dk) / v_t;

    let r = [1.0 - hj * tau_h / t, -(kj * tau_k) / t];
    Ok(Stationarity {
        residual: r.map(|ri| ri.v),
        jacobian: r.map(|ri| [ri.d[0] + ri.d[2] * tau_h.v, ri.d[1] + ri.d[2] * tau_k.v]),
        tau,
    })
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

    // Unknowns are scaled: u = (h/h₀, k/k₀). Each evaluation fills the
    // residual and its Jacobian from one delay solve, and records that
    // solve's outcome: `newton_system` returns the point it evaluated
    // last, so on success `last` holds the optimum's delay, and a
    // non-finite start residual can report its typed cause.
    let last: RefCell<Result<f64>> = RefCell::new(Ok(f64::NAN));
    let eval = |u: &[f64], out: &mut [f64], jac: &mut Matrix| {
        let (h, k) = (u[0] * h0, u[1] * k0);
        let evaluation = if h > 0.0 && k > 0.0 {
            stationarity(line, driver, h, k, options.threshold)
        } else {
            Err(NumericError::InvalidInput(format!(
                "optimizer iterate must be positive, got h = {h:e}, k = {k:e}"
            )))
        };
        *last.borrow_mut() = match evaluation {
            Ok(s) => {
                out.copy_from_slice(&s.residual);
                for (i, row) in s.jacobian.iter().enumerate() {
                    jac[(i, 0)] = row[0] * h0;
                    jac[(i, 1)] = row[1] * k0;
                }
                Ok(s.tau)
            }
            Err(e) => {
                out.fill(f64::NAN);
                Err(e)
            }
        };
    };

    let mut restart_rng = Rng::new(policy.seed);
    let mut u0 = [1.0, 1.0];
    let mut transient_retries = 0u32;
    let mut restarts = 0u32;
    let last_error = loop {
        let attempt = newton_system(
            eval,
            &u0,
            RootOptions {
                x_tol: options.tolerance,
                f_tol: 1e-10,
                max_iterations: options.max_iterations,
            },
        )
        .map_err(|e| match e {
            // Only the start point can leave a non-finite residual:
            // surface why its evaluation failed, so an injected fault
            // re-runs, a numerical failure restarts perturbed, and a
            // degenerate point (InvalidInput) fails at once.
            NumericError::NonFiniteResidual { .. } => last.replace(Ok(f64::NAN)).err().unwrap_or(e),
            e => e,
        })
        .and_then(|sol| {
            // `sol.x` is positive: non-positive iterates evaluate to NaN,
            // which the line search never accepts.
            histogram!("optimizer.newton.iterations").observe(sol.iterations as u64);
            let h = sol.x[0] * h0;
            let k = sol.x[1] * k0;
            let tau = last.replace(Ok(f64::NAN))?;
            finish(line, driver, h, k, tau, sol.iterations, false)
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
    let tau = segment_delay(line, driver, Meters::new(h), k, options.threshold)?;
    finish(line, driver, h, k, tau.get(), minimum.evaluations, true)
}

/// Packages an optimum at `(h, k)` whose segment delay `tau` is known.
fn finish(
    line: &LineRlc,
    driver: &DriverParams,
    h: f64,
    k: f64,
    tau: f64,
    iterations: usize,
    used_fallback: bool,
) -> Result<RlcOptimum> {
    let dil = segment_structure(line, driver, Meters::new(h), k);
    Ok(RlcOptimum {
        segment_length: Meters::new(h),
        repeater_size: k,
        segment_delay: Seconds::new(tau),
        damping: dil.try_two_pole()?.damping(),
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

    fn moments_at(line: &LineRlc, d: &DriverParams, h: f64, k: f64) -> MomentDerivatives {
        moment_derivatives(line, d, Jet::variable(h, 0), Jet::variable(k, 1))
    }

    #[test]
    fn moment_derivatives_match_finite_differences() {
        let node = TechNode::nm250();
        let line = line_for(&node, 2.0);
        let d = node.driver();
        let (h, k) = (0.015, 400.0);
        let m = moments_at(&line, &d, h, k);
        let eps_h = h * 1e-6;
        let eps_k = k * 1e-6;
        let b1 = |h: f64, k: f64| moments_at(&line, &d, h, k).b1.v;
        let b2 = |h: f64, k: f64| moments_at(&line, &d, h, k).b2.v;
        let close = |fd: f64, an: f64, floor: f64| (fd - an).abs() < 1e-6 * an.abs().max(floor);
        assert!(close(
            (b1(h + eps_h, k) - b1(h - eps_h, k)) / (2.0 * eps_h),
            m.db1_dh.v,
            0.0
        ));
        assert!(close(
            (b1(h, k + eps_k) - b1(h, k - eps_k)) / (2.0 * eps_k),
            m.db1_dk.v,
            1e-20
        ));
        assert!(close(
            (b2(h + eps_h, k) - b2(h - eps_h, k)) / (2.0 * eps_h),
            m.db2_dh.v,
            0.0
        ));
        assert!(close(
            (b2(h, k + eps_k) - b2(h, k - eps_k)) / (2.0 * eps_k),
            m.db2_dk.v,
            1e-30
        ));
        // The jets carry the same first derivatives, and the gradients
        // of the analytic sensitivities are the second derivatives.
        for (jet, dh, dk) in [(m.b1, m.db1_dh, m.db1_dk), (m.b2, m.db2_dh, m.db2_dk)] {
            assert!(close(jet.d[0], dh.v, 0.0) && close(jet.d[1], dk.v, 1e-30));
            assert!(close(dh.d[1], dk.d[0], 1e-30), "mixed partials must agree");
        }
        let d1_at = |h: f64| moments_at(&line, &d, h, k).db2_dh.v;
        let fd = (d1_at(h + eps_h) - d1_at(h - eps_h)) / (2.0 * eps_h);
        assert!(close(fd, m.db2_dh.d[0], 0.0), "{fd} vs {}", m.db2_dh.d[0]);
    }

    #[test]
    fn moments_agree_with_dil_closed_forms() {
        let node = TechNode::nm100();
        let line = line_for(&node, 1.5);
        let d = node.driver();
        let (h, k) = (0.011, 500.0);
        let m = moments_at(&line, &d, h, k);
        let dil = segment_structure(&line, &d, Meters::new(h), k);
        assert!((m.b1.v - dil.b1()).abs() / dil.b1() < 1e-12);
        assert!((m.b2.v - dil.b2()).abs() / dil.b2() < 1e-12);
    }

    #[test]
    fn even_form_matches_the_closed_forms_on_both_sides_of_the_series() {
        // e^a·(C, S, S', S'') against cosh/sinh (x > 0) and cos/sin
        // (x < 0), with S' and S'' by central differences of S.
        let reference = |a: f64, x: f64| -> [f64; 2] {
            let (c, s) = if x > 0.0 {
                (x.sqrt().cosh(), x.sqrt().sinh() / x.sqrt())
            } else {
                ((-x).sqrt().cos(), (-x).sqrt().sin() / (-x).sqrt())
            };
            [a.exp() * c, a.exp() * s]
        };
        for x in [
            -40.0, -2.5, -1.0001, -0.9999, -1e-3, 1e-3, 0.9999, 1.0001, 7.0, 300.0,
        ] {
            let a = -1.3;
            let got = even_form(a, x);
            let want = reference(a, x);
            for i in 0..2 {
                assert!(
                    (got[i] - want[i]).abs() <= 1e-14 * want[i].abs().max(a.exp()),
                    "x={x} term {i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
            let eps = 1e-4 * x.abs().max(1.0);
            let s_at = |x: f64| even_form(a, x)[1];
            let ds_at = |x: f64| even_form(a, x)[2];
            let fd1 = (s_at(x + eps) - s_at(x - eps)) / (2.0 * eps);
            let fd2 = (ds_at(x + eps) - ds_at(x - eps)) / (2.0 * eps);
            assert!(
                (got[2] - fd1).abs() <= 1e-7 * fd1.abs(),
                "x={x}: S' {} vs {fd1}",
                got[2]
            );
            assert!(
                (got[3] - fd2).abs() <= 1e-6 * fd2.abs(),
                "x={x}: S'' {} vs {fd2}",
                got[3]
            );
        }
        // Exactly at x = 0: C = S = 1, S' = 1/6, S'' = 1/60.
        assert_eq!(even_form(0.0, 0.0), [1.0, 1.0, 1.0 / 6.0, 1.0 / 60.0]);
    }

    fn damping_at(line: &LineRlc, d: &DriverParams, h: f64, k: f64) -> Damping {
        segment_structure(line, d, Meters::new(h), k)
            .try_two_pole()
            .unwrap()
            .damping()
    }

    /// `stationarity` in the scaled unknowns `u = (h/h₀, k/k₀)` the
    /// optimizer iterates on, as a residual-only closure.
    fn scaled_residual<'a>(
        line: &'a LineRlc,
        d: &'a DriverParams,
        (h0, k0): (f64, f64),
    ) -> impl FnMut(&[f64], &mut [f64]) + 'a {
        move |u, out| {
            out.copy_from_slice(
                &stationarity(line, d, u[0] * h0, u[1] * k0, 0.5)
                    .unwrap()
                    .residual,
            )
        }
    }

    #[test]
    fn analytic_jacobian_matches_central_differences() {
        // Off the hot path: the exact Jacobian against the FD Jacobian
        // the optimizer used to build, in the same scaled unknowns.
        use rlckit_numeric::fd::central_jacobian;
        let mut regimes = Vec::new();
        for (node, l) in [
            (TechNode::nm250(), 0.0),
            (TechNode::nm250(), 0.5),
            (TechNode::nm250(), 3.0),
            (TechNode::nm100(), 0.0),
            (TechNode::nm100(), 1.0),
            (TechNode::nm100(), 4.5),
        ] {
            let line = line_for(&node, l);
            let d = node.driver();
            let rc = rc_optimum(&node.line(), &d);
            let scale = (rc.segment_length.get(), rc.repeater_size);
            for (uh, uk) in [(1.0, 1.0), (1.3, 0.7), (0.8, 1.2), (1.6, 0.5)] {
                let (h, k) = (uh * scale.0, uk * scale.1);
                let st = stationarity(&line, &d, h, k, 0.5).unwrap();
                let damping = damping_at(&line, &d, h, k);
                assert_ne!(
                    damping,
                    Damping::CriticallyDamped,
                    "stay off the critical band"
                );
                regimes.push(damping);
                let fd = central_jacobian(scaled_residual(&line, &d, scale), &[uh, uk], 2, 1e-6);
                let norm = (0..2)
                    .flat_map(|i| (0..2).map(move |j| (i, j)))
                    .map(|(i, j)| fd[(i, j)].abs())
                    .fold(0.0, f64::max);
                // Relative to the Jacobian's largest entry.
                for i in 0..2 {
                    for (j, s) in [scale.0, scale.1].into_iter().enumerate() {
                        let err = (st.jacobian[i][j] * s - fd[(i, j)]).abs() / norm;
                        assert!(
                            err <= 1e-6,
                            "{} l={l} u=({uh},{uk}) {damping:?}: J[{i}][{j}] {} vs FD {} (rel {err:e})",
                            node.name(),
                            st.jacobian[i][j] * s,
                            fd[(i, j)]
                        );
                    }
                }
                // R = −∇ ln(τ/h) in (ln h, ln k): J·diag(h, k) is a
                // Hessian, hence symmetric.
                let (jhk, jkh) = (st.jacobian[0][1] * k, st.jacobian[1][0] * h);
                assert!(
                    (jhk - jkh).abs() <= 1e-9 * jhk.abs().max(jkh.abs()),
                    "{} l={l}: J·diag(h, k) not symmetric: {jhk} vs {jkh}",
                    node.name()
                );
            }
        }
        assert!(
            regimes.contains(&Damping::Overdamped) && regimes.contains(&Damping::Underdamped),
            "cover both damping regimes: {regimes:?}"
        );
    }

    #[test]
    fn residual_and_jacobian_are_continuous_across_the_critical_band() {
        // Regression: inside |b₁² − 4b₂| ≤ 1e-9·b₁², where TwoPole uses
        // its double-pole form, the old complex-pole residual jumped from
        // (0.2053, 0.0737) to (0.3555, 0.3578) and its FD Jacobian read
        // ~1e5 against a true ~0.4. The even form has no case split.
        let node = TechNode::nm250();
        let line = line_for(&node, 0.5);
        let d = node.driver();
        let k = 300.0;
        let disc = |h: f64| {
            let dil = segment_structure(&line, &d, Meters::new(h), k);
            dil.b1() * dil.b1() - 4.0 * dil.b2()
        };
        // Bisect for h_crit on the sign change of the discriminant where
        // the segment turns underdamped (a second one lies near 33 mm).
        let (mut lo, mut hi) = (5e-3, 1.5e-2);
        assert!(
            disc(lo).signum() != disc(hi).signum(),
            "no critical point in range"
        );
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if disc(mid).signum() == disc(lo).signum() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let h_crit = 0.5 * (lo + hi);
        let at = |h: f64| stationarity(&line, &d, h, k, 0.5).unwrap();
        let reference = at(h_crit);
        let mut regimes = Vec::new();
        for offset in [
            -1e-7, -1e-8, -2e-9, -1e-9, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-9, 2e-9, 1e-8, 1e-7,
        ] {
            let h = h_crit * (1.0 + offset);
            let st = at(h);
            regimes.push(damping_at(&line, &d, h, k));
            for i in 0..2 {
                assert!(
                    (st.residual[i] - reference.residual[i]).abs() <= 1e-6,
                    "offset {offset:e}: R[{i}] {} vs {} at h_crit",
                    st.residual[i],
                    reference.residual[i]
                );
                for j in 0..2 {
                    let (got, want) = (
                        st.jacobian[i][j] * [h, k][j],
                        reference.jacobian[i][j] * [h_crit, k][j],
                    );
                    assert!(
                        (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                        "offset {offset:e}: J[{i}][{j}]·x {got} vs {want} at h_crit"
                    );
                }
            }
        }
        // The sweep really crossed the band from one side to the other.
        assert!(regimes.contains(&Damping::CriticallyDamped));
        assert!(regimes.contains(&Damping::Overdamped) && regimes.contains(&Damping::Underdamped));
        assert!(
            (reference.residual[0] - 0.2052918).abs() < 1e-6,
            "{:?}",
            reference.residual
        );
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
