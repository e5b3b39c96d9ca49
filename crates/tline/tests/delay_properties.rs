//! Seeded property test for the scalar two-pole delay solve,
//! `TwoPole::try_new` + `delay_with_iterations`, over every regime the
//! optimizer can reach: overdamped, underdamped, moments straddling
//! critical damping by a few ulp, degenerate moments, and out-of-range
//! thresholds. Invalid inputs must come back as `InvalidInput`, never a
//! panic; valid ones as a finite delay on the threshold crossing within
//! the iteration budget, with the same bits on every call. A failing
//! case prints its seed and replays exactly with `RLCKIT_CHECK_SEED`.

use rlckit_check::gen::Gen;
use rlckit_check::{gen, Check};
use rlckit_numeric::NumericError;
use rlckit_tline::TwoPole;

/// Worst-case Newton iterations of one delay solve: the paper's "less
/// than four" plus the regression margin `convergence_claims.rs` allows
/// the bracketed solver on near-critical points.
const MAX_ITERATIONS: usize = 8;

/// One delay problem.
#[derive(Debug, Clone, Copy)]
struct Problem {
    b1: f64,
    b2: f64,
    threshold: f64,
}

/// `b2` at `ulps` representable steps from the critical `b1²/4`.
fn critical_offset(b1: f64, ulps: i64) -> f64 {
    let critical = b1 * b1 / 4.0;
    f64::from_bits(critical.to_bits().wrapping_add_signed(ulps))
}

/// Random problems: the damping class is decided by `b2` relative to
/// the critical `b1²/4` — overdamped below, underdamped above, and a
/// few-ulp band straddling it. Degenerate draws give nonpositive or
/// nonfinite moments.
fn problem_gen() -> Gen<Problem> {
    gen::tuple5(
        gen::select(vec![0u8, 0, 1, 1, 2, 2, 2, 3]),
        gen::range(1e-3, 5.0),
        gen::range(0.0, 1.0),
        gen::usize_range(0, 9),
        gen::select(vec![0.5, 0.5, 0.05, 0.3, 0.9, 0.95]),
    )
    .map(|(mode, b1, u, ulps, threshold)| {
        let critical = b1 * b1 / 4.0;
        let (b1, b2) = match mode {
            0 => (b1, (0.01 + 0.98 * u) * critical),
            1 => (b1, (1.01 + 3.0 * u) * critical),
            2 => (b1, critical_offset(b1, ulps as i64 - 4)),
            _ => match ulps % 4 {
                0 => (b1 - 5.0, u * critical),
                1 => (b1, -u * critical),
                2 => (f64::NAN, critical),
                _ => (b1, f64::INFINITY),
            },
        };
        Problem { b1, b2, threshold }
    })
}

#[test]
fn delay_solve_is_total_and_bounded_in_every_regime() {
    Check::new()
        .cases(512)
        .seed(0xDE1A)
        .run(&problem_gen(), |p| {
            let valid = p.b1 > 0.0 && p.b1.is_finite() && p.b2 > 0.0 && p.b2.is_finite();
            let tp = match TwoPole::try_new(p.b1, p.b2) {
                Ok(tp) => tp,
                Err(e) => {
                    assert!(!valid, "{p:?}: valid moments rejected: {e:?}");
                    assert!(matches!(e, NumericError::InvalidInput(_)), "{p:?}: {e:?}");
                    return;
                }
            };
            assert!(valid, "{p:?}: degenerate moments accepted");
            let (delay, iterations) = tp
                .delay_with_iterations(p.threshold)
                .unwrap_or_else(|e| panic!("{p:?}: {e:?}"));
            let t = delay.get();
            assert!(t.is_finite() && t > 0.0, "{p:?}: delay {t}");
            assert!(
                iterations <= MAX_ITERATIONS,
                "{p:?}: {iterations} iterations"
            );
            let crossing = tp.response(t);
            assert!(
                (crossing - p.threshold).abs() < 1e-6,
                "{p:?}: v({t}) = {crossing}"
            );
            // A pure function of its inputs: the same bits and iteration
            // count on every call.
            let (again, again_iterations) = tp.delay_with_iterations(p.threshold).unwrap();
            assert_eq!(t.to_bits(), again.get().to_bits(), "{p:?}");
            assert_eq!(iterations, again_iterations, "{p:?}");
        });
}

#[test]
fn moments_straddling_critical_damping_stay_continuous() {
    // Every ulp step across b₂ = b₁²/4 flips the damping classification
    // (overdamped → critical → underdamped) but must barely move the
    // delay: the three closed forms agree at the boundary.
    for b1 in [1e-3, 0.37, 1.0, 2.5, 5.0] {
        let reference = TwoPole::try_new(b1, critical_offset(b1, 0))
            .and_then(|tp| tp.delay_with_iterations(0.5))
            .expect("critical point solves")
            .0
            .get();
        for ulps in -4..=4 {
            let tp = TwoPole::try_new(b1, critical_offset(b1, ulps)).expect("valid");
            let (delay, iterations) = tp.delay_with_iterations(0.5).expect("solves");
            assert!(iterations <= MAX_ITERATIONS, "b1 {b1}, {ulps} ulp");
            let rel = (delay.get() - reference).abs() / reference;
            assert!(rel < 1e-6, "b1 {b1}, {ulps} ulp: delay moved by {rel:e}");
        }
    }
}

#[test]
fn out_of_range_thresholds_are_rejected() {
    let tp = TwoPole::try_new(1.0, 0.05).expect("valid");
    for threshold in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        match tp.delay_with_iterations(threshold) {
            Err(NumericError::InvalidInput(_)) => {}
            other => panic!("threshold {threshold}: expected InvalidInput, got {other:?}"),
        }
    }
}
