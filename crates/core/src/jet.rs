//! Forward-mode differentiation along three directions.
//!
//! The optimizer's stationarity residual is a closed-form function of the
//! segment length `h`, the repeater size `k` and the delay `τ`.
//! Evaluating it on [`Jet`]s instead of `f64`s carries its exact
//! gradient along `(h, k, τ)` through the same code, which is how the
//! outer Newton Jacobian is formed without finite differences. A jet's
//! value is computed by exactly the `f64` operations the plain code
//! would perform, so values keep their bits.

use core::ops::{Add, Div, Mul, Neg, Sub};

/// A value and its gradient along three directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Jet {
    /// The value.
    pub(crate) v: f64,
    /// The partial derivatives along the three directions.
    pub(crate) d: [f64; 3],
}

impl Jet {
    /// The independent variable of `direction`, at `v`.
    pub(crate) fn variable(v: f64, direction: usize) -> Self {
        let mut d = [0.0; 3];
        d[direction] = 1.0;
        Self { v, d }
    }

    /// The chain rule for a function of two jets: a jet with value `v`
    /// and gradient `∂v/∂x·x' + ∂v/∂y·y'`, given the two partials.
    pub(crate) fn chain2(v: f64, (dx, x): (f64, Self), (dy, y): (f64, Self)) -> Self {
        Self {
            v,
            d: core::array::from_fn(|i| dx * x.d[i] + dy * y.d[i]),
        }
    }

    fn map(self, v: f64, f: impl Fn(f64) -> f64) -> Self {
        Self {
            v,
            d: self.d.map(f),
        }
    }
}

impl Add for Jet {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self {
            v: self.v + o.v,
            d: core::array::from_fn(|i| self.d[i] + o.d[i]),
        }
    }
}

impl Sub for Jet {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Self {
            v: self.v - o.v,
            d: core::array::from_fn(|i| self.d[i] - o.d[i]),
        }
    }
}

impl Mul for Jet {
    type Output = Self;
    #[allow(clippy::suspicious_arithmetic_impl)] // the product rule
    fn mul(self, o: Self) -> Self {
        Self {
            v: self.v * o.v,
            d: core::array::from_fn(|i| self.d[i] * o.v + self.v * o.d[i]),
        }
    }
}

impl Div for Jet {
    type Output = Self;
    #[allow(clippy::suspicious_arithmetic_impl)] // the quotient rule
    fn div(self, o: Self) -> Self {
        let q = self.v / o.v;
        Self {
            v: q,
            d: core::array::from_fn(|i| (self.d[i] - q * o.d[i]) / o.v),
        }
    }
}

impl Neg for Jet {
    type Output = Self;
    fn neg(self) -> Self {
        self.map(-self.v, |g| -g)
    }
}

impl Add<f64> for Jet {
    type Output = Self;
    fn add(self, c: f64) -> Self {
        self.map(self.v + c, |g| g)
    }
}

impl Add<Jet> for f64 {
    type Output = Jet;
    fn add(self, x: Jet) -> Jet {
        x.map(self + x.v, |g| g)
    }
}

impl Sub<Jet> for f64 {
    type Output = Jet;
    fn sub(self, x: Jet) -> Jet {
        x.map(self - x.v, |g| -g)
    }
}

impl Mul<f64> for Jet {
    type Output = Self;
    fn mul(self, c: f64) -> Self {
        self.map(self.v * c, |g| g * c)
    }
}

impl Mul<Jet> for f64 {
    type Output = Jet;
    fn mul(self, x: Jet) -> Jet {
        x.map(self * x.v, |g| self * g)
    }
}

impl Div<f64> for Jet {
    type Output = Self;
    fn div(self, c: f64) -> Self {
        self.map(self.v / c, |g| g / c)
    }
}

impl Div<Jet> for f64 {
    type Output = Jet;
    #[allow(clippy::suspicious_arithmetic_impl)] // the quotient rule
    fn div(self, x: Jet) -> Jet {
        let q = self / x.v;
        x.map(q, |g| -q * g / x.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_follows_the_calculus_rules() {
        // f(x, y) = 3 + x·y − x/(y² + 1) along directions 0 and 1.
        let (x, y) = (Jet::variable(1.5, 0), Jet::variable(-0.4, 1));
        let f = 3.0 + x * y - (2.0 * x) / (y * y + 1.0) * 0.5;
        let g = |x: f64, y: f64| 3.0 + x * y - (2.0 * x) / (y * y + 1.0) * 0.5;
        assert_eq!(
            f.v.to_bits(),
            g(1.5, -0.4).to_bits(),
            "values keep their bits"
        );
        let eps = 1e-6;
        let fx = (g(1.5 + eps, -0.4) - g(1.5 - eps, -0.4)) / (2.0 * eps);
        let fy = (g(1.5, -0.4 + eps) - g(1.5, -0.4 - eps)) / (2.0 * eps);
        assert!((f.d[0] - fx).abs() < 1e-8, "{} vs {fx}", f.d[0]);
        assert!((f.d[1] - fy).abs() < 1e-8, "{} vs {fy}", f.d[1]);
        assert_eq!(f.d[2], 0.0);
        let n = -(1.0 - x) + x / 4.0 + 3.0 / y;
        assert_eq!(n.d[0], 1.25);
        assert!((n.d[1] + 3.0 / 0.16).abs() < 1e-12);
    }

    #[test]
    fn chain2_combines_two_partials() {
        let (x, y) = (Jet::variable(0.3, 0), Jet::variable(0.7, 2));
        let e = Jet::chain2(
            (0.3f64 * 0.7).exp(),
            (0.7 * 0.21f64.exp(), x),
            (0.3 * 0.21f64.exp(), y),
        );
        assert_eq!(e.d[1], 0.0);
        assert!((e.d[0] - 0.7 * 0.21f64.exp()).abs() < 1e-15);
        assert!((e.d[2] - 0.3 * 0.21f64.exp()).abs() < 1e-15);
    }
}
