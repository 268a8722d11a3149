//! Validated probability newtype.
//!
//! Every leaf predicate in a PAOTR query has a *success probability*
//! `p` (the probability it evaluates to TRUE) and a *failure probability*
//! `q = 1 - p`. Keeping these inside a validated newtype removes a whole
//! class of NaN/out-of-range bugs from the cost evaluators, which multiply
//! long chains of probabilities.

use crate::error::{Error, Result};
use std::fmt;

/// A probability value, guaranteed finite and within `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Prob(f64);

impl Prob {
    /// The certain event.
    pub(crate) const ONE: Prob = Prob(1.0);
    /// A fair coin flip (test fixtures).
    #[cfg(test)]
    pub(crate) const HALF: Prob = Prob(0.5);

    /// Creates a probability, rejecting NaN and values outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Prob> {
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(Prob(p))
        } else {
            Err(Error::InvalidProbability(p))
        }
    }

    /// Creates a probability, clamping into `[0, 1]`; NaN becomes an error.
    pub fn clamped(p: f64) -> Result<Prob> {
        if p.is_nan() {
            return Err(Error::InvalidProbability(p));
        }
        Ok(Prob(p.clamp(0.0, 1.0)))
    }

    /// The success probability as an `f64`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The failure probability `q = 1 - p`.
    #[inline]
    pub(crate) fn fail(self) -> f64 {
        1.0 - self.0
    }

    /// Probability that two independent events both occur.
    #[inline]
    pub(crate) fn and(self, other: Prob) -> Prob {
        Prob(self.0 * other.0)
    }
}

impl fmt::Display for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<f64> for Prob {
    type Error = Error;
    fn try_from(p: f64) -> Result<Prob> {
        Prob::new(p)
    }
}

impl From<Prob> for f64 {
    fn from(p: Prob) -> f64 {
        p.value()
    }
}

/// Product of the success probabilities of an iterator of `Prob`s
/// (probability that independent events all occur).
pub(crate) fn product<I: IntoIterator<Item = Prob>>(iter: I) -> Prob {
    iter.into_iter().fold(Prob::ONE, Prob::and)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_range() {
        for p in [0.0, 0.25, 0.5, 0.999, 1.0] {
            assert_eq!(Prob::new(p).unwrap().value(), p);
        }
    }

    #[test]
    fn rejects_out_of_range_and_nan() {
        assert!(Prob::new(-0.01).is_err());
        assert!(Prob::new(1.01).is_err());
        assert!(Prob::new(f64::NAN).is_err());
        assert!(Prob::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Prob::clamped(-3.0).unwrap(), Prob::new(0.0).unwrap());
        assert_eq!(Prob::clamped(7.0).unwrap(), Prob::ONE);
        assert!(Prob::clamped(f64::NAN).is_err());
    }

    #[test]
    fn fail_is_complement() {
        let p = Prob::new(0.3).unwrap();
        assert!((p.fail() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn and_or_combinators() {
        let a = Prob::new(0.5).unwrap();
        let b = Prob::new(0.5).unwrap();
        assert!((a.and(b).value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn product_of_probs() {
        let ps = [0.5, 0.5, 0.5].map(|p| Prob::new(p).unwrap());
        assert!((product(ps).value() - 0.125).abs() < 1e-12);
        assert_eq!(product(std::iter::empty::<Prob>()), Prob::ONE);
    }
}
