//! Exact numerics for the `probterm` workspace.
//!
//! This crate provides the arithmetic substrate used by every termination
//! analysis in the reproduction of *"On Probabilistic Termination of
//! Functional Programs with Continuous Distributions"* (Beutner & Ong,
//! PLDI 2021):
//!
//! * [`BigUint`] / [`BigInt`] — arbitrary-precision integers,
//! * [`Rational`] — exact rational numbers (probabilities, weights, volumes),
//! * [`Interval`] / [`IntervalBox`] — closed rational intervals and boxes, the
//!   carriers of the interval-trace semantics of §3,
//! * [`EndpointBrackets`] — `f64` brackets of an exact interval's endpoints,
//!   which decide most interval comparisons without rational arithmetic.
//!
//! # Examples
//!
//! ```
//! use probterm_numerics::{Interval, Rational};
//!
//! // The weight of the interval trace [0,1/2]·[1/4,1] (paper §3.2).
//! let trace = [Interval::from_ratios(0, 1, 1, 2), Interval::from_ratios(1, 4, 1, 1)];
//! let weight: Rational = trace.iter().map(|iv| iv.width()).product();
//! assert_eq!(weight, Rational::from_ratio(3, 8));
//! ```

#![warn(missing_docs)]

mod bigint;
mod brackets;
mod interval;
mod rational;

pub use bigint::{BigInt, BigUint, Sign};
pub use brackets::EndpointBrackets;
pub use interval::{Interval, IntervalBox};
pub use rational::Rational;
