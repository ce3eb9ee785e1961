//! Exact volume computation for convex polytopes.
//!
//! The automated AST verifier of paper §7.2 needs, for every Environment
//! strategy, the probability that an execution path is followed. When the
//! primitive operations appearing in guards are restricted to addition and
//! multiplication by constants, that probability is the Lebesgue volume of a
//! convex polytope `{x ∈ [0,1]^d | Ax ≤ b}` (the paper uses the exact volume
//! implementation of Büeler–Enge–Fukuda as an oracle). This crate provides a
//! from-scratch replacement oracle based on Lasserre's recursive
//! halfspace-elimination formula, carried out entirely in exact rational
//! arithmetic:
//!
//! ```text
//! d · vol_d(P) = Σ_i (b_i / |a_{i,j_i}|) · vol_{d-1}( proj_{j_i}( P ∩ {a_i·x = b_i} ) )
//! ```
//!
//! which follows from the divergence theorem applied to the vector field
//! `F(x) = x` together with the fact that projecting facet `i` along a
//! coordinate `j_i` with `a_{i,j_i} ≠ 0` scales its surface measure by
//! `|a_{i,j_i}| / ‖a_i‖`. All norms cancel, so the recursion stays in ℚ.
//!
//! # Examples
//!
//! ```
//! use probterm_numerics::Rational;
//! use probterm_polytope::Polytope;
//!
//! // The triangle { (x, y) ∈ [0,1]² | x + y ≤ 1 } has area 1/2.
//! let mut p = Polytope::unit_cube(2);
//! p.add_constraint(vec![Rational::one(), Rational::one()], Rational::one());
//! assert_eq!(p.volume(), Rational::from_ratio(1, 2));
//! ```

#![warn(missing_docs)]

use probterm_numerics::Rational;
use std::fmt;

/// A single linear constraint `a · x ≤ b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Coefficient vector `a` (length = ambient dimension).
    pub coefficients: Vec<Rational>,
    /// Right-hand side `b`.
    pub bound: Rational,
}

impl Constraint {
    /// Creates the constraint `coefficients · x ≤ bound`.
    pub fn new(coefficients: Vec<Rational>, bound: Rational) -> Constraint {
        Constraint { coefficients, bound }
    }

    /// Evaluates `a · x` at a point.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimension.
    pub fn dot(&self, point: &[Rational]) -> Rational {
        assert_eq!(point.len(), self.coefficients.len(), "dimension mismatch");
        self.coefficients
            .iter()
            .zip(point)
            .map(|(a, x)| a * x)
            .sum()
    }

    /// Returns `true` if the point satisfies the constraint.
    pub fn is_satisfied_by(&self, point: &[Rational]) -> bool {
        self.dot(point) <= self.bound
    }

    /// Returns `true` if every coefficient is zero.
    pub fn is_trivial(&self) -> bool {
        self.coefficients.iter().all(Rational::is_zero)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, c) in self.coefficients.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{c}·x{i}")?;
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        write!(f, " <= {}", self.bound)
    }
}

/// A convex polytope in halfspace representation `{x | Ax ≤ b}`.
///
/// The polytope is not required to be bounded in general, but volume
/// computation is only meaningful (and only called by this workspace) for
/// polytopes contained in a box; [`Polytope::unit_cube`] is the usual starting
/// point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Polytope {
    dimension: usize,
    constraints: Vec<Constraint>,
}

impl Polytope {
    /// Creates a polytope with no constraints in the given ambient dimension.
    pub fn new(dimension: usize) -> Polytope {
        Polytope { dimension, constraints: Vec::new() }
    }

    /// Creates the unit hypercube `[0, 1]^d` as a polytope.
    pub fn unit_cube(dimension: usize) -> Polytope {
        let mut p = Polytope::new(dimension);
        for i in 0..dimension {
            let mut up = vec![Rational::zero(); dimension];
            up[i] = Rational::one();
            p.add_constraint(up, Rational::one()); // x_i ≤ 1
            let mut down = vec![Rational::zero(); dimension];
            down[i] = -Rational::one();
            p.add_constraint(down, Rational::zero()); // -x_i ≤ 0
        }
        p
    }

    /// Ambient dimension.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The constraints of the polytope.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds the constraint `coefficients · x ≤ bound`.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient vector has the wrong length.
    pub fn add_constraint(&mut self, coefficients: Vec<Rational>, bound: Rational) {
        assert_eq!(
            coefficients.len(),
            self.dimension,
            "constraint dimension mismatch"
        );
        self.constraints.push(Constraint::new(coefficients, bound));
    }

    /// Adds a constraint object.
    ///
    /// # Panics
    ///
    /// Panics if the constraint has the wrong dimension.
    pub fn push(&mut self, constraint: Constraint) {
        assert_eq!(
            constraint.coefficients.len(),
            self.dimension,
            "constraint dimension mismatch"
        );
        self.constraints.push(constraint);
    }

    /// Returns `true` if the point satisfies every constraint.
    pub fn contains(&self, point: &[Rational]) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied_by(point))
    }

    /// Checks feasibility of the system by exact Fourier–Motzkin elimination.
    ///
    /// This is exponential in the dimension in the worst case but the
    /// dimensions arising from symbolic execution paths are tiny (≤ ~10).
    pub fn is_feasible(&self) -> bool {
        // Trivially infeasible constraints (0·x ≤ b with b < 0).
        for c in &self.constraints {
            if c.is_trivial() && c.bound.is_negative() {
                return false;
            }
        }
        if self.dimension == 0 {
            return true;
        }
        fourier_motzkin_feasible(self.dimension, &self.constraints)
    }

    /// Computes the exact `d`-dimensional Lebesgue volume of the polytope via
    /// Lasserre's recursive formula.
    ///
    /// The result is `0` for infeasible or lower-dimensional polytopes. The
    /// polytope must be bounded (callers in this workspace always intersect
    /// with the unit cube); unbounded inputs produce meaningless results.
    pub fn volume(&self) -> Rational {
        volume_rec(self.dimension, &self.constraints)
    }
}

impl fmt::Display for Polytope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "polytope in R^{} with {} constraints:",
            self.dimension,
            self.constraints.len()
        )?;
        for c in &self.constraints {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// Fourier–Motzkin elimination based feasibility check.
fn fourier_motzkin_feasible(dimension: usize, constraints: &[Constraint]) -> bool {
    let mut system: Vec<(Vec<Rational>, Rational)> = constraints
        .iter()
        .map(|c| (c.coefficients.clone(), c.bound.clone()))
        .collect();
    for var in (0..dimension).rev() {
        let mut lower: Vec<(Vec<Rational>, Rational)> = Vec::new(); // coefficient < 0
        let mut upper: Vec<(Vec<Rational>, Rational)> = Vec::new(); // coefficient > 0
        let mut rest: Vec<(Vec<Rational>, Rational)> = Vec::new();
        for (coeffs, bound) in system {
            let c = coeffs[var].clone();
            if c.is_zero() {
                rest.push((coeffs, bound));
            } else if c.is_positive() {
                upper.push((coeffs, bound));
            } else {
                lower.push((coeffs, bound));
            }
        }
        // Combine every lower bound with every upper bound.
        for (lc, lb) in &lower {
            for (uc, ub) in &upper {
                let lcoef = lc[var].abs();
                let ucoef = uc[var].clone();
                // lcoef * upper_constraint + ucoef * lower_constraint eliminates var.
                let mut combined = Vec::with_capacity(var);
                for i in 0..var {
                    combined.push(&(&lcoef * &uc[i]) + &(&ucoef * &lc[i]));
                }
                let bound = &(&lcoef * ub) + &(&ucoef * lb);
                rest.push((combined, bound));
            }
        }
        // Truncate remaining constraints to the first `var` variables.
        let mut next = Vec::with_capacity(rest.len());
        for (coeffs, bound) in rest {
            let truncated: Vec<Rational> = coeffs.into_iter().take(var).collect();
            if truncated.iter().all(Rational::is_zero) {
                if bound.is_negative() {
                    return false;
                }
            } else {
                next.push((truncated, bound));
            }
        }
        system = next;
    }
    true
}

/// Brings a constraint system into canonical form for the facet sum:
///
/// * trivial constraints `0 ≤ b` with `b ≥ 0` are dropped, a trivial
///   constraint with `b < 0` makes the system infeasible (`None`),
/// * every constraint is scaled so that its first non-zero coefficient has
///   absolute value one,
/// * exact duplicates are removed.
///
/// Deduplication is essential for correctness: the divergence-theorem sum
/// attributes each facet's surface integral to *one* constraint, so listing
/// the same halfspace twice (which routinely happens after substitution in the
/// recursion) would double-count its facet.
fn canonicalize(constraints: &[Constraint]) -> Option<Vec<Constraint>> {
    let mut out: Vec<Constraint> = Vec::with_capacity(constraints.len());
    for c in constraints {
        match c.coefficients.iter().find(|x| !x.is_zero()) {
            None => {
                if c.bound.is_negative() {
                    return None;
                }
            }
            Some(first) => {
                let scale = first.abs().recip();
                let scaled = Constraint::new(
                    c.coefficients.iter().map(|x| x * &scale).collect(),
                    &c.bound * &scale,
                );
                if !out.contains(&scaled) {
                    out.push(scaled);
                }
            }
        }
    }
    Some(out)
}

/// Recursive Lasserre volume computation.
fn volume_rec(dimension: usize, constraints: &[Constraint]) -> Rational {
    // 0-dimensional polytope: volume 1 if feasible (no violated trivial
    // constraint), 0 otherwise.
    if dimension == 0 {
        let feasible = constraints.iter().all(|c| !c.bound.is_negative());
        return if feasible { Rational::one() } else { Rational::zero() };
    }
    if dimension == 1 {
        return interval_length(constraints);
    }
    let Some(constraints) = canonicalize(constraints) else {
        return Rational::zero();
    };
    let constraints = &constraints[..];
    let mut total = Rational::zero();
    for (i, facet) in constraints.iter().enumerate() {
        // Pick a pivot coordinate with a non-zero coefficient.
        let Some(pivot) = facet.coefficients.iter().position(|c| !c.is_zero()) else {
            continue; // trivial constraint contributes nothing
        };
        let pivot_coefficient = facet.coefficients[pivot].clone();
        // Substitute x_pivot = (b_i - Σ_{k≠pivot} a_k x_k) / a_pivot into the
        // remaining constraints, producing a (d-1)-dimensional system over the
        // other coordinates.
        let mut reduced: Vec<Constraint> = Vec::with_capacity(constraints.len() - 1);
        for (j, other) in constraints.iter().enumerate() {
            if j == i {
                continue;
            }
            let factor = &other.coefficients[pivot] / &pivot_coefficient;
            let mut coeffs = Vec::with_capacity(dimension - 1);
            for k in 0..dimension {
                if k == pivot {
                    continue;
                }
                coeffs.push(&other.coefficients[k] - &(&factor * &facet.coefficients[k]));
            }
            let bound = &other.bound - &(&factor * &facet.bound);
            reduced.push(Constraint::new(coeffs, bound));
        }
        let facet_volume = volume_rec(dimension - 1, &reduced);
        if facet_volume.is_zero() {
            continue;
        }
        total += &(&facet.bound / &pivot_coefficient.abs()) * &facet_volume;
    }
    let d = Rational::from_int(dimension as i64);
    let v = total / d;
    // Degenerate (lower-dimensional) polytopes produce an exactly-cancelling
    // signed sum; clamp the exact result at zero for robustness.
    if v.is_negative() {
        Rational::zero()
    } else {
        v
    }
}

/// Length of the (possibly empty) interval described by one-dimensional constraints.
fn interval_length(constraints: &[Constraint]) -> Rational {
    let mut lower: Option<Rational> = None; // greatest lower bound
    let mut upper: Option<Rational> = None; // least upper bound
    for c in constraints {
        let a = &c.coefficients[0];
        if a.is_zero() {
            if c.bound.is_negative() {
                return Rational::zero();
            }
            continue;
        }
        let bound = &c.bound / a;
        if a.is_positive() {
            upper = Some(match upper {
                None => bound,
                Some(u) => u.min(bound),
            });
        } else {
            lower = Some(match lower {
                None => bound,
                Some(l) => l.max(bound),
            });
        }
    }
    match (lower, upper) {
        (Some(l), Some(u)) => {
            if u > l {
                u - l
            } else {
                Rational::zero()
            }
        }
        // Unbounded in some direction: meaningless for volume purposes; report 0
        // so that callers notice missing box constraints in tests.
        _ => Rational::zero(),
    }
}

/// A convenience builder for polytopes over the unit cube, as produced by the
/// stochastic symbolic execution of §6: each path constraint is linear in the
/// sample variables `α₀, …, α_{d-1} ∈ [0, 1]`.
#[derive(Debug, Clone, Default)]
pub struct UnitCubePolytope {
    dimension: usize,
    extra: Vec<Constraint>,
}

impl UnitCubePolytope {
    /// Creates a builder over `[0,1]^dimension`.
    pub fn new(dimension: usize) -> UnitCubePolytope {
        UnitCubePolytope { dimension, extra: Vec::new() }
    }

    /// Adds the linear constraint `coefficients · α ≤ bound`.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient vector has the wrong length.
    pub fn add(&mut self, coefficients: Vec<Rational>, bound: Rational) -> &mut Self {
        assert_eq!(coefficients.len(), self.dimension, "dimension mismatch");
        self.extra.push(Constraint::new(coefficients, bound));
        self
    }

    /// Number of non-box constraints added so far.
    pub fn constraint_count(&self) -> usize {
        self.extra.len()
    }

    /// Builds the full halfspace representation including the box constraints.
    pub fn build(&self) -> Polytope {
        let mut p = Polytope::unit_cube(self.dimension);
        for c in &self.extra {
            p.push(c.clone());
        }
        p
    }

    /// The probability that a uniform sample from the unit cube satisfies all
    /// added constraints — i.e. the volume of the built polytope.
    pub fn probability(&self) -> Rational {
        self.build().volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn unit_cube_volumes() {
        for d in 0..6 {
            assert_eq!(Polytope::unit_cube(d).volume(), Rational::one(), "dimension {d}");
        }
    }

    #[test]
    fn boxes_have_product_volume() {
        // [0, 1/2] × [0, 1/3]
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one(), Rational::zero()], r(1, 2));
        p.add_constraint(vec![Rational::zero(), Rational::one()], r(1, 3));
        assert_eq!(p.volume(), r(1, 6));
    }

    #[test]
    fn simplex_volume_is_one_over_factorial() {
        // {x ∈ [0,1]^d | Σ x_i ≤ 1} has volume 1/d!.
        let mut expected = Rational::one();
        for d in 1..=5usize {
            expected = expected * r(1, d as i64);
            let mut p = Polytope::unit_cube(d);
            p.add_constraint(vec![Rational::one(); d], Rational::one());
            assert_eq!(p.volume(), expected, "dimension {d}");
        }
    }

    #[test]
    fn complement_of_simplex() {
        // {x ∈ [0,1]² | x + y ≥ 1} has volume 1/2.
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![-Rational::one(), -Rational::one()], -Rational::one());
        assert_eq!(p.volume(), r(1, 2));
    }

    #[test]
    fn redundant_constraints_do_not_change_volume() {
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one(), Rational::one()], Rational::from_int(5));
        p.add_constraint(vec![Rational::one(), Rational::zero()], Rational::from_int(2));
        assert_eq!(p.volume(), Rational::one());
    }

    #[test]
    fn empty_polytopes_have_zero_volume() {
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one(), Rational::zero()], r(-1, 2));
        assert_eq!(p.volume(), Rational::zero());
        assert!(!p.is_feasible());
        // Contradictory pair.
        let mut p = Polytope::unit_cube(1);
        p.add_constraint(vec![Rational::one()], r(1, 4));
        p.add_constraint(vec![-Rational::one()], r(-1, 2));
        assert_eq!(p.volume(), Rational::zero());
        assert!(!p.is_feasible());
    }

    #[test]
    fn lower_dimensional_polytopes_have_zero_volume() {
        // The segment {x = 1/2} × [0,1] in the square.
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one(), Rational::zero()], r(1, 2));
        p.add_constraint(vec![-Rational::one(), Rational::zero()], r(-1, 2));
        assert_eq!(p.volume(), Rational::zero());
        assert!(p.is_feasible());
    }

    #[test]
    fn feasibility_via_fourier_motzkin() {
        // x + y ≤ 1, x ≥ 3/4, y ≥ 3/4 is infeasible in the unit square.
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one(), Rational::one()], Rational::one());
        p.add_constraint(vec![-Rational::one(), Rational::zero()], r(-3, 4));
        p.add_constraint(vec![Rational::zero(), -Rational::one()], r(-3, 4));
        assert!(!p.is_feasible());
        assert_eq!(p.volume(), Rational::zero());
        // Relaxing one bound makes it feasible.
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one(), Rational::one()], Rational::one());
        p.add_constraint(vec![-Rational::one(), Rational::zero()], r(-1, 4));
        assert!(p.is_feasible());
        assert!(p.volume() > Rational::zero());
    }

    #[test]
    fn containment_checks() {
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one(), Rational::one()], Rational::one());
        assert!(p.contains(&[r(1, 4), r(1, 4)]));
        assert!(!p.contains(&[r(3, 4), r(3, 4)]));
        assert!(p.contains(&[r(1, 2), r(1, 2)]));
    }

    #[test]
    fn ex515_branch_probability() {
        // The probability that e > p and z ≤ e for uniform e, z and p = 0.65:
        // (1 - p²)/2 = 0.28875 (used by Table 2's Ex. 5.15 row).
        let p = Rational::parse("0.65").unwrap();
        let mut poly = UnitCubePolytope::new(2);
        // e > p  ⟺  -e ≤ -p
        poly.add(vec![-Rational::one(), Rational::zero()], -p.clone());
        // z ≤ e  ⟺  z - e ≤ 0   (coordinates: x0 = e, x1 = z)
        poly.add(vec![-Rational::one(), Rational::one()], Rational::zero());
        let expected = &(&Rational::one() - &(&p * &p)) / &Rational::from_int(2);
        assert_eq!(poly.probability(), expected);
    }

    #[test]
    fn triangle_prism_and_shifted_bodies() {
        // Prism: {x+y ≤ 1} × [0,1] in 3D has volume 1/2.
        let mut p = Polytope::unit_cube(3);
        p.add_constraint(
            vec![Rational::one(), Rational::one(), Rational::zero()],
            Rational::one(),
        );
        assert_eq!(p.volume(), r(1, 2));
        // Shifted simplex x + y ≤ 3/2 in the unit square: area 1 - (1/2)²/2 = 7/8.
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one(), Rational::one()], r(3, 2));
        assert_eq!(p.volume(), r(7, 8));
    }

    #[test]
    fn builder_interface() {
        let mut b = UnitCubePolytope::new(3);
        b.add(
            vec![Rational::one(), Rational::one(), Rational::one()],
            Rational::one(),
        );
        assert_eq!(b.constraint_count(), 1);
        assert_eq!(b.probability(), r(1, 6));
        assert_eq!(b.build().dimension(), 3);
    }

    #[test]
    fn display_renders_constraints() {
        let mut p = Polytope::new(2);
        p.add_constraint(vec![Rational::one(), -Rational::one()], r(1, 2));
        let s = p.to_string();
        assert!(s.contains("x0"));
        assert!(s.contains("<= 1/2"));
        let c = Constraint::new(vec![Rational::zero()], Rational::one());
        assert!(c.to_string().contains('0'));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_constraint_panics() {
        let mut p = Polytope::unit_cube(2);
        p.add_constraint(vec![Rational::one()], Rational::one());
    }
}
