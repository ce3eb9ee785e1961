//! Abstract syntax of Statistical PCF (SPCF).
//!
//! SPCF (paper §2.2) is a simply-typed λ-calculus with
//!
//! * real-valued numerals and measurable primitive functions `f ∈ F`,
//! * a fixpoint constructor `μφ x. M` binding the recursive function `φ` and
//!   its argument `x`,
//! * `sample`, drawing from the uniform distribution on `[0, 1]`,
//! * `score(M)`, used for stochastic conditioning (only its success/failure
//!   matters for termination, see paper footnote 7),
//! * conditionals `if(M, N, P)` branching on whether `M ≤ 0`.
//!
//! Numerals are represented by exact [`Rational`]s; the paper's
//! recursion-theoretic results (Thm. 3.10) are stated for rational numerals
//! and `Q`-interval-preserving primitives, which is exactly the fragment
//! implemented here.

use probterm_numerics::Rational;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// An identifier (variable name).
pub type Ident = Rc<str>;

/// Creates an identifier from a string slice.
pub fn ident(s: &str) -> Ident {
    Rc::from(s)
}

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Generates a globally fresh identifier based on `base`.
///
/// Fresh names contain a `#`, which the lexer rejects, so they can never
/// collide with user-written identifiers.
pub fn fresh_ident(base: &str) -> Ident {
    let n = FRESH_COUNTER.fetch_add(1, Ordering::Relaxed);
    let base = base.split('#').next().unwrap_or("x");
    Rc::from(format!("{base}#{n}"))
}

/// Primitive (measurable) first-order functions `f : R^{|f|} → R`.
///
/// All of them are continuous and hence interval preserving (Lemma 3.2); all
/// except `Floor` have measure-zero level sets and are therefore interval
/// separable (Lemma 3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// Binary addition.
    Add,
    /// Binary subtraction.
    Sub,
    /// Binary multiplication.
    Mul,
    /// Unary negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Binary minimum.
    Min,
    /// Binary maximum.
    Max,
    /// Exponential function.
    Exp,
    /// Natural logarithm (partial: undefined on non-positive reals).
    Log,
    /// Logistic sigmoid `sig(x) = 1 / (1 + e^{-x})`, used by Ex. 5.1/5.15.
    Sig,
    /// Floor function (interval preserving but *not* interval separable).
    Floor,
}

impl Prim {
    /// The arity `|f|` of the primitive.
    pub fn arity(self) -> usize {
        match self {
            Prim::Add | Prim::Sub | Prim::Mul | Prim::Min | Prim::Max => 2,
            Prim::Neg | Prim::Abs | Prim::Exp | Prim::Log | Prim::Sig | Prim::Floor => 1,
        }
    }

    /// The surface-syntax name of the primitive.
    pub fn name(self) -> &'static str {
        match self {
            Prim::Add => "add",
            Prim::Sub => "sub",
            Prim::Mul => "mul",
            Prim::Neg => "neg",
            Prim::Abs => "abs",
            Prim::Min => "min",
            Prim::Max => "max",
            Prim::Exp => "exp",
            Prim::Log => "log",
            Prim::Sig => "sig",
            Prim::Floor => "floor",
        }
    }

    /// Looks a primitive up by its surface-syntax name.
    pub fn from_name(name: &str) -> Option<Prim> {
        Some(match name {
            "add" => Prim::Add,
            "sub" => Prim::Sub,
            "mul" => Prim::Mul,
            "neg" => Prim::Neg,
            "abs" => Prim::Abs,
            "min" => Prim::Min,
            "max" => Prim::Max,
            "exp" => Prim::Exp,
            "log" => Prim::Log,
            "sig" => Prim::Sig,
            "floor" => Prim::Floor,
            _ => return None,
        })
    }

    /// Evaluates the primitive on exact rational arguments.
    ///
    /// Transcendental primitives (`exp`, `log`, `sig`) are evaluated through
    /// `f64` and converted back exactly; this is the reference semantics used
    /// for Monte-Carlo cross-validation only — the interval semantics uses
    /// certified enclosures instead.
    ///
    /// Returns `None` when the argument is outside the primitive's domain
    /// (e.g. `log` of a non-positive number) and when a transcendental's
    /// `f64` result is not finite (e.g. `exp(1000)`).
    ///
    /// # Panics
    ///
    /// Panics if the number of arguments does not match [`Prim::arity`].
    pub fn eval(self, args: &[Rational]) -> Option<Rational> {
        assert_eq!(args.len(), self.arity(), "arity mismatch for {self:?}");
        Some(match self {
            Prim::Add => &args[0] + &args[1],
            Prim::Sub => &args[0] - &args[1],
            Prim::Mul => &args[0] * &args[1],
            Prim::Neg => -&args[0],
            Prim::Abs => args[0].abs(),
            Prim::Min => args[0].clone().min(args[1].clone()),
            Prim::Max => args[0].clone().max(args[1].clone()),
            Prim::Exp => Rational::from_f64_finite(args[0].to_f64().exp())?,
            Prim::Log => {
                if !args[0].is_positive() {
                    return None;
                }
                Rational::from_f64_finite(args[0].to_f64().ln())?
            }
            Prim::Sig => {
                let x = args[0].to_f64();
                Rational::from_f64_finite(1.0 / (1.0 + (-x).exp()))?
            }
            Prim::Floor => Rational::from_bigint(args[0].floor()),
        })
    }

    /// Returns `true` if the primitive is interval separable (Lemma 3.7):
    /// continuous with measure-zero level sets. `Floor` is the counterexample
    /// kept around for tests of the completeness hypotheses.
    pub fn is_interval_separable(self) -> bool {
        !matches!(self, Prim::Floor)
    }
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A term of SPCF.
///
/// The grammar follows paper §2.2:
///
/// ```text
/// V ::= x | r | λx. M | μφ x. M
/// M ::= V | M N | if(M, N, P) | f(M₁, …, M_{|f|}) | sample | score(M)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A variable.
    Var(Ident),
    /// A real-valued (here: rational) numeral.
    Num(Rational),
    /// A λ-abstraction `λx. M`.
    Lam(Ident, Box<Term>),
    /// A fixpoint `μφ x. M`, binding the recursive function `φ` and argument `x`.
    Fix(Ident, Ident, Box<Term>),
    /// Application `M N`.
    App(Box<Term>, Box<Term>),
    /// Conditional `if(M, N, P)`: reduces to `N` when `M ≤ 0` and to `P` otherwise.
    If(Box<Term>, Box<Term>, Box<Term>),
    /// Primitive function application `f(M₁, …, M_{|f|})`.
    Prim(Prim, Vec<Term>),
    /// A draw from the uniform distribution on `[0, 1]`.
    Sample,
    /// Conditioning weight `score(M)`; reduction is stuck on negative arguments.
    Score(Box<Term>),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(ident(name))
    }

    /// Convenience constructor for an integer numeral.
    pub fn int(v: i64) -> Term {
        Term::Num(Rational::from_int(v))
    }

    /// Convenience constructor for a rational numeral `n/d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn ratio(n: i64, d: i64) -> Term {
        Term::Num(Rational::from_ratio(n, d))
    }

    /// Convenience constructor for a λ-abstraction.
    pub fn lam(x: &str, body: Term) -> Term {
        Term::Lam(ident(x), Box::new(body))
    }

    /// Convenience constructor for a fixpoint `μφ x. M`.
    pub fn fix(phi: &str, x: &str, body: Term) -> Term {
        Term::Fix(ident(phi), ident(x), Box::new(body))
    }

    /// Convenience constructor for application.
    pub fn app(f: Term, a: Term) -> Term {
        Term::App(Box::new(f), Box::new(a))
    }

    /// Applies `f` to several arguments left-associatively.
    pub fn apps(f: Term, args: impl IntoIterator<Item = Term>) -> Term {
        args.into_iter().fold(f, Term::app)
    }

    /// Convenience constructor for the conditional `if(guard, then, else)`.
    pub fn ite(guard: Term, then: Term, els: Term) -> Term {
        Term::If(Box::new(guard), Box::new(then), Box::new(els))
    }

    /// Binary addition `M + N`.
    pub fn add(a: Term, b: Term) -> Term {
        Term::Prim(Prim::Add, vec![a, b])
    }

    /// Binary subtraction `M - N`.
    pub fn sub(a: Term, b: Term) -> Term {
        Term::Prim(Prim::Sub, vec![a, b])
    }

    /// Binary multiplication `M * N`.
    pub fn mul(a: Term, b: Term) -> Term {
        Term::Prim(Prim::Mul, vec![a, b])
    }

    /// Score construct.
    pub fn score(m: Term) -> Term {
        Term::Score(Box::new(m))
    }

    /// `let x = M in N`, desugared to `(λx. N) M`.
    pub fn let_in(x: &str, bound: Term, body: Term) -> Term {
        Term::app(Term::lam(x, body), bound)
    }

    /// Probabilistic choice `M ⊕_p N ≔ if(sample − p, M, N)` (paper §2.2).
    ///
    /// Takes the left branch with probability `p`.
    pub fn choice(p: Rational, left: Term, right: Term) -> Term {
        Term::ite(
            Term::sub(Term::Sample, Term::Num(p)),
            left,
            right,
        )
    }

    /// Fair probabilistic choice `M ⊕ N ≔ M ⊕_{1/2} N`.
    pub fn fair_choice(left: Term, right: Term) -> Term {
        Term::choice(Rational::from_ratio(1, 2), left, right)
    }

    /// Guard `M ≤ N`, i.e. a term that is `≤ 0` exactly when `M ≤ N`.
    pub fn leq(a: Term, b: Term) -> Term {
        Term::sub(a, b)
    }

    /// Returns `true` if the term is a value (paper §2.2).
    pub fn is_value(&self) -> bool {
        matches!(
            self,
            Term::Var(_) | Term::Num(_) | Term::Lam(_, _) | Term::Fix(_, _, _)
        )
    }

    /// Returns the numeral's value if the term is a numeral.
    pub fn as_num(&self) -> Option<&Rational> {
        match self {
            Term::Num(r) => Some(r),
            _ => None,
        }
    }

    /// The set of free variables of the term.
    pub fn free_vars(&self) -> BTreeSet<Ident> {
        fn go(t: &Term, bound: &mut Vec<Ident>, acc: &mut BTreeSet<Ident>) {
            match t {
                Term::Var(x) => {
                    if !bound.contains(x) {
                        acc.insert(x.clone());
                    }
                }
                Term::Num(_) | Term::Sample => {}
                Term::Lam(x, body) => {
                    bound.push(x.clone());
                    go(body, bound, acc);
                    bound.pop();
                }
                Term::Fix(phi, x, body) => {
                    bound.push(phi.clone());
                    bound.push(x.clone());
                    go(body, bound, acc);
                    bound.pop();
                    bound.pop();
                }
                Term::App(f, a) => {
                    go(f, bound, acc);
                    go(a, bound, acc);
                }
                Term::If(g, t1, t2) => {
                    go(g, bound, acc);
                    go(t1, bound, acc);
                    go(t2, bound, acc);
                }
                Term::Prim(_, args) => {
                    for a in args {
                        go(a, bound, acc);
                    }
                }
                Term::Score(m) => go(m, bound, acc),
            }
        }
        let mut acc = BTreeSet::new();
        go(self, &mut Vec::new(), &mut acc);
        acc
    }

    /// Returns `true` if the term is closed (has no free variables).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Capture-avoiding substitution `self[replacement / x]`.
    ///
    /// Bound variables that would capture free variables of `replacement` are
    /// α-renamed to fresh names.
    pub fn subst(&self, x: &Ident, replacement: &Term) -> Term {
        match self {
            Term::Var(y) => {
                if y == x {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Term::Num(_) | Term::Sample => self.clone(),
            Term::Lam(y, body) => {
                if y == x {
                    self.clone()
                } else if replacement.free_vars().contains(y) {
                    let fresh = fresh_ident(y);
                    let renamed = body.subst(y, &Term::Var(fresh.clone()));
                    Term::Lam(fresh, Box::new(renamed.subst(x, replacement)))
                } else {
                    Term::Lam(y.clone(), Box::new(body.subst(x, replacement)))
                }
            }
            Term::Fix(phi, y, body) => {
                if phi == x || y == x {
                    self.clone()
                } else {
                    let fv = replacement.free_vars();
                    let (phi, body) = if fv.contains(phi) {
                        let fresh = fresh_ident(phi);
                        let body = body.subst(phi, &Term::Var(fresh.clone()));
                        (fresh, body)
                    } else {
                        (phi.clone(), (**body).clone())
                    };
                    let (y, body) = if fv.contains(&y.clone()) {
                        let fresh = fresh_ident(y);
                        let body = body.subst(y, &Term::Var(fresh.clone()));
                        (fresh, body)
                    } else {
                        (y.clone(), body)
                    };
                    Term::Fix(phi, y, Box::new(body.subst(x, replacement)))
                }
            }
            Term::App(f, a) => Term::App(
                Box::new(f.subst(x, replacement)),
                Box::new(a.subst(x, replacement)),
            ),
            Term::If(g, t1, t2) => Term::If(
                Box::new(g.subst(x, replacement)),
                Box::new(t1.subst(x, replacement)),
                Box::new(t2.subst(x, replacement)),
            ),
            Term::Prim(p, args) => Term::Prim(
                *p,
                args.iter().map(|a| a.subst(x, replacement)).collect(),
            ),
            Term::Score(m) => Term::Score(Box::new(m.subst(x, replacement))),
        }
    }

    /// Simultaneous substitution of several variables.
    pub fn subst_many(&self, substitutions: &[(Ident, Term)]) -> Term {
        // Sequential substitution is sound here because callers only use it
        // with replacements that are closed terms.
        let mut out = self.clone();
        for (x, r) in substitutions {
            out = out.subst(x, r);
        }
        out
    }

    /// Number of AST nodes (a rough size measure used by tests and reports).
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Num(_) | Term::Sample => 1,
            Term::Lam(_, b) | Term::Score(b) => 1 + b.size(),
            Term::Fix(_, _, b) => 1 + b.size(),
            Term::App(f, a) => 1 + f.size() + a.size(),
            Term::If(g, t, e) => 1 + g.size() + t.size() + e.size(),
            Term::Prim(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// Counts the `sample` occurrences in the term (an upper bound on the
    /// number of draws per recursion-free run).
    pub fn count_samples(&self) -> usize {
        match self {
            Term::Sample => 1,
            Term::Var(_) | Term::Num(_) => 0,
            Term::Lam(_, b) | Term::Score(b) | Term::Fix(_, _, b) => b.count_samples(),
            Term::App(f, a) => f.count_samples() + a.count_samples(),
            Term::If(g, t, e) => g.count_samples() + t.count_samples() + e.count_samples(),
            Term::Prim(_, args) => args.iter().map(Term::count_samples).sum(),
        }
    }

    /// Checks α-equivalence of two terms.
    pub fn alpha_eq(&self, other: &Term) -> bool {
        fn go(a: &Term, b: &Term, env: &mut Vec<(Ident, Ident)>) -> bool {
            match (a, b) {
                (Term::Var(x), Term::Var(y)) => {
                    for (bx, by) in env.iter().rev() {
                        if bx == x || by == y {
                            return bx == x && by == y;
                        }
                    }
                    x == y
                }
                (Term::Num(x), Term::Num(y)) => x == y,
                (Term::Sample, Term::Sample) => true,
                (Term::Lam(x, bx), Term::Lam(y, by)) => {
                    env.push((x.clone(), y.clone()));
                    let r = go(bx, by, env);
                    env.pop();
                    r
                }
                (Term::Fix(px, x, bx), Term::Fix(py, y, by)) => {
                    env.push((px.clone(), py.clone()));
                    env.push((x.clone(), y.clone()));
                    let r = go(bx, by, env);
                    env.pop();
                    env.pop();
                    r
                }
                (Term::App(fa, aa), Term::App(fb, ab)) => go(fa, fb, env) && go(aa, ab, env),
                (Term::If(ga, ta, ea), Term::If(gb, tb, eb)) => {
                    go(ga, gb, env) && go(ta, tb, env) && go(ea, eb, env)
                }
                (Term::Prim(pa, argsa), Term::Prim(pb, argsb)) => {
                    pa == pb
                        && argsa.len() == argsb.len()
                        && argsa.iter().zip(argsb).all(|(x, y)| go(x, y, env))
                }
                (Term::Score(ma), Term::Score(mb)) => go(ma, mb, env),
                _ => false,
            }
        }
        go(self, other, &mut Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_arities_and_names_roundtrip() {
        for p in [
            Prim::Add,
            Prim::Sub,
            Prim::Mul,
            Prim::Neg,
            Prim::Abs,
            Prim::Min,
            Prim::Max,
            Prim::Exp,
            Prim::Log,
            Prim::Sig,
            Prim::Floor,
        ] {
            assert_eq!(Prim::from_name(p.name()), Some(p));
            assert!(p.arity() >= 1 && p.arity() <= 2);
        }
        assert_eq!(Prim::from_name("nonsense"), None);
    }

    #[test]
    fn prim_eval_exact_cases() {
        let two = Rational::from_int(2);
        let neg3 = Rational::from_int(-3);
        assert_eq!(Prim::Add.eval(&[two.clone(), neg3.clone()]), Some(Rational::from_int(-1)));
        assert_eq!(Prim::Mul.eval(&[two.clone(), neg3.clone()]), Some(Rational::from_int(-6)));
        assert_eq!(Prim::Abs.eval(&[neg3.clone()]), Some(Rational::from_int(3)));
        assert_eq!(Prim::Min.eval(&[two.clone(), neg3.clone()]), Some(neg3.clone()));
        assert_eq!(Prim::Max.eval(&[two.clone(), neg3.clone()]), Some(two.clone()));
        assert_eq!(
            Prim::Floor.eval(&[Rational::from_ratio(7, 2)]),
            Some(Rational::from_int(3))
        );
        assert_eq!(Prim::Log.eval(&[Rational::zero()]), None);
        assert!(Prim::Sig.eval(&[Rational::zero()]).unwrap() == Rational::from_ratio(1, 2));
    }

    #[test]
    fn prim_eval_overflowing_floats_are_undefined() {
        // exp(1000) is +inf as an f64: undefined, like log of a non-positive.
        assert_eq!(Prim::Exp.eval(&[Rational::from_int(1000)]), None);
        assert!(Prim::Exp.eval(&[Rational::from_int(700)]).is_some());
        let mut huge = Rational::from_int(10);
        for _ in 0..9 {
            huge = &huge * &huge;
        }
        assert_eq!(Prim::Log.eval(&[huge.clone()]), None);
        assert_eq!(Prim::Sig.eval(&[-&huge]), Some(Rational::zero()));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn prim_eval_wrong_arity_panics() {
        let _ = Prim::Add.eval(&[Rational::one()]);
    }

    #[test]
    fn free_vars_and_closedness() {
        // μφ x. if sample ≤ p then x else φ (x + 1)   with p free
        let body = Term::ite(
            Term::leq(Term::Sample, Term::var("p")),
            Term::var("x"),
            Term::app(Term::var("phi"), Term::add(Term::var("x"), Term::int(1))),
        );
        let term = Term::fix("phi", "x", body);
        let fv = term.free_vars();
        assert_eq!(fv.len(), 1);
        assert!(fv.contains(&ident("p")));
        assert!(!term.is_closed());
        let closed = term.subst(&ident("p"), &Term::ratio(1, 2));
        assert!(closed.is_closed());
    }

    #[test]
    fn substitution_avoids_capture() {
        // (λy. x) [y / x]  must not capture: result is λy'. y
        let t = Term::lam("y", Term::var("x"));
        let result = t.subst(&ident("x"), &Term::var("y"));
        match result {
            Term::Lam(binder, body) => {
                assert_ne!(&*binder, "y");
                assert_eq!(*body, Term::var("y"));
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn substitution_respects_shadowing() {
        // (λx. x) [1 / x] = λx. x
        let t = Term::lam("x", Term::var("x"));
        assert_eq!(t.subst(&ident("x"), &Term::int(1)), t);
        // fix φ x. φ x   is unaffected by substituting φ or x.
        let f = Term::fix("phi", "x", Term::app(Term::var("phi"), Term::var("x")));
        assert_eq!(f.subst(&ident("phi"), &Term::int(0)), f);
        assert_eq!(f.subst(&ident("x"), &Term::int(0)), f);
    }

    #[test]
    fn alpha_equivalence() {
        let a = Term::lam("x", Term::var("x"));
        let b = Term::lam("y", Term::var("y"));
        assert!(a.alpha_eq(&b));
        let c = Term::lam("x", Term::var("z"));
        let d = Term::lam("y", Term::var("z"));
        assert!(c.alpha_eq(&d));
        assert!(!a.alpha_eq(&c));
        let f1 = Term::fix("f", "x", Term::app(Term::var("f"), Term::var("x")));
        let f2 = Term::fix("g", "y", Term::app(Term::var("g"), Term::var("y")));
        assert!(f1.alpha_eq(&f2));
    }

    #[test]
    fn choice_desugaring() {
        let t = Term::fair_choice(Term::int(0), Term::int(1));
        match t {
            Term::If(guard, _, _) => match *guard {
                Term::Prim(Prim::Sub, ref args) => {
                    assert_eq!(args[0], Term::Sample);
                    assert_eq!(args[1], Term::ratio(1, 2));
                }
                other => panic!("unexpected guard {other:?}"),
            },
            other => panic!("unexpected desugaring {other:?}"),
        }
    }

    #[test]
    fn size_and_sample_count() {
        let t = Term::fair_choice(Term::Sample, Term::int(1));
        assert_eq!(t.count_samples(), 2);
        assert!(t.size() >= 6);
        assert!(Term::int(4).is_value());
        assert!(!Term::score(Term::int(1)).is_value());
    }

    #[test]
    fn fresh_idents_are_distinct() {
        let a = fresh_ident("x");
        let b = fresh_ident("x");
        assert_ne!(a, b);
        assert!(a.contains('#'));
    }
}
