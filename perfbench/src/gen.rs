//! Seeded input generation. Every program the benchmark submits is built
//! here from the workload seed; the engines and the server only ever see the
//! generated source text.

use probterm_numerics::Rational;
use probterm_spcf::catalog::{self, Benchmark};
use probterm_spcf::{parse_term, Term};

/// SplitMix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_4A11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A fresh identifier: a letter followed by base-36 digits, never an
    /// SPCF keyword (keywords have no digits).
    pub fn identifier(&mut self) -> String {
        const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
        let mut name = String::from(char::from(b'a' + (self.below(26) as u8)));
        for _ in 0..3 {
            name.push(char::from(DIGITS[self.below(10)]));
        }
        name
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '\''
}

/// Splits source text into identifier tokens and everything between them.
fn tokens(source: &str) -> Vec<(bool, &str)> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_ident = false;
    for (i, c) in source.char_indices() {
        // Digits continue an identifier but never start one (`1/2`).
        let ident = if in_ident {
            is_ident_char(c)
        } else {
            c.is_ascii_alphabetic() || c == '_'
        };
        if ident != in_ident {
            if i > start {
                out.push((in_ident, &source[start..i]));
            }
            start = i;
            in_ident = ident;
        }
    }
    if start < source.len() {
        out.push((in_ident, &source[start..]));
    }
    out
}

/// Renames every bound variable of `source` (the names after `fix`, `lam`
/// and `let`) to a fresh identifier. The result is α-equivalent to the
/// input, so it has the same canonical key and the service caches it under
/// the same entry.
pub fn alpha_rename(source: &str, rng: &mut Rng) -> String {
    let toks = tokens(source);
    let mut binders: Vec<&str> = Vec::new();
    let idents: Vec<&str> = toks.iter().filter(|(id, _)| *id).map(|(_, t)| *t).collect();
    for (i, tok) in idents.iter().enumerate() {
        let bound = match *tok {
            "fix" => 2,
            "let" => 1,
            // `lam a b. body` binds every name up to the dot; the
            // catalogue and the templates bind one name per `lam`.
            "lam" => 1,
            _ => 0,
        };
        for name in idents.iter().skip(i + 1).take(bound) {
            if !binders.contains(name) {
                binders.push(name);
            }
        }
    }
    let mut fresh: Vec<String> = Vec::new();
    while fresh.len() < binders.len() {
        let name = rng.identifier();
        if !fresh.contains(&name) {
            fresh.push(name);
        }
    }
    toks.iter()
        .map(|(id, t)| match binders.iter().position(|b| b == t) {
            Some(k) if *id => fresh[k].as_str(),
            _ => t,
        })
        .collect()
}

/// Parses generated source; a failure is a bug in this generator.
pub fn parse(source: &str) -> Term {
    parse_term(source)
        .unwrap_or_else(|e| panic!("generated program `{source}` does not parse: {e}"))
}

/// Fills a template's `{f}` (recursive function), `{x}` (its argument),
/// `{c}` (guard constant), `{k}` (increment) and `{s}` (start value).
fn fill(template: &str, c: &str, k: u32, s: u32) -> String {
    template
        .replace("{f}", "phi")
        .replace("{x}", "x")
        .replace("{c}", c)
        .replace("{k}", &k.to_string())
        .replace("{s}", &s.to_string())
}

/// One family of non-affine programs for the `nonlinear` workload. The seed
/// picks the increment, the start value and the names, which change the
/// program text but neither its bound nor its cost; the guard constant is
/// fixed, because the box sweep's cost depends on it by ±15%, which would
/// make the run-to-run spread measure the seed instead of the program.
pub struct Family {
    pub name: &'static str,
    pub template: &'static str,
    pub depth: usize,
    pub constant: &'static str,
    /// Probability that the guard holds, as a function of its constant.
    pub guard_probability: fn(f64) -> f64,
    /// Geometric style (`phi (x + k)`, terminates almost surely for any
    /// positive guard probability) or printer style (`phi (phi (x + k))`,
    /// terminates with probability `min(1, q / (1 - q))`).
    pub printer: bool,
}

/// `P(U·V ≤ c)` for independent uniforms, `0 < c ≤ 1`.
fn product2(c: f64) -> f64 {
    c * (1.0 - c.ln())
}

/// `P(U·V·W ≤ c)` for independent uniforms, `0 < c ≤ 1`.
fn product3(c: f64) -> f64 {
    let l = c.ln();
    c * (1.0 - l + l * l / 2.0)
}

/// `P(U·V + W ≤ c)` for independent uniforms, `0 < c ≤ 1`.
fn product_plus(c: f64) -> f64 {
    0.75 * c * c - c * c * c.ln() / 2.0
}

/// Every family's guard is non-affine in the samples (each `sample` is a
/// fresh draw under call-by-name), so every terminated path is measured by
/// the box sweep. Depths keep each program in the 100–400 ms range.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "geo_prod2",
        template: "(fix {f} {x}. if sample * sample <= {c} then {x} else {f} ({x} + {k})) {s}",
        depth: 40,
        constant: "1/2",
        guard_probability: product2,
        printer: false,
    },
    Family {
        name: "geo_prod3",
        template: "(fix {f} {x}. if sample * sample * sample <= {c} then {x} else {f} ({x} + {k})) {s}",
        depth: 40,
        constant: "1/2",
        guard_probability: product3,
        printer: false,
    },
    Family {
        name: "geo_poly",
        template: "(fix {f} {x}. if sample * sample + sample <= {c} then {x} else {f} ({x} + {k})) {s}",
        depth: 40,
        constant: "1/2",
        guard_probability: product_plus,
        printer: false,
    },
    Family {
        name: "printer_prod2",
        template: "(fix {f} {x}. if sample * sample <= {c} then {x} else {f} ({f} ({x} + {k}))) {s}",
        depth: 40,
        constant: "1/4",
        guard_probability: product2,
        printer: true,
    },
    Family {
        name: "printer_poly",
        template: "(fix {f} {x}. if sample * sample + sample <= {c} then {x} else {f} ({f} ({x} + {k}))) {s}",
        depth: 40,
        constant: "1/2",
        guard_probability: product_plus,
        printer: true,
    },
];

impl Family {
    /// The analytic termination probability.
    pub fn pterm(&self) -> f64 {
        let c = Rational::parse(self.constant)
            .expect("family constants are rationals")
            .to_f64();
        let q = (self.guard_probability)(c);
        if self.printer {
            (q / (1.0 - q)).min(1.0)
        } else {
            1.0
        }
    }

    /// The family member with increment `k` and start `s`, before renaming.
    pub fn source(&self, k: u32, s: u32) -> String {
        fill(self.template, self.constant, k, s)
    }
}

/// One generated `nonlinear` program.
pub struct NonlinearProgram {
    pub family: &'static Family,
    pub source: String,
}

/// One program per family, increments, starts and names drawn from the
/// seed.
pub fn nonlinear(rng: &mut Rng) -> Vec<NonlinearProgram> {
    FAMILIES
        .iter()
        .map(|family| {
            let k = 1 + rng.below(99) as u32;
            let s = rng.below(100) as u32;
            NonlinearProgram {
                family,
                source: alpha_rename(&family.source(k, s), rng),
            }
        })
        .collect()
}

/// A cold-request template: the text of a catalogue program with the
/// increment and start value left open. Neither changes the program's
/// control flow, so every instance has the catalogue program's bound and
/// verdict while hashing to its own cache key.
pub struct ColdTemplate {
    pub template: &'static str,
    pub catalogue: Benchmark,
    /// The catalogue program's own increment and start value.
    pub k: u32,
    pub s: u32,
}

impl ColdTemplate {
    pub fn source(&self, k: u32, s: u32) -> String {
        fill(self.template, "", k, s)
    }

    /// Panics unless the template reproduces its catalogue program.
    fn checked(self) -> ColdTemplate {
        let own = parse(&self.source(self.k, self.s));
        assert_eq!(
            own.canonical_key(),
            self.catalogue.term.canonical_key(),
            "template `{}` drifted from catalogue program {}",
            self.template,
            self.catalogue.name
        );
        self
    }
}

/// `geo(1/2)`: the cold `lower` requests of the open-loop phase.
pub fn cold_lower_template() -> ColdTemplate {
    ColdTemplate {
        template: "(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({x} + {k})) {s}",
        catalogue: catalog::geometric(Rational::from_ratio(1, 2)),
        k: 1,
        s: 0,
    }
    .checked()
}

/// The Table 2 programs whose control flow ignores the argument: the cold
/// `verify` requests of the open-loop phase.
pub fn cold_verify_templates() -> Vec<ColdTemplate> {
    vec![
        ColdTemplate {
            template: "(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({x} + {k})) {s}",
            catalogue: catalog::printer_affine(Rational::from_ratio(1, 2)),
            k: 1,
            s: 1,
        }
        .checked(),
        ColdTemplate {
            template: "(fix {f} {x}. if sample <= 1/2 then {x} else {f} ({f} ({x} + {k}))) {s}",
            catalogue: catalog::printer_nonaffine(Rational::from_ratio(1, 2)),
            k: 1,
            s: 1,
        }
        .checked(),
        ColdTemplate {
            template:
                "(fix {f} {x}. if sample <= 2/3 then {x} else {f} ({f} ({f} ({x} + {k})))) {s}",
            catalogue: catalog::three_print(Rational::from_ratio(2, 3)),
            k: 1,
            s: 1,
        }
        .checked(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_preserves_the_canonical_key() {
        let mut rng = Rng::new(7);
        for b in catalog::table1_benchmarks()
            .iter()
            .chain(&catalog::table2_benchmarks())
        {
            let source = b.term.to_string();
            let renamed = alpha_rename(&source, &mut rng);
            assert_ne!(renamed, source, "{}", b.name);
            assert_eq!(
                parse(&renamed).canonical_key(),
                b.term.canonical_key(),
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn templates_match_the_catalogue() {
        cold_lower_template();
        assert_eq!(cold_verify_templates().len(), 3);
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a: Vec<String> = nonlinear(&mut Rng::new(3))
            .into_iter()
            .map(|p| p.source)
            .collect();
        let b: Vec<String> = nonlinear(&mut Rng::new(3))
            .into_iter()
            .map(|p| p.source)
            .collect();
        let c: Vec<String> = nonlinear(&mut Rng::new(4))
            .into_iter()
            .map(|p| p.source)
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
