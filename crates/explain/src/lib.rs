//! Shared rendering of analysis artifacts.
//!
//! One crate owns every human- and machine-facing rendering of the engines'
//! richer outputs, so the CLI and the analysis service emit byte-identical
//! artifacts:
//!
//! * **Provenance** ([`probterm_intervalsem::Provenance`]) as indented text
//!   ([`render_text`]), as a JSON artifact with a documented stable schema
//!   ([`render_json`], schema [`SCHEMA`]), and as a Graphviz DOT rendering of
//!   the explored branch tree with per-path mass annotations
//!   ([`render_dot`]).
//! * **Symbolic execution trees** ([`probterm_astver::ExecTree`], the AST
//!   verifier's Fig. 6a object) as DOT ([`exec_tree_dot`]) — sharing the same
//!   [`DotBuilder`] so both families of diagrams agree on escaping and
//!   styling.
//!
//! # JSON schema (`probterm-explain-v1`)
//!
//! Top level: `schema` (string, [`SCHEMA`]), `program` (string), `depth`
//! (uint), `complete` (bool — `false` iff the run was interrupted by a
//! deadline, matching the service's partial-result convention),
//! `probability` / `expected_steps` (exact rationals as strings, `"p/q"` or
//! `"n"`), `probability_decimal` (10 truncated decimal digits),
//! `probability_f64` / `expected_steps_f64` (lossy doubles), `elapsed_ms`
//! (uint), `paths_total` / `paths_shown` (uint — they differ only under
//! `--top K`), `paths` (array) and `frontier` (object).
//!
//! Each entry of `paths`: `index` (uint, exploration order), `volume` (exact
//! rational string), `volume_f64`, `method` (`"exact"` | `"box_sweep"`; a
//! sweep that certifies nothing reports `box_sweep` with volume 0),
//! `box_budget` (uint, only for `box_sweep`), `samples`, `steps` (uints),
//! `branches` (string over `T`/`E`), `constraints` (array of display
//! strings), `result` (string or null), `witness` (null, or an object
//! `{trace: [rational strings], replayed: bool, replay_steps: uint|null}`).
//!
//! `frontier`: `paused`, `stuck` (uints), `interrupted` (bool),
//! `exploration_complete` (bool — no abandoned paths and no interruption),
//! `depth_histogram` (array of `[depth, count]` pairs, sorted by depth),
//! `attributed_mass` / `unaccounted_mass` (exact rational strings) and their
//! `_f64` companions. Invariant: `attributed_mass` equals the sum of *all*
//! path volumes (shown or not) and equals `probability` exactly;
//! `unaccounted_mass = 1 − attributed_mass`.

#![warn(missing_docs)]

use probterm_astver::ExecTree;
use probterm_intervalsem::{Branch, PathProvenance, Provenance, VolumeMethod};
use probterm_numerics::Rational;
use serde::Value;

/// The JSON artifact schema identifier.
pub const SCHEMA: &str = "probterm-explain-v1";

// ------------------------------------------------------------- DOT builder

/// A tiny Graphviz DOT emitter: numbered nodes, labelled edges, and the
/// escaping rules of the DOT language in exactly one place.
#[derive(Debug)]
pub struct DotBuilder {
    body: String,
    nodes: usize,
}

impl DotBuilder {
    /// Starts a digraph with the given default node attributes.
    pub fn new(graph_attrs: &str) -> DotBuilder {
        let mut body = String::from("digraph probterm {\n");
        if !graph_attrs.is_empty() {
            body.push_str("  ");
            body.push_str(graph_attrs);
            body.push('\n');
        }
        DotBuilder { body, nodes: 0 }
    }

    /// Escapes a label for a double-quoted DOT string.
    pub fn escape(label: &str) -> String {
        let mut out = String::with_capacity(label.len());
        for c in label.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out
    }

    /// Adds a node with a label and optional extra attributes (e.g.
    /// `shape=box`); returns its id.
    pub fn node(&mut self, label: &str, attrs: &str) -> usize {
        let id = self.nodes;
        self.nodes += 1;
        let extra = if attrs.is_empty() { String::new() } else { format!(", {attrs}") };
        self.body
            .push_str(&format!("  n{id} [label=\"{}\"{extra}];\n", Self::escape(label)));
        id
    }

    /// Adds an edge, optionally labelled, with optional extra attributes.
    pub fn edge(&mut self, from: usize, to: usize, label: Option<&str>, attrs: &str) {
        let mut decorations: Vec<String> = Vec::new();
        if let Some(l) = label {
            decorations.push(format!("label=\"{}\"", Self::escape(l)));
        }
        if !attrs.is_empty() {
            decorations.push(attrs.to_string());
        }
        if decorations.is_empty() {
            self.body.push_str(&format!("  n{from} -> n{to};\n"));
        } else {
            self.body
                .push_str(&format!("  n{from} -> n{to} [{}];\n", decorations.join(", ")));
        }
    }

    /// Closes the digraph and returns the DOT source.
    pub fn finish(mut self) -> String {
        self.body.push_str("}\n");
        self.body
    }
}

// ------------------------------------------------------------- selection

/// Returns the paths to display: all of them in exploration order, or — under
/// `--top K` — the `K` largest contributions, ordered by volume descending
/// (ties broken by exploration order).
pub fn select_paths(provenance: &Provenance, top: Option<usize>) -> Vec<&PathProvenance> {
    match top {
        None => provenance.paths.iter().collect(),
        Some(k) => {
            let mut ordered: Vec<&PathProvenance> = provenance.paths.iter().collect();
            ordered.sort_by(|a, b| b.volume.cmp(&a.volume).then(a.index.cmp(&b.index)));
            ordered.truncate(k);
            ordered
        }
    }
}

fn method_str(method: VolumeMethod) -> &'static str {
    match method {
        VolumeMethod::Exact => "exact",
        VolumeMethod::BoxSweep { .. } => "box_sweep",
    }
}

fn branches_str(branches: &[Branch]) -> String {
    branches
        .iter()
        .map(|b| match b {
            Branch::Then => 'T',
            Branch::Else => 'E',
        })
        .collect()
}

// ------------------------------------------------------------- text

/// Renders a provenance artifact as indented terminal text.
pub fn render_text(provenance: &Provenance, top: Option<usize>) -> String {
    let shown = select_paths(provenance, top);
    let f = &provenance.frontier;
    let mut out = String::new();
    out.push_str(&format!(
        "lower bound: {} (= {})\n",
        provenance.result.probability.to_decimal_string(10),
        provenance.result.probability
    ));
    out.push_str(&format!(
        "expected steps (lower bound): {}\n",
        provenance.result.expected_steps.to_decimal_string(4)
    ));
    out.push_str(&format!(
        "paths: {} terminated ({} shown), {} paused, {} stuck\n",
        provenance.paths.len(),
        shown.len(),
        f.paused,
        f.stuck
    ));
    out.push_str(&format!(
        "exploration complete: {}{}\n",
        if f.complete { "yes" } else { "no" },
        if f.interrupted { " (interrupted by deadline)" } else { "" }
    ));
    out.push_str(&format!(
        "unaccounted mass: {} (= {})\n",
        f.unaccounted_mass.to_decimal_string(10),
        f.unaccounted_mass
    ));
    for path in &shown {
        out.push_str(&format!(
            "path {}: volume {} ({}) steps {} samples {} branches [{}]\n",
            path.index,
            path.volume,
            method_str(path.method),
            path.steps,
            path.sample_count,
            branches_str(&path.branches)
        ));
        if !path.constraints.is_empty() {
            let rendered: Vec<String> =
                path.constraints.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!("  constraints: {}\n", rendered.join(", ")));
        }
        if let Some(result) = &path.result {
            out.push_str(&format!("  result: {result}\n"));
        }
        match &path.witness {
            Some(w) => {
                let trace: Vec<String> = w.trace.iter().map(|r| r.to_string()).collect();
                out.push_str(&format!(
                    "  witness: [{}] {}\n",
                    trace.join(", "),
                    match (w.replayed, w.replay_steps) {
                        (true, Some(steps)) => format!("replayed to termination in {steps} steps"),
                        _ => "REPLAY FAILED".to_string(),
                    }
                ));
            }
            None => out.push_str("  witness: none found\n"),
        }
    }
    if !f.depth_histogram.is_empty() {
        let cells: Vec<String> = f
            .depth_histogram
            .iter()
            .map(|(depth, count)| format!("{count}\u{00d7}depth {depth}"))
            .collect();
        out.push_str(&format!("frontier: {}\n", cells.join(", ")));
    }
    out
}

// ------------------------------------------------------------- JSON

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn rational(r: &Rational) -> Value {
    Value::Str(r.to_string())
}

/// Renders a provenance artifact as the documented JSON [`SCHEMA`] (see the
/// crate docs). `program` and `depth` identify the run; `top` limits `paths`
/// to the `K` largest contributions without changing any of the totals.
pub fn render_json(
    provenance: &Provenance,
    program: &str,
    depth: usize,
    top: Option<usize>,
) -> Value {
    let shown = select_paths(provenance, top);
    let f = &provenance.frontier;
    let paths: Vec<Value> = shown
        .iter()
        .map(|path| {
            let mut fields = vec![
                ("index", Value::UInt(path.index as u128)),
                ("volume", rational(&path.volume)),
                ("volume_f64", Value::Num(path.volume.to_f64())),
                ("method", Value::Str(method_str(path.method).to_string())),
            ];
            if let VolumeMethod::BoxSweep { max_boxes } = path.method {
                fields.push(("box_budget", Value::UInt(max_boxes as u128)));
            }
            fields.push(("samples", Value::UInt(path.sample_count as u128)));
            fields.push(("steps", Value::UInt(path.steps as u128)));
            fields.push(("branches", Value::Str(branches_str(&path.branches))));
            fields.push((
                "constraints",
                Value::Array(
                    path.constraints.iter().map(|c| Value::Str(c.to_string())).collect(),
                ),
            ));
            fields.push((
                "result",
                match &path.result {
                    Some(v) => Value::Str(v.to_string()),
                    None => Value::Null,
                },
            ));
            fields.push((
                "witness",
                match &path.witness {
                    Some(w) => obj(vec![
                        ("trace", Value::Array(w.trace.iter().map(rational).collect())),
                        ("replayed", Value::Bool(w.replayed)),
                        (
                            "replay_steps",
                            match w.replay_steps {
                                Some(steps) => Value::UInt(steps as u128),
                                None => Value::Null,
                            },
                        ),
                    ]),
                    None => Value::Null,
                },
            ));
            obj(fields)
        })
        .collect();
    let histogram: Vec<Value> = f
        .depth_histogram
        .iter()
        .map(|(depth, count)| {
            Value::Array(vec![Value::UInt(*depth as u128), Value::UInt(*count as u128)])
        })
        .collect();
    obj(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        ("program", Value::Str(program.to_string())),
        ("depth", Value::UInt(depth as u128)),
        ("complete", Value::Bool(!f.interrupted)),
        ("probability", rational(&provenance.result.probability)),
        (
            "probability_decimal",
            Value::Str(provenance.result.probability.to_decimal_string(10)),
        ),
        ("probability_f64", Value::Num(provenance.result.probability.to_f64())),
        ("expected_steps", rational(&provenance.result.expected_steps)),
        ("expected_steps_f64", Value::Num(provenance.result.expected_steps.to_f64())),
        ("elapsed_ms", Value::UInt(provenance.result.elapsed.as_millis())),
        ("paths_total", Value::UInt(provenance.paths.len() as u128)),
        ("paths_shown", Value::UInt(paths.len() as u128)),
        ("paths", Value::Array(paths)),
        (
            "frontier",
            obj(vec![
                ("paused", Value::UInt(f.paused as u128)),
                ("stuck", Value::UInt(f.stuck as u128)),
                ("interrupted", Value::Bool(f.interrupted)),
                ("exploration_complete", Value::Bool(f.complete)),
                ("depth_histogram", Value::Array(histogram)),
                ("attributed_mass", rational(&f.attributed_mass)),
                ("attributed_mass_f64", Value::Num(f.attributed_mass.to_f64())),
                ("unaccounted_mass", rational(&f.unaccounted_mass)),
                ("unaccounted_mass_f64", Value::Num(f.unaccounted_mass.to_f64())),
            ]),
        ),
    ])
}

// ------------------------------------------------------------- DOT

/// How many terminated paths [`render_dot`] draws when no `--top` is given.
const DOT_DEFAULT_PATHS: usize = 64;
/// How many frontier (paused) leaves [`render_dot`] draws.
const DOT_FRONTIER_LEAVES: usize = 32;

/// Renders the explored branch tree as Graphviz DOT: internal nodes are
/// branch prefixes, solid box leaves are terminated paths annotated with
/// their mass, method and witness status, dashed leaves are paused frontier
/// paths. Edge labels carry the branch constraints.
pub fn render_dot(provenance: &Provenance, top: Option<usize>) -> String {
    let shown = select_paths(provenance, Some(top.unwrap_or(DOT_DEFAULT_PATHS)));
    let truncated_paths = provenance.paths.len() - shown.len();
    let mut dot = DotBuilder::new("node [fontname=\"Helvetica\"];");
    let root = dot.node("start", "shape=circle");
    // Trie of branch prefixes over 'T'/'E'.
    let mut trie: Vec<(String, usize)> = vec![(String::new(), root)];
    let lookup = |dot: &mut DotBuilder,
                      trie: &mut Vec<(String, usize)>,
                      branches: &mut dyn Iterator<Item = Branch>,
                      labels: &[Option<String>]|
     -> usize {
        let mut prefix = String::new();
        let mut node = trie[0].1;
        for (i, b) in branches.enumerate() {
            let step = match b {
                Branch::Then => 'T',
                Branch::Else => 'E',
            };
            prefix.push(step);
            match trie.iter().find(|(p, _)| *p == prefix) {
                Some((_, id)) => node = *id,
                None => {
                    let child = dot.node("", "shape=point");
                    let label = labels.get(i).and_then(|l| l.as_deref());
                    dot.edge(node, child, label, "");
                    trie.push((prefix.clone(), child));
                    node = child;
                }
            }
        }
        node
    };
    for path in &shown {
        // The i-th branch corresponds to the i-th non-score constraint: every
        // fork records exactly one NonPositive/Positive constraint, while
        // `score` interleaves NonNegative ones.
        let labels: Vec<Option<String>> = {
            use probterm_intervalsem::ConstraintKind;
            path.constraints
                .iter()
                .filter(|c| c.kind != ConstraintKind::NonNegative)
                .map(|c| Some(c.to_string()))
                .collect()
        };
        let parent = lookup(&mut dot, &mut trie, &mut path.branches.iter().copied(), &labels);
        let witness_mark = match &path.witness {
            Some(w) if w.replayed => ", witness ok",
            Some(_) => ", WITNESS FAILED",
            None => "",
        };
        let leaf = dot.node(
            &format!(
                "path {}\nvolume {} ({}){}",
                path.index,
                path.volume,
                method_str(path.method),
                witness_mark
            ),
            "shape=box",
        );
        dot.edge(parent, leaf, None, "");
    }
    if truncated_paths > 0 {
        let summary =
            dot.node(&format!("+{truncated_paths} more terminated paths"), "shape=box, style=dotted");
        dot.edge(root, summary, None, "style=dotted");
    }
    let frontier_shown = provenance.frontier_paths.iter().take(DOT_FRONTIER_LEAVES);
    for f in frontier_shown {
        let parent = lookup(&mut dot, &mut trie, &mut f.branches.iter(), &[]);
        let leaf = dot.node(
            &format!("paused\ndepth {} steps {}", f.depth(), f.steps),
            "shape=box, style=dashed",
        );
        dot.edge(parent, leaf, None, "style=dashed");
    }
    let truncated_frontier =
        provenance.frontier_paths.len().saturating_sub(DOT_FRONTIER_LEAVES);
    if truncated_frontier > 0 {
        let summary = dot.node(
            &format!("+{truncated_frontier} more paused paths"),
            "shape=box, style=dashed",
        );
        dot.edge(root, summary, None, "style=dashed");
    }
    dot.finish()
}

// ------------------------------------------------------------- ExecTree DOT

/// Renders an AST-verifier symbolic execution tree (Fig. 6a) as Graphviz
/// DOT, sharing the [`DotBuilder`] styling with [`render_dot`]: `μ` nodes are
/// circles, probabilistic branches diamonds, Environment-resolved branches
/// red diamonds, leaves boxes.
pub fn exec_tree_dot(tree: &ExecTree) -> String {
    let mut dot = DotBuilder::new("node [fontname=\"Helvetica\"];");
    fn go(dot: &mut DotBuilder, tree: &ExecTree) -> usize {
        match tree {
            ExecTree::Leaf => dot.node("leaf", "shape=box"),
            ExecTree::Stuck => dot.node("stuck", "shape=box, style=dashed"),
            ExecTree::Mu(rest) => {
                let child = go(dot, rest);
                let id = dot.node("\u{03bc}", "shape=circle");
                dot.edge(id, child, None, "");
                id
            }
            ExecTree::Score { value, rest } => {
                let child = go(dot, rest);
                let id = dot.node(&format!("score({value})"), "shape=ellipse");
                dot.edge(id, child, None, "");
                id
            }
            ExecTree::Prob { guard, then, els } => {
                let t = go(dot, then);
                let e = go(dot, els);
                let id = dot.node(&format!("{guard} \u{2264} 0"), "shape=diamond");
                dot.edge(id, t, Some("then"), "");
                dot.edge(id, e, Some("else"), "");
                id
            }
            ExecTree::Env { id: env_id, guard, then, els } => {
                let t = go(dot, then);
                let e = go(dot, els);
                let id = dot.node(
                    &format!("env #{env_id}\n{guard} \u{2264} 0"),
                    "shape=diamond, color=red",
                );
                dot.edge(id, t, Some("then"), "");
                dot.edge(id, e, Some("else"), "");
                id
            }
        }
    }
    go(&mut dot, tree);
    dot.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use probterm_astver::build_tree;
    use probterm_intervalsem::{explain, ExplainConfig, LowerBoundConfig};
    use probterm_spcf::parse_term;

    fn provenance(src: &str, depth: usize) -> Provenance {
        let term = parse_term(src).unwrap();
        explain(
            &term,
            &ExplainConfig::default().with_lower(LowerBoundConfig::default().with_depth(depth)),
        )
    }

    fn assert_dot_well_formed(dot: &str) {
        assert!(dot.starts_with("digraph "), "missing digraph header: {dot}");
        assert!(dot.trim_end().ends_with('}'), "unterminated digraph");
        // Quotes inside labels must be escaped, so unescaped quotes pair up.
        let mut depth = 0i64;
        for c in dot.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced braces");
        }
        assert_eq!(depth, 0, "unbalanced braces");
    }

    #[test]
    fn geometric_renders_in_all_formats() {
        let p = provenance("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0", 40);
        let text = render_text(&p, None);
        assert!(text.contains("lower bound:"));
        assert!(text.contains("replayed to termination"));
        let json = render_json(&p, "geo", 40, None);
        assert_eq!(json.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            json.get("paths_total").and_then(Value::as_u64),
            Some(p.paths.len() as u64)
        );
        // The artifact text round-trips through the JSON parser.
        let rendered = serde_json::to_string_pretty(&json).expect("render");
        let parsed = serde_json::from_str(&rendered).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(Value::as_str), Some(SCHEMA));
        let dot = render_dot(&p, None);
        assert_dot_well_formed(&dot);
        assert!(dot.contains("paused"), "frontier leaves are drawn");
    }

    #[test]
    fn top_k_limits_paths_but_not_totals() {
        let p = provenance("(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0", 60);
        assert!(p.paths.len() > 3);
        let json = render_json(&p, "geo", 60, Some(2));
        assert_eq!(json.get("paths_shown").and_then(Value::as_u64), Some(2));
        assert_eq!(
            json.get("paths_total").and_then(Value::as_u64),
            Some(p.paths.len() as u64)
        );
        // Totals still describe the full run.
        assert_eq!(
            json.get("probability").and_then(Value::as_str),
            Some(p.result.probability.to_string().as_str())
        );
        // Top-2 selection picks the largest volumes.
        let selected = select_paths(&p, Some(2));
        assert!(selected[0].volume >= selected[1].volume);
        let max = p.paths.iter().map(|q| q.volume.clone()).max().unwrap();
        assert_eq!(selected[0].volume, max);
    }

    #[test]
    fn dot_escapes_label_metacharacters() {
        assert_eq!(DotBuilder::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut dot = DotBuilder::new("");
        let a = dot.node("say \"hi\"", "");
        let b = dot.node("back\\slash", "shape=box");
        dot.edge(a, b, Some("line\nbreak"), "style=dashed");
        let out = dot.finish();
        assert_dot_well_formed(&out);
        assert!(out.contains("say \\\"hi\\\""));
        assert!(out.contains("back\\\\slash"));
        assert!(out.contains("line\\nbreak"));
    }

    #[test]
    fn exec_tree_dot_draws_the_verifier_tree() {
        let term =
            parse_term("(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1").unwrap();
        let tree = build_tree(&term).expect("tree builds");
        let dot = exec_tree_dot(&tree.tree);
        assert_dot_well_formed(&dot);
        assert!(dot.contains("\u{03bc}"), "recursive-call nodes rendered");
        assert!(dot.contains("shape=diamond"), "branch nodes rendered");
    }
}
