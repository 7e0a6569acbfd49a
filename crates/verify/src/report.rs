//! Report rendering: the per-node abstract-state dump the `choco-verify`
//! CLI prints, in plain text and in JSON.
//!
//! JSON is rendered by hand (the workspace carries no serde); the schema is
//! committed as `VERIFY_workloads.json` and consumed by ci.sh, so keep field
//! names stable.

use crate::analyze::{analyze, AbstractState, Scheme, VerifyOptions};
use crate::circuit::Circuit;
use crate::Diagnostic;
use std::fmt::Write as _;

/// One row of the per-node dump: node index, rendered op, abstract state.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// Node index.
    pub node: usize,
    /// Rendered op with operand indices (`"Mul(3, 5)"`).
    pub op: String,
    /// The abstract value the pass computed.
    pub state: AbstractState,
}

/// The full result of one verification pass: per-node states and every
/// diagnostic, whether or not verification succeeded.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Scheme the pass targeted.
    pub scheme: Scheme,
    /// Per-node rows, in circuit order (empty for malformed topologies).
    pub rows: Vec<NodeRow>,
    /// Output node indices.
    pub outputs: Vec<usize>,
    /// All findings, sorted by (node, rule); empty on success.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// Runs [`analyze`] and packages states + diagnostics together — what
    /// the CLI renders even when verification fails.
    pub fn build(circuit: &Circuit<'_>, opts: &VerifyOptions) -> VerifyReport {
        let (states, diagnostics) = analyze(circuit, opts);
        let rows = circuit
            .ops
            .iter()
            .zip(states)
            .enumerate()
            .map(|(node, (op, state))| NodeRow {
                node,
                op: op.describe(),
                state,
            })
            .collect();
        VerifyReport {
            scheme: opts.scheme,
            rows,
            outputs: circuit.outputs.iter().map(|o| o.index()).collect(),
            diagnostics,
        }
    }

    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Plain-text rendering: a header, one aligned row per node, the output
    /// list, and every diagnostic.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let verdict = if self.is_clean() {
            "OK".to_string()
        } else {
            format!("{} diagnostic(s)", self.diagnostics.len())
        };
        let _ = writeln!(
            out,
            "# choco-verify ({}): {} nodes, {} output(s), {verdict}",
            self.scheme.name(),
            self.rows.len(),
            self.outputs.len(),
        );
        let op_w = self
            .rows
            .iter()
            .map(|r| r.op.len())
            .max()
            .unwrap_or(2)
            .max(2);
        let _ = writeln!(
            out,
            "{:>5}  {:<op_w$}  {:<6}  {:>5}  {:>7}  {:>7}  {:>5}",
            "node", "op", "kind", "level", "scale", "noise", "width"
        );
        for r in &self.rows {
            let width = r
                .state
                .width
                .map_or_else(|| "-".to_string(), |w| w.to_string());
            let _ = writeln!(
                out,
                "{:>5}  {:<op_w$}  {:<6}  {:>5}  {:>7.1}  {:>7.1}  {:>5}",
                r.node,
                r.op,
                r.state.kind.name(),
                r.state.level,
                r.state.scale_bits,
                r.state.noise_bits,
                width,
            );
        }
        let _ = writeln!(out, "outputs: {:?}", self.outputs);
        for d in &self.diagnostics {
            let _ = writeln!(out, "error: {d}");
        }
        out
    }

    /// JSON rendering (hand-built; stable field names).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"scheme\": \"{}\",", self.scheme.name());
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(out, "  \"outputs\": {:?},", self.outputs);
        out.push_str("  \"nodes\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let width = r
                .state
                .width
                .map_or_else(|| "null".to_string(), |w| w.to_string());
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"node\": {}, \"op\": {}, \"kind\": \"{}\", \"level\": {}, \
                 \"scale_bits\": {:.3}, \"noise_bits\": {:.3}, \"width\": {width}}}{comma}",
                r.node,
                json_string(&r.op),
                r.state.kind.name(),
                r.state.level,
                r.state.scale_bits,
                r.state.noise_bits,
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"node\": {}, \"op\": {}, \"msg\": {}}}{comma}",
                d.rule.id(),
                d.node,
                json_string(&d.op),
                json_string(&d.msg),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping: quotes, backslashes, control characters.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
