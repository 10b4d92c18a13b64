//! In-process span-profile aggregation: folds the registry's flat
//! `path -> histogram` span table into a merged call tree with inclusive /
//! exclusive wall time, call counts, and per-node quantiles.
//!
//! *Inclusive* time is everything recorded under a span path; *exclusive*
//! time subtracts the inclusive time of its direct children — the time the
//! stage spent in its own code, which is what a hotspot hunt wants.
//! Exclusive time is floored at zero: with parallel children the
//! children's summed wall time can legitimately exceed the parent's.
//!
//! Because `mmwave-exec` propagates the submitting thread's span path onto
//! its workers (see `crate::span::enter_context`), the tree *structure* is
//! a pure function of the instrumented code paths — identical at any
//! worker count; only the times vary. `tests/trace_export.rs` in the root
//! crate pins that down.

use crate::histogram::HistogramSnapshot;
use std::collections::BTreeMap;

/// One node of the merged span call tree.
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Last path segment (`"range_fft"`).
    pub name: String,
    /// Full `/`-joined path (`"capture/drai/range_fft"`).
    pub path: String,
    /// Times this span closed. Zero for synthetic nodes — path prefixes
    /// whose own span has not closed yet.
    pub calls: u64,
    /// Total wall time recorded under this path, milliseconds.
    pub inclusive_ms: f64,
    /// [`ProfileNode::inclusive_ms`] minus the direct children's inclusive
    /// time, floored at zero.
    pub exclusive_ms: f64,
    /// Median single-call duration, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile single-call duration, milliseconds.
    pub p95_ms: f64,
    /// Direct children, ordered by name (stable across runs and worker
    /// counts).
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "name": self.name,
            "path": self.path,
            "calls": self.calls,
            "inclusive_ms": self.inclusive_ms,
            "exclusive_ms": self.exclusive_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "children": self.children.iter().map(ProfileNode::to_json).collect::<Vec<_>>(),
        })
    }
}

/// The merged call tree over every span path a registry recorded.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Top-level spans, ordered by name.
    pub roots: Vec<ProfileNode>,
}

impl Profile {
    /// Builds the tree from a flat `path -> snapshot` map (the registry's
    /// span table). Intermediate paths that were never recorded themselves
    /// (a parent span still open at snapshot time) appear as synthetic
    /// nodes with zero calls and the sum of their children as inclusive
    /// time.
    pub fn from_spans(spans: &BTreeMap<String, HistogramSnapshot>) -> Profile {
        #[derive(Default)]
        struct Builder {
            snapshot: Option<HistogramSnapshot>,
            children: BTreeMap<String, Builder>,
        }
        let mut root = Builder::default();
        for (path, snap) in spans {
            let mut node = &mut root;
            for segment in path.split('/') {
                node = node.children.entry(segment.to_string()).or_default();
            }
            node.snapshot = Some(*snap);
        }

        fn finish(name: &str, prefix: &str, b: &Builder) -> ProfileNode {
            let path =
                if prefix.is_empty() { name.to_string() } else { format!("{prefix}/{name}") };
            let children: Vec<ProfileNode> =
                b.children.iter().map(|(n, c)| finish(n, &path, c)).collect();
            let child_inclusive: f64 = children.iter().map(|c| c.inclusive_ms).sum();
            let (calls, inclusive_ms, p50_ms, p95_ms) = match &b.snapshot {
                Some(s) => (s.count, 1e3 * s.sum, 1e3 * s.p50, 1e3 * s.p95),
                None => (0, child_inclusive, 0.0, 0.0),
            };
            ProfileNode {
                name: name.to_string(),
                path,
                calls,
                inclusive_ms,
                exclusive_ms: (inclusive_ms - child_inclusive).max(0.0),
                p50_ms,
                p95_ms,
                children,
            }
        }
        Profile {
            roots: root.children.iter().map(|(n, c)| finish(n, "", c)).collect(),
        }
    }

    /// Total wall time across the tree: the sum of the roots' inclusive
    /// time — also the sum of every node's exclusive time when no child
    /// overlaps its parent in wall-clock (the serial case); with parallel
    /// children the exclusive percentages simply sum to less than 100 %.
    pub fn total_ms(&self) -> f64 {
        self.roots.iter().map(|r| r.inclusive_ms).sum()
    }

    /// Depth-first flattened view of every node.
    pub fn flatten(&self) -> Vec<&ProfileNode> {
        fn walk<'a>(node: &'a ProfileNode, out: &mut Vec<&'a ProfileNode>) {
            out.push(node);
            for child in &node.children {
                walk(child, out);
            }
        }
        let mut out = Vec::new();
        for root in &self.roots {
            walk(root, &mut out);
        }
        out
    }

    /// Renders the top-`n` hotspot table: nodes sorted by exclusive time,
    /// with the share of total exclusive time per row. The shares are
    /// computed against the whole tree, so any top-N listing sums to
    /// ≤ 100 %.
    pub fn hotspot_table(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut nodes = self.flatten();
        nodes.sort_by(|a, b| {
            b.exclusive_ms
                .total_cmp(&a.exclusive_ms)
                .then_with(|| a.path.cmp(&b.path))
        });
        let total_exclusive: f64 = nodes.iter().map(|x| x.exclusive_ms).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>10} {:>10} {:>9} {:>6}",
            "hotspot (exclusive time)", "calls", "excl(ms)", "incl(ms)", "p95(ms)", "excl%"
        );
        if nodes.is_empty() {
            let _ = writeln!(out, "(no spans recorded)");
            return out;
        }
        for node in nodes.iter().take(n) {
            let share = if total_exclusive > 0.0 {
                100.0 * node.exclusive_ms / total_exclusive
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>10.1} {:>10.1} {:>9.3} {:>5.1}%",
                node.path, node.calls, node.exclusive_ms, node.inclusive_ms, node.p95_ms, share
            );
        }
        out
    }

    /// The tree as JSON (the `profile` section of the registry snapshot).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Array(self.roots.iter().map(ProfileNode::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LogLinearHistogram;

    fn snap(samples: &[f64]) -> HistogramSnapshot {
        let mut h = LogLinearHistogram::new();
        for &s in samples {
            h.record(s);
        }
        h.snapshot()
    }

    fn sample_profile() -> Profile {
        let mut spans = BTreeMap::new();
        spans.insert("capture".to_string(), snap(&[1.0])); // 1000 ms inclusive
        spans.insert("capture/synthesis".to_string(), snap(&[0.2, 0.2])); // 400 ms
        spans.insert("capture/drai".to_string(), snap(&[0.3])); // 300 ms
        spans.insert("capture/drai/range_fft".to_string(), snap(&[0.1])); // 100 ms
        spans.insert("train_fit".to_string(), snap(&[0.5])); // 500 ms
        Profile::from_spans(&spans)
    }

    #[test]
    fn tree_structure_and_exclusive_times() {
        let p = sample_profile();
        assert_eq!(p.roots.len(), 2);
        let capture = &p.roots[0];
        assert_eq!(capture.path, "capture");
        assert_eq!(capture.children.len(), 2);
        // Children are name-ordered: drai before synthesis.
        assert_eq!(capture.children[0].name, "drai");
        assert_eq!(capture.children[1].name, "synthesis");
        // capture exclusive = 1000 - (300 + 400) = ~300 (histogram error ~1.6%).
        assert!((capture.exclusive_ms - 300.0).abs() < 40.0, "{}", capture.exclusive_ms);
        let drai = &capture.children[0];
        assert!((drai.exclusive_ms - 200.0).abs() < 25.0, "{}", drai.exclusive_ms);
        let leaf = &drai.children[0];
        assert_eq!(leaf.path, "capture/drai/range_fft");
        assert!((leaf.exclusive_ms - leaf.inclusive_ms).abs() < 1e-9);
        assert_eq!(p.roots[1].path, "train_fit");
    }

    #[test]
    fn synthetic_parent_for_orphan_child() {
        let mut spans = BTreeMap::new();
        spans.insert("a/b".to_string(), snap(&[0.25]));
        let p = Profile::from_spans(&spans);
        assert_eq!(p.roots.len(), 1);
        let a = &p.roots[0];
        assert_eq!(a.calls, 0, "synthetic node: span `a` never closed");
        assert!((a.inclusive_ms - a.children[0].inclusive_ms).abs() < 1e-9);
        assert_eq!(a.exclusive_ms, 0.0);
    }

    #[test]
    fn hotspot_shares_sum_to_at_most_100_percent() {
        let p = sample_profile();
        let table = p.hotspot_table(3);
        let mut total = 0.0;
        for line in table.lines().skip(1) {
            let pct: f64 = line
                .rsplit_once(' ')
                .map(|(_, last)| last.trim_end_matches('%').trim().parse().unwrap_or(0.0))
                .unwrap_or(0.0);
            total += pct;
        }
        assert!(total <= 100.0 + 1e-6, "shares summed to {total}");
        assert!(table.contains("excl%"));
        // Top-1 must be the largest exclusive-time node.
        let first_row = table.lines().nth(1).unwrap();
        assert!(first_row.starts_with("train_fit"), "{first_row}");
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let p = Profile::from_spans(&BTreeMap::new());
        assert_eq!(p.total_ms(), 0.0);
        assert!(p.hotspot_table(5).contains("(no spans recorded)"));
    }

    #[test]
    fn json_shape_is_nested() {
        let p = sample_profile();
        let json = p.to_json();
        assert_eq!(json[0]["path"], "capture");
        assert_eq!(json[0]["children"][0]["name"], "drai");
        assert_eq!(json[0]["children"][0]["children"][0]["path"], "capture/drai/range_fft");
    }
}
