//! Recording: the single-owner [`Collector`].

use crate::histogram::Histogram;
use crate::profile::{Label, Profile, Span};
use std::time::Instant;

/// A per-rank (or per-pipeline) recorder.
///
/// A collector owns a stack of open spans plus flat counters and
/// histograms. It is deliberately not `Sync`: each rank records into its
/// own collector and the resulting [`Profile`]s are merged at gather,
/// which keeps the hot path lock-free and the merge deterministic.
///
/// Every method checks `enabled` first; a disabled collector costs one
/// branch per call — no clocks are read and nothing allocates — so
/// instrumentation can stay compiled into release binaries.
#[derive(Debug)]
pub struct Collector {
    enabled: bool,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<OpenFrame>,
    counters: Vec<(&'static str, Label, u64)>,
    histograms: Vec<(&'static str, Label, Histogram)>,
}

#[derive(Debug)]
struct Node {
    name: &'static str,
    seconds: f64,
    count: u64,
    children: Vec<usize>,
}

#[derive(Debug)]
struct OpenFrame {
    node: usize,
    started: Instant,
}

impl Collector {
    /// A collector that records (`enabled = true`) or ignores every call.
    pub fn new(enabled: bool) -> Collector {
        Collector {
            enabled,
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// A collector whose every method is a no-op.
    pub fn disabled() -> Collector {
        Collector::new(false)
    }

    /// Whether this collector records anything. Callers can branch on
    /// this to skip building expensive arguments.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn node_under(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&i) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(Node {
            name,
            seconds: 0.0,
            count: 0,
            children: Vec::new(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push(i),
            None => self.roots.push(i),
        }
        i
    }

    /// Open a span nested under the innermost open span. Pair with
    /// [`Collector::end`]; re-entering the same name accumulates into
    /// the same node.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().map(|f| f.node);
        let node = self.node_under(parent, name);
        self.stack.push(OpenFrame {
            node,
            started: Instant::now(),
        });
    }

    /// Close the innermost open span, folding its elapsed wall time in.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let frame = self.stack.pop().expect("Collector::end without begin");
        let node = &mut self.nodes[frame.node];
        node.seconds += frame.started.elapsed().as_secs_f64();
        node.count += 1;
    }

    /// Record a pre-measured duration as a child of the innermost open
    /// span. Used when the caller already timed the work (so the profile
    /// and its own metrics report the *identical* float).
    pub fn record(&mut self, name: &'static str, seconds: f64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().map(|f| f.node);
        let node = self.node_under(parent, name);
        let node = &mut self.nodes[node];
        node.seconds += seconds;
        node.count += 1;
    }

    /// Add to an unlabeled counter.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        self.count_labeled(name, Label::None, delta);
    }

    /// Add to a labeled counter.
    pub fn count_labeled(&mut self, name: &'static str, label: Label, delta: u64) {
        if !self.enabled {
            return;
        }
        if let Some((.., v)) = self
            .counters
            .iter_mut()
            .find(|(n, l, _)| *n == name && *l == label)
        {
            *v += delta;
        } else {
            self.counters.push((name, label, delta));
        }
    }

    /// Record one observation into a labeled histogram.
    pub fn observe(&mut self, name: &'static str, label: Label, value: f64) {
        if !self.enabled {
            return;
        }
        if let Some((.., h)) = self
            .histograms
            .iter_mut()
            .find(|(n, l, _)| *n == name && *l == label)
        {
            h.observe(value);
        } else {
            let mut h = Histogram::new();
            h.observe(value);
            self.histograms.push((name, label, h));
        }
    }

    /// Snapshot into an immutable [`Profile`]. Any still-open spans are
    /// closed first (crediting elapsed time), so a collector dropped on
    /// an error path still yields a consistent tree.
    pub fn finish(mut self) -> Profile {
        while !self.stack.is_empty() {
            self.end();
        }
        let mut profile = Profile::default();
        for &r in &self.roots {
            let span = self.build_span(r);
            profile.spans.push(span);
        }
        for (name, label, value) in self.counters.drain(..) {
            profile.add_counter(name, label, value);
        }
        for (name, label, hist) in std::mem::take(&mut self.histograms) {
            profile.histogram_mut(name, label).merge(&hist);
        }
        profile
    }

    fn build_span(&self, i: usize) -> Span {
        let node = &self.nodes[i];
        Span {
            name: node.name,
            seconds: node.seconds,
            // A single collector is a single rank: its critical-path
            // time *is* its wall time.
            max_rank_seconds: node.seconds,
            count: node.count,
            children: node.children.iter().map(|&c| self.build_span(c)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = Collector::disabled();
        assert!(!c.is_enabled());
        c.begin("a");
        c.record("b", 1.0);
        c.count("n", 5);
        c.observe("h", Label::None, 2.0);
        c.end();
        assert!(c.finish().is_empty());
    }

    #[test]
    fn spans_nest_and_reentry_accumulates() {
        let mut c = Collector::new(true);
        for _ in 0..3 {
            c.begin("outer");
            c.begin("inner");
            c.end();
            c.record("timed", 0.5);
            c.end();
        }
        let p = c.finish();
        let outer = p.span(&["outer"]).unwrap();
        assert_eq!(outer.count, 3);
        assert_eq!(outer.children.len(), 2);
        assert_eq!(p.span(&["outer", "inner"]).unwrap().count, 3);
        let timed = p.span(&["outer", "timed"]).unwrap();
        assert_eq!(timed.count, 3);
        assert!((timed.seconds - 1.5).abs() < 1e-12);
        assert_eq!(timed.max_rank_seconds, timed.seconds);
        // Parent wall time covers its children.
        assert!(outer.seconds >= p.span(&["outer", "inner"]).unwrap().seconds);
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut c = Collector::new(true);
        c.begin("a");
        c.begin("b");
        let p = c.finish();
        assert_eq!(p.span(&["a"]).unwrap().count, 1);
        assert_eq!(p.span(&["a", "b"]).unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "end without begin")]
    fn unbalanced_end_panics() {
        let mut c = Collector::new(true);
        c.end();
    }

    #[test]
    fn sibling_spans_keep_first_seen_order() {
        let mut c = Collector::new(true);
        for name in ["plan", "gather", "plan"] {
            c.begin(name);
            c.end();
        }
        let p = c.finish();
        let names: Vec<&str> = p.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["plan", "gather"]);
        assert_eq!(p.span(&["plan"]).unwrap().count, 2);
    }
}
