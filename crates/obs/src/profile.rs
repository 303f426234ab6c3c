//! Immutable profile snapshots: span trees, counters, histograms.

use crate::histogram::Histogram;

/// Distinguishes instances of the same metric (per-bin, per-codec, …).
///
/// Labels are `Copy` and totally ordered so counters and histograms can
/// be kept sorted, which makes merged profiles deterministic regardless
/// of which rank observed what first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// Unlabeled: the metric has a single global instance.
    None,
    /// A small integer instance, e.g. a bin id or a rank.
    Index(u32),
    /// A named instance, e.g. a codec name.
    Name(&'static str),
}

impl Label {
    /// Render as a `[…]` suffix; empty for [`Label::None`].
    pub fn suffix(&self) -> String {
        match self {
            Label::None => String::new(),
            Label::Index(i) => format!("[{i}]"),
            Label::Name(s) => format!("[{s}]"),
        }
    }
}

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Static span name ("decompress", "io", …).
    pub name: &'static str,
    /// Wall seconds summed over every rank that entered this span.
    pub seconds: f64,
    /// Maximum seconds any single rank spent here — the critical-path
    /// contribution. Equal to `seconds` before any cross-rank merge.
    pub max_rank_seconds: f64,
    /// How many times the span was entered (or recorded), summed.
    pub count: u64,
    /// Child spans in first-seen order.
    pub children: Vec<Span>,
}

impl Span {
    fn new(name: &'static str) -> Span {
        Span {
            name,
            seconds: 0.0,
            max_rank_seconds: 0.0,
            count: 0,
            children: Vec::new(),
        }
    }

    /// Find a direct child by name.
    pub fn child(&self, name: &str) -> Option<&Span> {
        self.children.iter().find(|c| c.name == name)
    }

    fn child_mut(&mut self, name: &'static str) -> &mut Span {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(Span::new(name));
        self.children.last_mut().expect("just pushed")
    }

    fn merge_from(&mut self, other: Span) {
        self.seconds += other.seconds;
        self.max_rank_seconds = self.max_rank_seconds.max(other.max_rank_seconds);
        self.count += other.count;
        for child in other.children {
            self.child_mut(child.name).merge_from(child);
        }
    }
}

/// A named (and optionally labeled) monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Static counter name ("io.bytes", "cache.hits", …).
    pub name: &'static str,
    /// Instance label.
    pub label: Label,
    /// Accumulated value.
    pub value: u64,
}

/// A named (and optionally labeled) histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramEntry {
    /// Static histogram name ("compress.ratio", …).
    pub name: &'static str,
    /// Instance label.
    pub label: Label,
    /// The bucket data.
    pub histogram: Histogram,
}

/// An immutable snapshot of everything a [`crate::Collector`] recorded.
///
/// Counters and histograms are kept sorted by `(name, label)`; top-level
/// and child spans keep first-seen order. Both invariants survive
/// [`Profile::merge`], which is how per-rank profiles from the replay
/// and threaded executors end up structurally identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Top-level spans in first-seen order.
    pub spans: Vec<Span>,
    /// Counters sorted by `(name, label)`.
    pub counters: Vec<Counter>,
    /// Histograms sorted by `(name, label)`.
    pub histograms: Vec<HistogramEntry>,
}

impl Profile {
    /// True when nothing was recorded (e.g. the collector was disabled).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Merge any number of profiles deterministically: spans matched by
    /// name (first-seen order preserved), `seconds`/`count` summed,
    /// `max_rank_seconds` maximized; counters summed; histograms merged.
    pub fn merge(parts: impl IntoIterator<Item = Profile>) -> Profile {
        let mut out = Profile::default();
        for part in parts {
            out.merge_from(part);
        }
        out
    }

    /// Fold another profile into this one (the binary form of
    /// [`Profile::merge`]).
    pub fn merge_from(&mut self, other: Profile) {
        for span in other.spans {
            self.top_span_mut(span.name).merge_from(span);
        }
        for c in other.counters {
            self.add_counter(c.name, c.label, c.value);
        }
        for h in other.histograms {
            self.histogram_mut(h.name, h.label).merge(&h.histogram);
        }
    }

    fn top_span_mut(&mut self, name: &'static str) -> &mut Span {
        if let Some(i) = self.spans.iter().position(|s| s.name == name) {
            return &mut self.spans[i];
        }
        self.spans.push(Span::new(name));
        self.spans.last_mut().expect("just pushed")
    }

    /// Look up a span by path, e.g. `&["rank", "decompress"]`.
    pub fn span(&self, path: &[&str]) -> Option<&Span> {
        let (first, rest) = path.split_first()?;
        let mut node = self.spans.iter().find(|s| s.name == *first)?;
        for name in rest {
            node = node.child(name)?;
        }
        Some(node)
    }

    /// Find-or-create the span at `path` and add one recording of
    /// `seconds` to it (single-rank semantics: `max_rank_seconds` grows
    /// with `seconds`).
    pub fn record_path(&mut self, path: &[&'static str], seconds: f64) {
        let node = self.span_at_mut(path);
        node.seconds += seconds;
        node.max_rank_seconds += seconds;
        node.count += 1;
    }

    /// Find-or-create the span at `path` and fold in one value per rank:
    /// `seconds` accumulates the sum, `max_rank_seconds` the max, and
    /// `count` the number of ranks.
    pub fn record_over_ranks(&mut self, path: &[&'static str], per_rank: &[f64]) {
        let node = self.span_at_mut(path);
        for &s in per_rank {
            node.seconds += s;
            node.max_rank_seconds = node.max_rank_seconds.max(s);
        }
        node.count += per_rank.len() as u64;
    }

    fn span_at_mut(&mut self, path: &[&'static str]) -> &mut Span {
        let (first, rest) = path.split_first().expect("span path cannot be empty");
        let mut node = self.top_span_mut(first);
        for name in rest {
            node = node.child_mut(name);
        }
        node
    }

    /// Add to a counter, creating it at zero if absent.
    pub fn add_counter(&mut self, name: &'static str, label: Label, delta: u64) {
        match self
            .counters
            .binary_search_by_key(&(name, label), |c| (c.name, c.label))
        {
            Ok(i) => self.counters[i].value += delta,
            Err(i) => self.counters.insert(
                i,
                Counter {
                    name,
                    label,
                    value: delta,
                },
            ),
        }
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str, label: Label) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map_or(0, |c| c.value)
    }

    /// Sum of every labeled instance of a counter.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Find-or-create a histogram entry.
    pub fn histogram_mut(&mut self, name: &'static str, label: Label) -> &mut Histogram {
        let i = match self
            .histograms
            .binary_search_by_key(&(name, label), |h| (h.name, h.label))
        {
            Ok(i) => i,
            Err(i) => {
                self.histograms.insert(
                    i,
                    HistogramEntry {
                        name,
                        label,
                        histogram: Histogram::new(),
                    },
                );
                i
            }
        };
        &mut self.histograms[i].histogram
    }

    /// Look up a histogram entry.
    pub fn histogram(&self, name: &str, label: Label) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
            .map(|h| &h.histogram)
    }

    /// A timing-free signature of the profile: span paths with entry
    /// counts, counters with values, histograms with bucket counts.
    /// Two runs of the same query under different executors must agree
    /// on this string even though their wall-clock seconds differ.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        fn walk(out: &mut String, prefix: &str, span: &Span) {
            let path = if prefix.is_empty() {
                span.name.to_string()
            } else {
                format!("{prefix}/{}", span.name)
            };
            out.push_str(&format!("span {path} x{}\n", span.count));
            for c in &span.children {
                walk(out, &path, c);
            }
        }
        for s in &self.spans {
            walk(&mut out, "", s);
        }
        for c in &self.counters {
            out.push_str(&format!(
                "counter {}{} = {}\n",
                c.name,
                c.label.suffix(),
                c.value
            ));
        }
        for h in &self.histograms {
            let buckets: Vec<String> = h
                .histogram
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| format!("{i}:{n}"))
                .collect();
            out.push_str(&format!(
                "hist {}{} n={} [{}]\n",
                h.name,
                h.label.suffix(),
                h.histogram.count(),
                buckets.join(",")
            ));
        }
        out
    }

    /// Render as an indented human-readable table.
    pub fn render(&self) -> String {
        let mut rows: Vec<(String, f64, f64, u64)> = Vec::new();
        fn walk(rows: &mut Vec<(String, f64, f64, u64)>, depth: usize, span: &Span) {
            rows.push((
                format!("{}{}", "  ".repeat(depth), span.name),
                span.seconds,
                span.max_rank_seconds,
                span.count,
            ));
            for c in &span.children {
                walk(rows, depth + 1, c);
            }
        }
        for s in &self.spans {
            walk(&mut rows, 0, s);
        }
        let name_w = rows
            .iter()
            .map(|(n, ..)| n.len())
            .chain(std::iter::once("span".len()))
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = String::new();
        if !rows.is_empty() {
            out.push_str(&format!(
                "{:<name_w$}  {:>12}  {:>12}  {:>8}\n",
                "span", "seconds", "max-rank s", "count"
            ));
            for (name, secs, max_rank, count) in &rows {
                out.push_str(&format!(
                    "{name:<name_w$}  {secs:>12.6}  {max_rank:>12.6}  {count:>8}\n"
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for c in &self.counters {
                out.push_str(&format!("  {}{} = {}\n", c.name, c.label.suffix(), c.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {}{}  n={} mean={:.4} min={:.4} max={:.4}\n",
                    h.name,
                    h.label.suffix(),
                    h.histogram.count(),
                    h.histogram.mean(),
                    h.histogram.min(),
                    h.histogram.max()
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(empty profile)\n");
        }
        out
    }

    /// Serialize to JSON (hand-rolled; the crate has no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span_json(&mut out, s);
        }
        out.push_str("],\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"label\":{},\"value\":{}}}",
                json_string(c.name),
                label_json(c.label),
                c.value
            ));
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h.histogram.buckets().iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{{\"name\":{},\"label\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                json_string(h.name),
                label_json(h.label),
                h.histogram.count(),
                json_f64(h.histogram.sum()),
                json_f64(h.histogram.min()),
                json_f64(h.histogram.max()),
                buckets.join(",")
            ));
        }
        out.push_str("]}");
        out
    }
}

fn span_json(out: &mut String, span: &Span) {
    out.push_str(&format!(
        "{{\"name\":{},\"seconds\":{},\"max_rank_seconds\":{},\"count\":{},\"children\":[",
        json_string(span.name),
        json_f64(span.seconds),
        json_f64(span.max_rank_seconds),
        span.count
    ));
    for (i, c) in span.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_json(out, c);
    }
    out.push_str("]}");
}

fn label_json(label: Label) -> String {
    match label {
        Label::None => "null".to_string(),
        Label::Index(i) => i.to_string(),
        Label::Name(s) => json_string(s),
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Debug formatting is shortest-roundtrip and uses `e` notation
        // for extreme magnitudes — both are valid JSON numbers.
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// `s` as a JSON string literal, quotes included. Every control
/// character (C0, U+007F, C1) leaves as a `\uXXXX` escape, so the
/// output is JSON where Rust's `{:?}` (`\u{7f}`) is not.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_profile(io: f64, cpu: f64, bytes: u64) -> Profile {
        let mut p = Profile::default();
        p.record_path(&["rank", "data-read"], io);
        p.record_path(&["rank", "decompress"], cpu);
        p.add_counter("io.bytes", Label::None, bytes);
        p.histogram_mut("unit.bytes", Label::Name("deflate"))
            .observe(bytes as f64);
        p
    }

    #[test]
    fn merge_sums_seconds_and_maximizes_rank() {
        let merged = Profile::merge(vec![
            rank_profile(0.5, 0.1, 100),
            rank_profile(0.25, 0.4, 50),
        ]);
        let rank = merged.span(&["rank"]).unwrap();
        assert_eq!(rank.children.len(), 2);
        let dr = merged.span(&["rank", "data-read"]).unwrap();
        assert_eq!(dr.seconds, 0.75);
        assert_eq!(dr.max_rank_seconds, 0.5);
        assert_eq!(dr.count, 2);
        let dc = merged.span(&["rank", "decompress"]).unwrap();
        assert_eq!(dc.max_rank_seconds, 0.4);
        assert_eq!(merged.counter("io.bytes", Label::None), 150);
        assert_eq!(
            merged
                .histogram("unit.bytes", Label::Name("deflate"))
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    fn merge_is_structurally_deterministic() {
        // Same observations, issued in different orders per rank, still
        // produce the same structure when merged in rank order.
        let a = Profile::merge(vec![rank_profile(0.1, 0.2, 10), rank_profile(0.3, 0.4, 20)]);
        let b = Profile::merge(vec![rank_profile(0.9, 0.8, 10), rank_profile(0.7, 0.6, 20)]);
        assert_eq!(a.structure(), b.structure());
    }

    #[test]
    fn counters_stay_sorted() {
        let mut p = Profile::default();
        p.add_counter("z", Label::None, 1);
        p.add_counter("a", Label::Index(3), 2);
        p.add_counter("a", Label::Index(1), 4);
        p.add_counter("a", Label::Index(3), 10);
        let keys: Vec<(&str, Label)> = p.counters.iter().map(|c| (c.name, c.label)).collect();
        assert_eq!(
            keys,
            vec![
                ("a", Label::Index(1)),
                ("a", Label::Index(3)),
                ("z", Label::None)
            ]
        );
        assert_eq!(p.counter("a", Label::Index(3)), 12);
        assert_eq!(p.counter_total("a"), 16);
        assert_eq!(p.counter("missing", Label::None), 0);
    }

    #[test]
    fn record_over_ranks_tracks_max() {
        let mut p = Profile::default();
        p.record_over_ranks(&["io"], &[0.5, 1.5, 1.0]);
        p.record_over_ranks(&["io", "seek"], &[0.1, 0.2, 0.3]);
        let io = p.span(&["io"]).unwrap();
        assert!((io.seconds - 3.0).abs() < 1e-12);
        assert_eq!(io.max_rank_seconds, 1.5);
        assert_eq!(io.count, 3);
        assert_eq!(p.span(&["io", "seek"]).unwrap().max_rank_seconds, 0.3);
    }

    #[test]
    fn json_is_balanced_and_contains_fields() {
        let p = Profile::merge(vec![rank_profile(0.5, 0.1, 100)]);
        let json = p.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for needle in [
            "\"spans\"",
            "\"counters\"",
            "\"histograms\"",
            "\"data-read\"",
            "\"io.bytes\"",
            "\"deflate\"",
            "\"max_rank_seconds\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn render_lists_spans_counters_histograms() {
        let p = Profile::merge(vec![rank_profile(0.5, 0.1, 100)]);
        let table = p.render();
        assert!(table.contains("rank"));
        assert!(table.contains("  data-read"));
        assert!(table.contains("io.bytes = 100"));
        assert!(table.contains("unit.bytes[deflate]"));
        assert!(Profile::default().render().contains("empty profile"));
    }

    #[test]
    fn span_lookup_misses_gracefully() {
        let p = rank_profile(0.1, 0.1, 1);
        assert!(p.span(&["rank", "nope"]).is_none());
        assert!(p.span(&["nope"]).is_none());
        assert!(p.span(&[]).is_none());
    }
}
