//! The metrics the benchmark emits: names, units, direction. The same
//! lists are declared in `BENCHMARK.json`; a unit test keeps the two
//! equal.

use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub type Decl = (&'static str, &'static str, &'static str);

/// End-to-end metrics, measured with tracing off. Every workload
/// reports all nine.
pub const END_TO_END: [Decl; 9] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("lat_p50_ms", "ms", "lower"),
    ("lat_p95_ms", "ms", "lower"),
    ("sim_io_s", "sim_s/op", "lower"),
    ("read_bytes_per_op", "B/op", "lower"),
    ("import_mib_s", "MiB/s", "higher"),
    ("stored_ratio", "ratio", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics of the traced run. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [Decl; 85] = [
    ("pfs.read_calls_per_op", "1/op", "lower"),
    ("pfs.read_bytes_per_op", "B/op", "lower"),
    ("pfs.read_busy_ms_per_op", "ms", "lower"),
    ("pfs.batch_depth_mean", "count", "higher"),
    ("pfs.files_per_op", "1/op", "lower"),
    ("pfs.opens", "count", "lower"),
    ("pfs.sim_seeks_per_op", "1/op", "lower"),
    ("pfs.errors", "count", "lower"),
    ("pfs.append_mib", "MiB", "lower"),
    ("pfs.append_busy_s", "s", "lower"),
    ("pfs.sync_calls", "count", "lower"),
    ("pfs.sync_busy_s", "s", "lower"),
    ("plan.busy_ms_per_op", "ms", "lower"),
    ("plan.units_per_op", "1/op", "lower"),
    ("plan.bins_per_op", "1/op", "lower"),
    ("plan.aligned_bins_per_op", "1/op", "higher"),
    ("plan.chunks_per_op", "1/op", "lower"),
    ("index.bytes_per_op", "B/op", "lower"),
    ("index.rank_probe_ns", "ns", "lower"),
    ("engine.decompress_ms_per_op", "ms", "lower"),
    ("engine.reconstruct_ms_per_op", "ms", "lower"),
    ("engine.data_bytes_per_op", "B/op", "lower"),
    ("engine.bytes_per_hit", "B", "lower"),
    ("engine.other_ms_per_op", "ms", "lower"),
    ("engine.other_share", "ratio", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.resident_mib", "MiB", "lower"),
    ("cache.bytes_saved_per_op", "B/op", "higher"),
    ("cache.get_ns", "ns", "lower"),
    ("cache.insert_ns", "ns", "lower"),
    ("fusion.physical_reads", "count", "lower"),
    ("fusion.fused_reads", "count", "higher"),
    ("fusion.fused_ratio", "ratio", "higher"),
    ("fusion.bytes_saved_per_op", "B/op", "higher"),
    ("progressive.steps_per_op", "1/op", "lower"),
    ("progressive.bytes_to_eps", "B", "lower"),
    ("progressive.step0_ms", "ms", "lower"),
    ("serve.window_ms_p50", "ms", "lower"),
    ("serve.wall_ms_p99", "ms", "lower"),
    ("serve.empty_session_us", "us", "lower"),
    ("build.encode_s.col", "s", "lower"),
    ("build.encode_s.iso", "s", "lower"),
    ("build.encode_s.isa", "s", "lower"),
    ("build.layout_s.col", "s", "lower"),
    ("build.layout_s.iso", "s", "lower"),
    ("build.layout_s.isa", "s", "lower"),
    ("build.write_s.col", "s", "lower"),
    ("build.write_s.iso", "s", "lower"),
    ("build.write_s.isa", "s", "lower"),
    ("build.other_s.col", "s", "lower"),
    ("build.other_s.iso", "s", "lower"),
    ("build.other_s.isa", "s", "lower"),
    ("repair.fsck_s", "s", "lower"),
    ("repair.verify_mib_s", "MiB/s", "higher"),
    ("compress.deflate_enc_mib_s", "MiB/s", "higher"),
    ("compress.deflate_dec_mib_s", "MiB/s", "higher"),
    ("compress.deflate_ratio", "ratio", "lower"),
    ("compress.isobar_enc_mib_s", "MiB/s", "higher"),
    ("compress.isobar_dec_mib_s", "MiB/s", "higher"),
    ("compress.isobar_ratio", "ratio", "lower"),
    ("compress.isabela_enc_mib_s", "MiB/s", "higher"),
    ("compress.isabela_dec_mib_s", "MiB/s", "higher"),
    ("compress.isabela_ratio", "ratio", "lower"),
    ("bitmap.build_mpts_s", "Mpts/s", "higher"),
    ("bitmap.scan_mpts_s", "Mpts/s", "higher"),
    ("bitmap.rank_ns", "ns", "lower"),
    ("bitmap.bytes_per_point", "B/pt", "lower"),
    ("plod.split_mib_s", "MiB/s", "higher"),
    ("plod.assemble2_mib_s", "MiB/s", "higher"),
    ("plod.assemble_full_mib_s", "MiB/s", "higher"),
    ("hilbert.order_build_us", "us", "lower"),
    ("hilbert.runs_per_region.hilbert.2d", "count", "lower"),
    ("hilbert.runs_per_region.zorder.2d", "count", "lower"),
    ("hilbert.runs_per_region.rowmajor.2d", "count", "lower"),
    ("hilbert.runs_per_region.hilbert.3d", "count", "lower"),
    ("hilbert.runs_per_region.zorder.3d", "count", "lower"),
    ("hilbert.runs_per_region.rowmajor.3d", "count", "lower"),
    ("binning.build_ms", "ms", "lower"),
    ("binning.bin_of_ns", "ns", "lower"),
    ("runtime.pmap_overhead_us", "us", "lower"),
    ("runtime.spmd_gather_us", "us", "lower"),
    ("obs.span_disabled_ns", "ns", "lower"),
    ("obs.span_enabled_ns", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["import", "explore_cold", "explore_warm", "storm"];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set a declared metric. Panics on a name neither list declares,
    /// so a typo cannot silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.insert(decl.0, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// One JSON object holding every metric of `decls`, in declaration
    /// order; undeclared-for-this-workload metrics read 0.
    pub fn to_json(&self, decls: &[Decl]) -> String {
        let fields: Vec<String> = decls
            .iter()
            .map(|&(name, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.get(name).unwrap_or(0.0))
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number with all its digits; non-finite values read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The objects of the array that follows `"<key>":` in `json`, each
    /// reduced to the string values of `fields`. (The arrays of
    /// `BENCHMARK.json` hold flat objects, so splitting on `}` is enough.)
    fn declared(json: &str, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let field = |obj: &str, name: &str| -> String {
            let at = obj.find(&format!("\"{name}\"")).expect("field present");
            let rest = &obj[at + name.len() + 2..];
            let q0 = rest.find('"').expect("value opens") + 1;
            let q1 = q0 + rest[q0..].find('"').expect("value closes");
            rest[q0..q1].to_string()
        };
        json[open + 1..close]
            .split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| fields.iter().map(|f| field(obj, f)).collect())
            .collect()
    }

    fn owned(decls: &[Decl]) -> Vec<Vec<String>> {
        decls
            .iter()
            .map(|d| vec![d.0.to_string(), d.1.to_string(), d.2.to_string()])
            .collect()
    }

    #[test]
    fn emitted_metrics_equal_the_set_benchmark_json_declares() {
        let json = include_str!("../../BENCHMARK.json");
        let decl = ["name", "unit", "better"];
        assert_eq!(declared(json, "end_to_end", &decl), owned(&END_TO_END));
        assert_eq!(declared(json, "per_layer", &decl), owned(&PER_LAYER));
        let workloads: Vec<String> = declared(json, "workloads", &["name"])
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "name {name}");
            assert!(unit_ok(unit), "unit {unit} of {name}");
            assert!(*better == "lower" || *better == "higher");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w));
        }
    }

    #[test]
    fn json_lists_every_declared_metric() {
        let mut v = Values::default();
        v.set("setup_s", 1.25);
        let json = v.to_json(&END_TO_END);
        assert!(json.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mib\": {\"value\": 0, \"unit\": \"MiB\"}"));
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_refused() {
        Values::default().set("pfs.typo", 1.0);
    }
}
