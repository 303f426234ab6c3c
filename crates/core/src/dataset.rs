//! Multi-variable, multi-timestep dataset management.
//!
//! The paper's data model (§II) is *multi-variate spatio-temporal*:
//! simulations emit several variables per time step over one grid, and
//! queries combine them ("temperature within New York where humidity
//! is above 90 %"). This module provides the catalog layer above the
//! single-variable build/query machinery:
//!
//! * [`Dataset`] — a named collection of variables sharing one domain
//!   shape and chunking (so cross-variable position bitmaps line up);
//! * time steps are modelled as variable generations
//!   (`var@t` naming), matching the paper's practice of aggregating
//!   time steps into the spatial grid when needed.

use crate::build::{build_variable, BuildReport, StreamingBuilder};
use crate::config::MlocConfig;
use crate::store::MlocStore;
use crate::wire::{Reader, Writer};
use crate::{fileorg, MlocError, Result};
use mloc_pfs::StorageBackend;

const CATALOG_MAGIC: &[u8] = b"MCAT1\n";

/// The catalog header for `config`: the magic, then the config record
/// (a `u32` length, then the [`MlocConfig`] wire body). Registration
/// lines (`var\n`) follow it.
pub(crate) fn catalog_header(config: &MlocConfig) -> Vec<u8> {
    let mut w = Writer::new();
    config.encode_into(&mut w);
    let body = w.finish();
    let mut out = CATALOG_MAGIC.to_vec();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// A parsed catalog image.
#[derive(Debug)]
pub(crate) struct Catalog {
    /// Bytes of the header; the registration lines follow it.
    pub header_len: usize,
    /// The shared per-variable configuration.
    pub config: MlocConfig,
    /// Committed registrations, in catalog order.
    pub vars: Vec<String>,
    /// False when an unterminated line follows the last committed one.
    pub clean_tail: bool,
}

/// Parse a raw catalog image — the only catalog reader. A registration
/// line is committed only once its newline lands: a torn catalog append
/// leaves an unterminated tail, which must not read back as a variable;
/// it is excluded from `vars` and reported as `clean_tail = false` so
/// repair truncates it.
pub(crate) fn parse_catalog(raw: &[u8]) -> Result<Catalog> {
    let record = raw
        .strip_prefix(CATALOG_MAGIC)
        .ok_or(MlocError::Corrupt("bad catalog magic"))?;
    let (len, rest) = record
        .split_first_chunk::<4>()
        .ok_or(MlocError::Corrupt("catalog truncated"))?;
    let body_len = u32::from_le_bytes(*len) as usize;
    let body = rest
        .get(..body_len)
        .ok_or(MlocError::Corrupt("catalog truncated"))?;
    let config = MlocConfig::decode_from(&mut Reader::new(body))?;
    let header_len = CATALOG_MAGIC.len() + 4 + body_len;
    let lines = std::str::from_utf8(&raw[header_len..])
        .map_err(|_| MlocError::Corrupt("catalog not utf-8"))?;
    let end = lines.rfind('\n').map_or(0, |i| i + 1);
    Ok(Catalog {
        header_len,
        config,
        vars: lines[..end]
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect(),
        clean_tail: end == lines.len(),
    })
}

/// Register a committed variable: its catalog line is the registration
/// record, synced so the full durability chain is bins → meta →
/// catalog. A crash between the meta sync and this one leaves a
/// complete but unlisted variable, which `repair` reattaches.
pub(crate) fn register(backend: &dyn StorageBackend, dataset: &str, var: &str) -> Result<()> {
    let catalog = fileorg::catalog_file(dataset);
    backend.append(&catalog, format!("{var}\n").as_bytes())?;
    backend.sync(&catalog)?;
    Ok(())
}

/// A dataset: one domain geometry, many variables (optionally over
/// time steps), one storage backend.
pub struct Dataset<'a> {
    backend: &'a dyn StorageBackend,
    name: String,
    config: MlocConfig,
}

impl<'a> Dataset<'a> {
    /// Create a new dataset with the given per-variable configuration.
    /// The configuration (shape, chunking, bins, order, codec) applies
    /// to every variable so their layouts stay position-compatible.
    pub fn create(
        backend: &'a dyn StorageBackend,
        name: &str,
        config: MlocConfig,
    ) -> Result<Dataset<'a>> {
        config.validate()?;
        let catalog = fileorg::catalog_file(name);
        if backend.exists(&catalog) {
            return Err(MlocError::Invalid(format!("dataset {name} already exists")));
        }
        // Magic and config record land as two appends: the durability
        // grammar the crash matrix pins has a torn write between them.
        let header = catalog_header(&config);
        let (magic, record) = header.split_at(CATALOG_MAGIC.len());
        backend.create(&catalog)?;
        backend.append(&catalog, magic)?;
        backend.append(&catalog, record)?;
        backend.sync(&catalog)?;
        Ok(Dataset {
            backend,
            name: name.to_string(),
            config,
        })
    }

    /// Open an existing dataset: the configuration is stored in the
    /// catalog, so empty datasets open fine.
    pub fn open(backend: &'a dyn StorageBackend, name: &str) -> Result<Dataset<'a>> {
        Ok(Dataset {
            backend,
            name: name.to_string(),
            config: Self::read_catalog(backend, name)?.config,
        })
    }

    fn read_catalog(backend: &dyn StorageBackend, name: &str) -> Result<Catalog> {
        parse_catalog(&fileorg::read_file(backend, &fileorg::catalog_file(name))?)
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared per-variable configuration.
    pub fn config(&self) -> &MlocConfig {
        &self.config
    }

    /// Set the worker-thread count subsequent builds through this
    /// handle use (0 = one per core). A runtime knob: it is not
    /// persisted and never changes the bytes a build produces.
    pub fn set_build_threads(&mut self, threads: usize) {
        self.config.build_threads = threads;
    }

    /// Variables currently in the catalog (sorted by insertion).
    pub fn variables(&self) -> Result<Vec<String>> {
        Ok(Self::read_catalog(self.backend, &self.name)?.vars)
    }

    /// Whether a variable exists.
    pub fn has_variable(&self, var: &str) -> bool {
        self.backend.exists(&fileorg::meta_file(&self.name, var))
    }

    /// Build and register a variable from row-major values. A dataset
    /// of a format before v7 is refused ([`MlocError::NeedsUpgrade`])
    /// before anything is written: upgrade it first.
    pub fn add_variable(&self, var: &str, values: &[f64]) -> Result<BuildReport> {
        self.check_new_variable(var)?;
        let report = build_variable(self.backend, &self.name, var, values, &self.config)?;
        register(self.backend, &self.name, var)?;
        Ok(report)
    }

    /// Build and register one time step of a variable (stored as
    /// `var@t`).
    pub fn add_timestep(&self, var: &str, step: u32, values: &[f64]) -> Result<BuildReport> {
        self.add_variable(&Self::timestep_name(var, step), values)
    }

    /// Start an *in-situ* build of a variable: chunks are pushed as a
    /// simulation emits them and the variable is registered in the
    /// catalog when the stream finishes. A dataset of a format before v7
    /// is refused, as by [`Self::add_variable`].
    pub fn stream_variable(&self, var: &str, sample: &[f64]) -> Result<DatasetStream<'a>> {
        self.check_new_variable(var)?;
        let builder = StreamingBuilder::new(self.backend, &self.name, var, &self.config, sample)?;
        Ok(DatasetStream {
            builder,
            backend: self.backend,
            dataset: self.name.clone(),
            var: var.to_string(),
        })
    }

    /// Start an in-situ build of one time step (`var@t`).
    pub fn stream_timestep(
        &self,
        var: &str,
        step: u32,
        sample: &[f64],
    ) -> Result<DatasetStream<'a>> {
        self.stream_variable(&Self::timestep_name(var, step), sample)
    }

    /// The storage name of a variable at a time step.
    pub fn timestep_name(var: &str, step: u32) -> String {
        format!("{var}@{step}")
    }

    /// Time steps recorded for a variable, sorted ascending.
    pub fn timesteps(&self, var: &str) -> Result<Vec<u32>> {
        let prefix = format!("{var}@");
        let mut steps: Vec<u32> = self
            .variables()?
            .iter()
            .filter_map(|v| v.strip_prefix(&prefix).and_then(|s| s.parse().ok()))
            .collect();
        steps.sort_unstable();
        Ok(steps)
    }

    /// Open a variable for querying.
    pub fn store(&self, var: &str) -> Result<MlocStore<'a>> {
        MlocStore::open(self.backend, &self.name, var)
    }

    /// Open a variable at a time step.
    pub fn store_at(&self, var: &str, step: u32) -> Result<MlocStore<'a>> {
        self.store(&Self::timestep_name(var, step))
    }

    /// Total stored bytes across the dataset's files, plus the number
    /// of files whose size could not be read. Unreadable files are
    /// counted as errors instead of silently sized at 0, so a faulty
    /// backend cannot under-report storage.
    pub fn stored_bytes_checked(&self) -> (u64, usize) {
        let prefix = format!("{}/", self.name);
        let mut total = 0u64;
        let mut errors = 0usize;
        for f in self.backend.list() {
            if !f.starts_with(&prefix) {
                continue;
            }
            match self.backend.len(&f) {
                Ok(n) => total += n,
                Err(_) => errors += 1,
            }
        }
        (total, errors)
    }

    /// Total stored bytes across the dataset's files. Files whose size
    /// cannot be read are excluded; use [`Self::stored_bytes_checked`]
    /// to detect that case.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes_checked().0
    }

    /// What every build checks before it writes: a valid name, not
    /// taken, in a dataset of the current format — a build into an old
    /// one would leave a store no reader reads and that the upgrade
    /// would have to tell apart from the old variables.
    fn check_new_variable(&self, var: &str) -> Result<()> {
        Self::validate_var_name(var)?;
        if self.has_variable(var) {
            return Err(MlocError::Invalid(format!("variable {var} already exists")));
        }
        crate::upgrade::refuse_old(self.backend, &self.name)
    }

    /// No `__` and no trailing `_`: `DirBackend` keeps `/` as `__`, so
    /// it would list the files of `t_` or `t__x` under variable `t`.
    fn validate_var_name(var: &str) -> Result<()> {
        if var.is_empty()
            || var.contains("__")
            || var.ends_with('_')
            || !var
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '@' || c == '-')
        {
            return Err(MlocError::Invalid(format!(
                "variable name {var:?} must be [A-Za-z0-9_@-]+ with no '__' or trailing '_'"
            )));
        }
        Ok(())
    }
}

/// An in-flight in-situ build over a dataset: a [`StreamingBuilder`]
/// that registers the variable in the catalog on completion.
pub struct DatasetStream<'a> {
    builder: StreamingBuilder<'a>,
    backend: &'a dyn StorageBackend,
    dataset: String,
    var: String,
}

impl DatasetStream<'_> {
    /// Push one chunk (see [`StreamingBuilder::push_chunk`]).
    pub fn push_chunk(&mut self, chunk_id: usize, values: &[f64]) -> Result<()> {
        self.builder.push_chunk(chunk_id, values)
    }

    /// Push a wave of chunks, encoded across the worker pool (see
    /// [`StreamingBuilder::push_chunks`]).
    pub fn push_chunks(&mut self, batch: Vec<(usize, Vec<f64>)>) -> Result<()> {
        self.builder.push_chunks(batch)
    }

    /// Number of chunks pushed so far.
    pub fn chunks_pushed(&self) -> usize {
        self.builder.chunks_pushed()
    }

    /// The chunk geometry of the stream.
    pub fn grid(&self) -> &crate::array::ChunkGrid {
        self.builder.grid()
    }

    /// Finish the layout and register the variable.
    pub fn finish(self) -> Result<BuildReport> {
        let report = self.builder.finish()?;
        register(self.backend, &self.dataset, &self.var)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use mloc_pfs::MemBackend;

    fn config() -> MlocConfig {
        MlocConfig::builder(vec![32, 32])
            .chunk_shape(vec![8, 8])
            .num_bins(8)
            .build()
    }

    fn values(seed: u64) -> Vec<f64> {
        (0..1024)
            .map(|i| ((i as u64 * 31 + seed * 977) % 701) as f64)
            .collect()
    }

    /// The catalogs and metas a store can meet, as stored: a fresh
    /// (v7) build's, then the v6 fixture's. Built once per test binary.
    fn catalogs_and_metas() -> &'static [(Vec<u8>, Vec<u8>)] {
        static STORED: std::sync::OnceLock<Vec<(Vec<u8>, Vec<u8>)>> = std::sync::OnceLock::new();
        STORED.get_or_init(|| {
            let read = |be: &MemBackend, f: &str| be.read(f, 0, be.len(f).unwrap()).unwrap();
            let stored = |be: &MemBackend, ds: &str, var: &str| {
                let catalog = read(be, &fileorg::catalog_file(ds));
                (catalog, read(be, &fileorg::meta_file(ds, var)))
            };
            let fresh = MemBackend::new();
            let ds = Dataset::create(&fresh, "sim", config()).unwrap();
            ds.add_variable("temp", &values(1)).unwrap();
            let mut out = vec![stored(&fresh, "sim", "temp")];
            out.push(stored(&crate::fixtures::mem(6), "fmt", "v"));
            out
        })
    }

    /// Every truncation and every single-bit flip of each stored catalog
    /// and meta decodes to `Ok` or `Err`, never a panic — among them
    /// every flip of a length prefix's high bits, which the readers
    /// bound by the bytes left before allocating. A meta is
    /// checksummed, so each damaged copy is refused; its payload is
    /// also parsed alone, so the damage reaches the parser behind the
    /// checksum too.
    #[test]
    fn every_truncation_and_bit_flip_of_a_catalog_or_meta_never_panics() {
        use crate::integrity::ExtentFooter;
        use crate::store::VariableMeta;
        let flipped = |raw: &[u8], bit: usize| {
            let mut bad = raw.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            bad
        };
        for (catalog, meta) in catalogs_and_metas() {
            let parsed = parse_catalog(catalog).unwrap();
            assert!(parsed.clean_tail && !parsed.vars.is_empty());
            for cut in 0..catalog.len() {
                if let Ok(c) = parse_catalog(&catalog[..cut]) {
                    assert!(c.header_len <= cut);
                }
            }
            for bit in 0..catalog.len() * 8 {
                if let Ok(c) = parse_catalog(&flipped(catalog, bit)) {
                    assert!(c.header_len <= catalog.len());
                }
            }

            let payload = ExtentFooter::split_verified(meta, "meta").unwrap();
            VariableMeta::decode_any(payload).unwrap();
            for cut in 0..meta.len() {
                assert!(VariableMeta::from_file(&meta[..cut], "meta").is_err());
            }
            for cut in 0..payload.len() {
                assert!(VariableMeta::decode(&payload[..cut]).is_err());
            }
            for bit in 0..meta.len() * 8 {
                let bad = flipped(meta, bit);
                let refused = VariableMeta::from_file(&bad, "meta").is_err();
                assert!(refused, "flip of bit {bit}");
                if bit / 8 < payload.len() {
                    let _ = VariableMeta::decode(&bad[..payload.len()]);
                }
            }
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes, alone and written over a stored catalog and
        /// meta payload: every decoder returns `Ok` or `Err`.
        #[test]
        fn arbitrary_catalogs_and_metas_never_panic(
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
            which in 0usize..2,
            at in proptest::prelude::any::<usize>(),
            over in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..16),
        ) {
            use crate::store::VariableMeta;
            let _ = parse_catalog(&junk);
            let _ = VariableMeta::from_file(&junk, "meta");
            let _ = VariableMeta::decode(&junk);
            let (catalog, meta) = &catalogs_and_metas()[which];
            let payload = crate::integrity::ExtentFooter::split_verified(meta, "meta").unwrap();
            for image in [&catalog[..], payload] {
                let mut raw = image.to_vec();
                let at = at % raw.len();
                let end = (at + over.len()).min(raw.len());
                raw[at..end].copy_from_slice(&over[..end - at]);
                let _ = parse_catalog(&raw);
                let _ = VariableMeta::decode(&raw);
            }
        }
    }

    #[test]
    fn create_add_open_roundtrip() {
        let be = MemBackend::new();
        let ds = Dataset::create(&be, "sim", config()).unwrap();
        ds.add_variable("temp", &values(1)).unwrap();
        ds.add_variable("pressure", &values(2)).unwrap();
        assert_eq!(ds.variables().unwrap(), vec!["temp", "pressure"]);
        assert!(ds.has_variable("temp"));
        assert!(!ds.has_variable("humidity"));

        let reopened = Dataset::open(&be, "sim").unwrap();
        assert_eq!(reopened.config(), ds.config());
        assert_eq!(reopened.variables().unwrap().len(), 2);
        assert!(reopened.stored_bytes() > 0);
    }

    #[test]
    fn stored_bytes_counts_listed_but_unreadable_files_as_errors() {
        use mloc_pfs::PfsError;
        // A backend that lists one bin file but cannot size it.
        struct HalfBroken(MemBackend);
        const BROKEN: &str = "sim/temp/bin0000.bin";
        impl StorageBackend for HalfBroken {
            fn create(&self, name: &str) -> std::result::Result<(), PfsError> {
                self.0.create(name)
            }
            fn append(&self, name: &str, data: &[u8]) -> std::result::Result<u64, PfsError> {
                self.0.append(name, data)
            }
            fn read(&self, n: &str, off: u64, len: u64) -> std::result::Result<Vec<u8>, PfsError> {
                self.0.read(n, off, len)
            }
            fn len(&self, name: &str) -> std::result::Result<u64, PfsError> {
                if name == BROKEN {
                    Err(PfsError::NotFound(name.to_string()))
                } else {
                    self.0.len(name)
                }
            }
            fn exists(&self, name: &str) -> bool {
                self.0.exists(name)
            }
            fn list(&self) -> Vec<String> {
                self.0.list()
            }
        }
        let be = HalfBroken(MemBackend::new());
        let ds = Dataset::create(&be, "sim", config()).unwrap();
        ds.add_variable("temp", &values(1)).unwrap();
        // Another dataset's files are not this dataset's bytes.
        be.append("other/junk", &[0u8; 99]).unwrap();
        let healthy: u64 = be
            .list()
            .iter()
            .filter(|f| f.starts_with("sim/") && *f != BROKEN)
            .map(|f| be.0.len(f).unwrap())
            .sum();
        assert!(be.list().iter().any(|f| f == BROKEN));
        assert_eq!(ds.stored_bytes_checked(), (healthy, 1));
        assert_eq!(ds.stored_bytes(), healthy);
    }

    #[test]
    fn duplicate_names_rejected() {
        let be = MemBackend::new();
        let ds = Dataset::create(&be, "sim", config()).unwrap();
        ds.add_variable("temp", &values(1)).unwrap();
        assert!(ds.add_variable("temp", &values(1)).is_err());
        assert!(Dataset::create(&be, "sim", config()).is_err());
        assert!(ds.add_variable("bad name", &values(1)).is_err());
        assert!(ds.add_variable("", &values(1)).is_err());
        for aliased in ["t_", "t__x", "_"] {
            assert!(ds.add_variable(aliased, &values(1)).is_err(), "{aliased}");
        }
        ds.add_variable("_t_x", &values(1)).unwrap();
        let short = ds.add_variable("short", &values(1)[..10]);
        assert!(matches!(short, Err(MlocError::Invalid(_))));
        assert!(!ds.has_variable("short"));
    }

    #[test]
    fn timesteps_sorted_and_queryable() {
        let be = MemBackend::new();
        let ds = Dataset::create(&be, "sim", config()).unwrap();
        for step in [3u32, 1, 2] {
            ds.add_timestep("temp", step, &values(step as u64)).unwrap();
        }
        assert_eq!(ds.timesteps("temp").unwrap(), vec![1, 2, 3]);
        let store = ds.store_at("temp", 2).unwrap();
        let res = store.query_serial(&Query::region(0.0, 100.0)).unwrap();
        let want = values(2).iter().filter(|&&v| v < 100.0).count();
        assert_eq!(res.len(), want);
    }

    #[test]
    fn streamed_variable_registers_on_finish() {
        let be = MemBackend::new();
        let ds = Dataset::create(&be, "sim", config()).unwrap();
        let vals = values(3);
        let mut stream = ds.stream_variable("temp", &vals).unwrap();
        assert!(!ds.has_variable("temp"));
        let grid = stream.grid().clone();
        for chunk in 0..grid.num_chunks() {
            let cv: Vec<f64> = grid
                .chunk_linear_indices(chunk)
                .iter()
                .map(|&l| vals[l as usize])
                .collect();
            stream.push_chunk(chunk, &cv).unwrap();
        }
        stream.finish().unwrap();
        assert!(ds.has_variable("temp"));
        assert_eq!(ds.variables().unwrap(), vec!["temp"]);
        // Queries see the streamed data.
        let store = ds.store("temp").unwrap();
        let res = store
            .query_serial(&Query::values_where(f64::MIN, f64::MAX))
            .unwrap();
        assert_eq!(res.len(), vals.len());
    }

    #[test]
    fn open_missing_dataset_fails() {
        let be = MemBackend::new();
        assert!(Dataset::open(&be, "nope").is_err());
    }
}
