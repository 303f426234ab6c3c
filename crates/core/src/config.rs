//! Dataset configuration: bins, chunks, level order, codec, PLoD.

use crate::fileorg;
use crate::wire::{Reader, Writer};
use crate::{MlocError, Result};
use mloc_compress::CodecKind;
use mloc_hilbert::CurveKind;

/// Nesting order of the layout levels inside each bin file.
///
/// The value level (V) is always outermost — bins *are* the files
/// (§III-C subfiling) — so the orderings the paper evaluates differ in
/// whether byte groups (M) or Hilbert-ordered chunks (S) come next
/// (Table VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelOrder {
    /// V → M → S: byte groups outermost within a bin; each byte group
    /// stores its chunks in Hilbert order. Optimizes PLoD-prefix reads
    /// (the paper's default, Figure 2).
    Vms,
    /// V → S → M: Hilbert-ordered chunks outermost; each chunk stores
    /// its byte groups together. Optimizes full-precision reads.
    Vsm,
}

impl LevelOrder {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LevelOrder::Vms => "V-M-S",
            LevelOrder::Vsm => "V-S-M",
        }
    }

    pub(crate) fn to_tag(self) -> u8 {
        match self {
            LevelOrder::Vms => 0,
            LevelOrder::Vsm => 1,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(LevelOrder::Vms),
            1 => Ok(LevelOrder::Vsm),
            _ => Err(MlocError::Corrupt("unknown level order")),
        }
    }
}

/// Precision-based level of detail: how many byte groups of each
/// double to fetch (paper §III-B.3, Figure 3).
///
/// Level `L` fetches `L + 1` bytes: group 0 holds the first two bytes
/// (sign, exponent, leading mantissa), groups 1..=6 one byte each.
/// Level 7 is full precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlodLevel(u8);

impl PlodLevel {
    /// Full precision (all 8 bytes).
    pub const FULL: PlodLevel = PlodLevel(7);

    /// The coarsest level: the two-byte base group alone.
    pub const COARSEST: PlodLevel = PlodLevel(1);

    /// Level in `1..=7`.
    pub fn new(level: u8) -> Result<Self> {
        if (1..=7).contains(&level) {
            Ok(PlodLevel(level))
        } else {
            Err(MlocError::Invalid(format!(
                "PLoD level {level} not in 1..=7"
            )))
        }
    }

    /// The level number.
    pub fn level(self) -> u8 {
        self.0
    }

    /// Number of byte groups fetched (level 1 → 1 group, …).
    pub fn num_parts(self) -> usize {
        self.0 as usize
    }

    /// Number of bytes of each double fetched.
    pub fn num_bytes(self) -> usize {
        self.0 as usize + 1
    }

    /// Whether this is full precision.
    pub fn is_full(self) -> bool {
        self.0 == 7
    }
}

/// Total number of PLoD byte groups.
pub const NUM_PARTS: usize = 7;

/// Full configuration of an MLOC variable.
#[derive(Debug, Clone)]
pub struct MlocConfig {
    /// Domain shape (row-major extents).
    pub shape: Vec<usize>,
    /// Chunk shape (clamped at domain edges).
    pub chunk_shape: Vec<usize>,
    /// Number of equal-frequency value bins.
    pub num_bins: usize,
    /// Level nesting order inside bin files.
    pub level_order: LevelOrder,
    /// Compression codec.
    pub codec: CodecKind,
    /// Whether values are split into PLoD byte groups. `true` for
    /// MLOC-COL (byte-column storage); `false` stores whole doubles
    /// per unit (MLOC-ISO / MLOC-ISA).
    pub plod: bool,
    /// Space-filling curve ordering chunks on disk.
    pub curve: CurveKind,
    /// Subset-based multi-resolution placement: when non-zero, chunks
    /// are grouped into this many resolution levels (coarse lattice
    /// first, curve order within a level) so a file prefix holds a
    /// uniform sample of the domain (paper §III-B.3, Figure 1).
    /// Zero = plain curve order.
    pub subset_levels: u32,
    /// PFS stripe size the layout should align to.
    pub stripe_size: u64,
    /// Worker threads for the build path (chunk encode and per-bin
    /// layout/write). `0` means one per available core. This is a
    /// runtime execution knob: it is never persisted, and the on-disk
    /// layout is byte-identical for every value.
    pub build_threads: usize,
}

// `build_threads` is deliberately excluded: two configurations that
// differ only in worker-thread count describe the same layout, and the
// knob is not stored in catalogs or metadata.
impl PartialEq for MlocConfig {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.chunk_shape == other.chunk_shape
            && self.num_bins == other.num_bins
            && self.level_order == other.level_order
            && self.codec == other.codec
            && self.plod == other.plod
            && self.curve == other.curve
            && self.subset_levels == other.subset_levels
            && self.stripe_size == other.stripe_size
    }
}

impl MlocConfig {
    /// Start building a configuration for a domain shape.
    pub fn builder(shape: Vec<usize>) -> ConfigBuilder {
        ConfigBuilder::new(shape)
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.shape.is_empty() || self.shape.contains(&0) {
            return Err(MlocError::Invalid("empty shape".into()));
        }
        if self.chunk_shape.len() != self.shape.len() {
            return Err(MlocError::Invalid("chunk dimensionality mismatch".into()));
        }
        if self.chunk_shape.contains(&0) {
            return Err(MlocError::Invalid("zero chunk extent".into()));
        }
        if self.num_bins == 0 {
            return Err(MlocError::Invalid("need at least one bin".into()));
        }
        if self.plod && self.codec.is_lossy() {
            return Err(MlocError::Invalid(
                "PLoD byte columns require a byte-exact codec".into(),
            ));
        }
        if let CodecKind::Isabela { error_bound } = self.codec {
            if !(error_bound.is_finite() && error_bound > 0.0) {
                return Err(MlocError::Invalid(format!(
                    "ISABELA error bound must be finite and positive, got {error_bound}"
                )));
            }
        }
        if self.subset_levels > 16 {
            return Err(MlocError::Invalid(
                "more than 16 resolution levels is never useful".into(),
            ));
        }
        Ok(())
    }

    /// The on-disk chunk ordering this configuration implies.
    pub fn chunk_order(&self, grid: &crate::array::ChunkGrid) -> mloc_hilbert::GridOrder {
        if self.subset_levels > 0 {
            mloc_hilbert::GridOrder::hierarchical(
                grid.grid_extents(),
                self.subset_levels,
                self.curve,
            )
        } else {
            mloc_hilbert::GridOrder::new(grid.grid_extents(), self.curve)
        }
    }

    /// Append the persisted fields in the one wire format the dataset
    /// catalog and every variable's meta file share (`build_threads`
    /// is a runtime knob and is never stored).
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.usize_vec(&self.shape);
        w.usize_vec(&self.chunk_shape);
        w.u32(self.num_bins as u32);
        w.u8(self.level_order.to_tag());
        let (codec_tag, codec_param) = self.codec.to_tag();
        w.u8(codec_tag);
        w.f64(codec_param);
        w.u8(u8::from(self.plod));
        w.u8(match self.curve {
            CurveKind::Hilbert => 0,
            CurveKind::ZOrder => 1,
            CurveKind::RowMajor => 2,
        });
        w.u32(self.subset_levels);
        w.u64(self.stripe_size);
    }

    /// Parse and validate what [`Self::encode_into`] wrote.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<MlocConfig> {
        let shape = r.usize_vec()?;
        let chunk_shape = r.usize_vec()?;
        let num_bins = r.u32()? as usize;
        let level_order = LevelOrder::from_tag(r.u8()?)?;
        let codec_tag = r.u8()?;
        let codec = CodecKind::from_tag(codec_tag, r.f64()?)?;
        let plod = r.u8()? != 0;
        let curve = match r.u8()? {
            0 => CurveKind::Hilbert,
            1 => CurveKind::ZOrder,
            2 => CurveKind::RowMajor,
            _ => return Err(MlocError::Corrupt("unknown curve kind")),
        };
        let config = MlocConfig {
            shape,
            chunk_shape,
            num_bins,
            level_order,
            codec,
            plod,
            curve,
            subset_levels: r.u32()?,
            stripe_size: r.u64()?,
            build_threads: 0,
        };
        config.validate()?;
        Ok(config)
    }

    /// Number of byte groups per unit under this configuration.
    pub fn num_parts(&self) -> usize {
        if self.plod {
            NUM_PARTS
        } else {
            1
        }
    }

    /// The worker-thread count the build path will actually use:
    /// `build_threads`, or the available parallelism when it is `0`.
    pub fn effective_build_threads(&self) -> usize {
        if self.build_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.build_threads
        }
    }
}

/// Builder for [`MlocConfig`].
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    shape: Vec<usize>,
    chunk_shape: Option<Vec<usize>>,
    num_bins: usize,
    level_order: LevelOrder,
    codec: CodecKind,
    plod: Option<bool>,
    curve: CurveKind,
    subset_levels: u32,
    stripe_size: u64,
    build_threads: usize,
}

impl ConfigBuilder {
    fn new(shape: Vec<usize>) -> Self {
        ConfigBuilder {
            shape,
            chunk_shape: None,
            num_bins: 100,
            level_order: LevelOrder::Vms,
            codec: CodecKind::Deflate,
            plod: None,
            curve: CurveKind::Hilbert,
            subset_levels: 0,
            stripe_size: 1 << 20,
            build_threads: 0,
        }
    }

    /// Set the chunk shape explicitly (otherwise derived from the
    /// stripe size, §III-C).
    pub fn chunk_shape(mut self, chunk_shape: Vec<usize>) -> Self {
        self.chunk_shape = Some(chunk_shape);
        self
    }

    /// Number of equal-frequency bins (paper default: 100).
    pub fn num_bins(mut self, num_bins: usize) -> Self {
        self.num_bins = num_bins;
        self
    }

    /// Level nesting order.
    pub fn level_order(mut self, order: LevelOrder) -> Self {
        self.level_order = order;
        self
    }

    /// Compression codec. Lossy / float codecs disable PLoD byte
    /// columns unless overridden.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Force PLoD byte-column storage on or off.
    pub fn plod(mut self, plod: bool) -> Self {
        self.plod = Some(plod);
        self
    }

    /// Space-filling curve for the spatial level.
    pub fn curve(mut self, curve: CurveKind) -> Self {
        self.curve = curve;
        self
    }

    /// Enable subset-based multi-resolution placement with this many
    /// resolution levels (0 disables it).
    pub fn subset_levels(mut self, levels: u32) -> Self {
        self.subset_levels = levels;
        self
    }

    /// PFS stripe size for layout alignment.
    pub fn stripe_size(mut self, stripe_size: u64) -> Self {
        self.stripe_size = stripe_size;
        self
    }

    /// Worker threads for the build path (0 = one per core). Purely a
    /// runtime knob: output is byte-identical for every value.
    pub fn build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads;
        self
    }

    /// [`Self::try_build`] for a configuration that is the caller's
    /// own: an invalid one is a bug, caught where it is built.
    ///
    /// # Panics
    /// Panics when the resulting configuration is invalid.
    pub fn build(self) -> MlocConfig {
        #[allow(clippy::expect_used)]
        self.try_build().expect("invalid configuration")
    }

    /// Finish, deriving defaults: chunk shape from the stripe size and
    /// PLoD from the codec (byte codecs → PLoD columns), and check the
    /// result with [`MlocConfig::validate`].
    pub fn try_build(self) -> Result<MlocConfig> {
        let plod = self
            .plod
            .unwrap_or(matches!(self.codec, CodecKind::Deflate | CodecKind::Raw));
        let chunk_shape = self
            .chunk_shape
            .unwrap_or_else(|| fileorg::advise_chunk_shape(&self.shape, self.stripe_size));
        let config = MlocConfig {
            shape: self.shape,
            chunk_shape,
            num_bins: self.num_bins,
            level_order: self.level_order,
            codec: self.codec,
            plod,
            curve: self.curve,
            subset_levels: self.subset_levels,
            stripe_size: self.stripe_size,
            build_threads: self.build_threads,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plod_levels() {
        assert!(PlodLevel::new(0).is_err());
        assert!(PlodLevel::new(8).is_err());
        let l2 = PlodLevel::new(2).unwrap();
        assert_eq!(l2.num_bytes(), 3);
        assert_eq!(l2.num_parts(), 2);
        assert!(!l2.is_full());
        assert!(PlodLevel::FULL.is_full());
        assert_eq!(PlodLevel::FULL.num_bytes(), 8);
    }

    #[test]
    fn builder_defaults() {
        let c = MlocConfig::builder(vec![64, 64]).build();
        assert_eq!(c.num_bins, 100);
        assert_eq!(c.level_order, LevelOrder::Vms);
        assert!(c.plod, "deflate default implies byte columns");
        assert_eq!(c.num_parts(), NUM_PARTS);
        assert_eq!(c.chunk_shape.len(), 2);
    }

    #[test]
    fn float_codecs_disable_plod() {
        let c = MlocConfig::builder(vec![64, 64])
            .codec(CodecKind::Isobar)
            .build();
        assert!(!c.plod);
        assert_eq!(c.num_parts(), 1);
    }

    #[test]
    #[should_panic]
    fn lossy_codec_with_plod_rejected() {
        MlocConfig::builder(vec![64, 64])
            .codec(CodecKind::Isabela { error_bound: 0.01 })
            .plod(true)
            .build();
    }

    #[test]
    fn isabela_bound_must_be_finite_and_positive() {
        for bound in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let built = MlocConfig::builder(vec![16, 16])
                .chunk_shape(vec![8, 8])
                .num_bins(4)
                .codec(CodecKind::Isabela { error_bound: bound })
                .plod(false)
                .try_build();
            assert!(matches!(built, Err(MlocError::Invalid(_))), "{bound}");
        }
        // A catalog whose stored bound reads 0.0 is refused on parse.
        let config = MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .codec(CodecKind::Isabela { error_bound: 0.001 })
            .build();
        let mut catalog = crate::dataset::catalog_header(&config);
        let bound = 0.001f64.to_le_bytes();
        let at = catalog.windows(8).position(|w| w == bound).unwrap();
        catalog[at..at + 8].copy_from_slice(&0.0f64.to_le_bytes());
        let parsed = crate::dataset::parse_catalog(&catalog);
        assert!(matches!(parsed, Err(MlocError::Invalid(_))));
    }

    #[test]
    fn validation_catches_mismatch() {
        let mut c = MlocConfig::builder(vec![8, 8])
            .chunk_shape(vec![4, 4])
            .build();
        c.chunk_shape = vec![4];
        assert!(c.validate().is_err());
        c.chunk_shape = vec![4, 0];
        assert!(c.validate().is_err());
    }

    #[test]
    fn build_threads_is_a_runtime_knob() {
        let a = MlocConfig::builder(vec![64, 64]).build();
        let mut b = a.clone();
        b.build_threads = 8;
        assert_eq!(a, b, "thread count must not change layout identity");
        assert_eq!(b.effective_build_threads(), 8);
        assert!(a.effective_build_threads() >= 1, "0 resolves to the cores");
        let one = MlocConfig::builder(vec![8, 8]).build_threads(1).build();
        assert_eq!(one.effective_build_threads(), 1);
    }

    #[test]
    fn wire_format_is_pinned() {
        // Bytes captured from the commit before the catalog and meta
        // encoders were folded into `encode_into`: a dataset written
        // then must open now, so neither payload may move by a byte.
        let config = MlocConfig::builder(vec![64, 32, 8])
            .chunk_shape(vec![16, 16, 4])
            .num_bins(12)
            .level_order(LevelOrder::Vsm)
            .codec(CodecKind::Isabela { error_bound: 0.001 })
            .curve(CurveKind::ZOrder)
            .subset_levels(3)
            .stripe_size(1 << 16)
            .build_threads(5)
            .build();
        let body = "03000000400000000000000020000000000000000800000000000000\
                    03000000100000000000000010000000000000000400000000000000\
                    0c0000000103fca9f1d24d62503f0001030000000000010000000000";
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let catalog = crate::dataset::catalog_header(&config);
        assert_eq!(hex(&catalog), format!("4d434154310a54000000{body}"));
        let parsed = crate::dataset::parse_catalog(&catalog).unwrap();
        assert_eq!(
            (parsed.config, parsed.header_len, parsed.vars.len()),
            (config.clone(), catalog.len(), 0)
        );

        // Every bin's summary section: 16 empty chunks each.
        let mut w = crate::wire::Writer::new();
        for _ in 0..12 {
            crate::index::encode_summaries(&[crate::index::ChunkSummary::EMPTY; 16], &mut w);
        }
        let sections = w.finish();
        let section = format!(
            "4d53554d10000000{}",
            "00000000ffffffff0000000000".repeat(16)
        );
        assert_eq!(hex(&sections), section.repeat(12));
        let summaries = crate::index::Summaries::parse(sections.clone(), 12, 16).unwrap();
        let meta = crate::store::VariableMeta {
            var: "temp".into(),
            config,
            bin_bounds: (0..=12).map(|i| i as f64 * 0.5).collect(),
            total_points: 16384,
            summaries,
        };
        let bounds = "0d0000000000000000000000000000000000e03f000000000000f03f\
                      000000000000f83f000000000000004000000000000004400000000000000840\
                      0000000000000c40000000000000104000000000000012400000000000001440\
                      00000000000016400000000000001840";
        // The version byte (7: unit parts are bare payloads) is all the
        // meta of format v7 changed, and the summary sections that end
        // it all format v6 did; a version-6 meta — the checked-in
        // fixture's — has the same sections and decodes for `mloc
        // upgrade` alone. A version-2 meta (two files per bin),
        // version-3 one (WAH bitmaps), version-4 one (chunk directories)
        // or version-5 one (derived locations) has no sections, and is
        // refused by every reader.
        let payload = |version: &str| {
            format!("4d4d4554{version}0400000074656d70{body}{bounds}0040000000000000")
        };
        let encoded = meta.encode();
        assert_eq!(hex(&encoded), payload("07") + &section.repeat(12));
        let decode = crate::store::VariableMeta::decode;
        assert_eq!(decode(&encoded).unwrap(), meta);
        let any = crate::store::VariableMeta::decode_any;
        let without = crate::store::VariableMeta {
            summaries: crate::index::Summaries::none(),
            ..meta.clone()
        };
        let mut v6 = encoded.clone();
        v6[4] = 6;
        assert!(matches!(
            decode(&v6),
            Err(crate::MlocError::NeedsUpgrade { version: 6, .. })
        ));
        assert_eq!(any(&v6).unwrap(), (6, meta.clone()));
        for version in [2u8, 3, 4, 5] {
            let mut old = encoded[..encoded.len() - sections.len()].to_vec();
            old[4] = version;
            assert_eq!(hex(&old), payload(&format!("{version:02x}")));
            assert!(matches!(
                decode(&old),
                Err(crate::MlocError::NeedsUpgrade { .. })
            ));
            assert_eq!(any(&old).unwrap(), (version, without.clone()));
        }
    }

    #[test]
    fn level_order_tags_roundtrip() {
        for o in [LevelOrder::Vms, LevelOrder::Vsm] {
            assert_eq!(LevelOrder::from_tag(o.to_tag()).unwrap(), o);
        }
        assert!(LevelOrder::from_tag(9).is_err());
    }
}
