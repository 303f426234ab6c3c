//! Command implementations for the `mloc` CLI.

use crate::args::{parse_dims, parse_region, parse_vc, usage, Args};
use crate::output::Output;
use mloc::dataset::Dataset;
use mloc::exec::ParallelExecutor;
use mloc::obs::json_string;
use mloc::prelude::*;
use mloc_compress::CodecKind;
use mloc_pfs::{
    CostModel, CrashBackend, CrashPlan, DirBackend, FaultBackend, FaultPlan, RetryPolicy,
    ShardRouter, StorageBackend,
};
use mloc_serve::{QueryServer, ServeConfig, SessionSpec, TenantBudget};

/// Dispatch a parsed invocation.
pub fn dispatch(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    match args.command.as_str() {
        "create" => create(args, out),
        "import" => import(args, out),
        "info" => info(args, out),
        "variables" => variables(args, out),
        "stats" => stats(args, out),
        "query" => query(args, out),
        "serve" => serve(args, out),
        "verify" => verify(args, out),
        "fsck" => fsck(args, out),
        "repair" => repair(args, out),
        "upgrade" => upgrade(args, out),
        "help" | "--help" | "-h" => {
            outln!(out, "{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// Open the storage backend selected by the flags.
///
/// Default is a flat [`DirBackend`] rooted at `--dir` (files live
/// directly in that directory, as every prior release laid them out).
/// `--shards N` (N > 1) spreads the namespace over `DIR/shard0..N-1`
/// behind a [`ShardRouter`]; a dataset must be read back with the same
/// `--shards` it was created with.
fn backend(args: &Args) -> Result<Box<dyn StorageBackend>, String> {
    backend_in(args, args.required("dir")?)
}

/// The backend the storage flags select, rooted at `dir`.
fn backend_in(args: &Args, dir: &str) -> Result<Box<dyn StorageBackend>, String> {
    let shards = args.optional_parsed::<usize>("shards")?.unwrap_or(1);
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let replicas = args.optional_parsed::<usize>("replicas")?.unwrap_or(1);
    if replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    if replicas > shards {
        return Err(format!(
            "--replicas {replicas} needs at least that many shards (--shards {shards})"
        ));
    }
    let open = |root: String| -> Result<Box<dyn StorageBackend>, String> {
        Ok(Box::new(
            DirBackend::new(&root).map_err(|e| format!("cannot open {root}: {e}"))?,
        ))
    };
    if shards == 1 {
        return open(dir.to_string());
    }
    let shard_backends = (0..shards)
        .map(|s| open(format!("{dir}/shard{s}")))
        .collect::<Result<Vec<_>, String>>()?;
    let router = ShardRouter::replicated(shard_backends, replicas).map_err(|e| e.to_string())?;
    Ok(Box::new(router))
}

fn parse_codec(s: &str) -> Result<CodecKind, String> {
    if let Some(eps) = s.strip_prefix("isabela:") {
        let eps: f64 = eps
            .parse()
            .map_err(|_| format!("bad isabela bound {eps:?}"))?;
        if !(eps > 0.0 && eps.is_finite()) {
            return Err("isabela bound must be positive".into());
        }
        return Ok(CodecKind::Isabela { error_bound: eps });
    }
    match s {
        "raw" => Ok(CodecKind::Raw),
        "deflate" => Ok(CodecKind::Deflate),
        "isobar" => Ok(CodecKind::Isobar),
        "fpc" => Ok(CodecKind::Fpc),
        "isabela" => Ok(CodecKind::Isabela { error_bound: 0.001 }),
        other => Err(format!("unknown codec {other:?}")),
    }
}

/// How `--profile` output should be rendered.
#[derive(Clone, Copy, PartialEq)]
enum ProfileMode {
    Off,
    Table,
    Json,
}

fn parse_profile(args: &Args) -> Result<ProfileMode, String> {
    match args.optional("profile") {
        None | Some("false") => Ok(ProfileMode::Off),
        Some("true") | Some("table") => Ok(ProfileMode::Table),
        Some("json") => Ok(ProfileMode::Json),
        Some(other) => Err(format!("--profile {other:?} (expected table|json)")),
    }
}

fn print_profile(
    out: &mut Output<'_>,
    mode: ProfileMode,
    profile: &mloc::obs::Profile,
) -> Result<(), String> {
    match mode {
        ProfileMode::Off => {}
        ProfileMode::Table => out.write(format_args!("{}", profile.render()))?,
        ProfileMode::Json => outln!(out, "{}", profile.to_json()),
    }
    Ok(())
}

fn create(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let be = backend(args)?;
    let name = args.required("name")?;
    let shape = parse_dims(args.required("shape")?)?;

    let mut builder = MlocConfig::builder(shape.clone());
    if let Some(chunk) = args.optional("chunk") {
        builder = builder.chunk_shape(parse_dims(chunk)?);
    }
    if let Some(bins) = args.optional_parsed::<usize>("bins")? {
        builder = builder.num_bins(bins);
    }
    if let Some(codec) = args.optional("codec") {
        builder = builder.codec(parse_codec(codec)?);
    }
    if let Some(levels) = args.optional_parsed::<u32>("multires")? {
        builder = builder.subset_levels(levels);
    }
    if let Some(order) = args.optional("order") {
        builder = builder.level_order(match order {
            "vms" => LevelOrder::Vms,
            "vsm" => LevelOrder::Vsm,
            other => return Err(format!("unknown order {other:?} (vms|vsm)")),
        });
    }
    let config = builder.try_build().map_err(|e| e.to_string())?;
    Dataset::create(&be, name, config.clone()).map_err(|e| e.to_string())?;
    outln!(
        out,
        "created dataset {name}: shape {:?}, chunks {:?}, {} bins, codec {}, order {}",
        config.shape,
        config.chunk_shape,
        config.num_bins,
        config.codec.name(),
        config.level_order.name()
    );
    Ok(())
}

fn load_values(args: &Args, shape: &[usize]) -> Result<Vec<f64>, String> {
    let n: usize = shape.iter().product();
    if let Some(path) = args.optional("raw") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if bytes.len() != n * 8 {
            return Err(format!(
                "{path}: expected {} bytes ({n} little-endian f64), got {}",
                n * 8,
                bytes.len()
            ));
        }
        let (words, _) = bytes.as_chunks::<8>();
        return Ok(words.iter().map(|&w| f64::from_le_bytes(w)).collect());
    }
    let seed = args.optional_parsed::<u64>("seed")?.unwrap_or(42);
    match args.optional("synthetic") {
        Some("gts") => {
            if shape.len() != 2 {
                return Err("synthetic gts needs a 2-D dataset".into());
            }
            Ok(mloc_datagen::gts_like_2d(shape[0], shape[1], seed).into_values())
        }
        Some("s3d") => {
            if shape.len() != 3 {
                return Err("synthetic s3d needs a 3-D dataset".into());
            }
            Ok(mloc_datagen::s3d_like_3d(shape[0], shape[1], shape[2], seed).into_values())
        }
        Some(other) => Err(format!("unknown synthetic source {other:?} (gts|s3d)")),
        None => Err("import needs --raw FILE or --synthetic gts|s3d".into()),
    }
}

fn import(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    // An optional crash plan wraps the backend in the deterministic
    // crash injector: writes buffer in a volatile overlay (the "page
    // cache") until fsynced, and at write op N the process "dies" —
    // unflushed state is discarded and the import fails. `mloc fsck`
    // then classifies the debris and `mloc repair` rolls it back.
    if let Some(path) = args.optional("crash-plan") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let plan = CrashPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let be = CrashBackend::new(backend(args)?, plan);
        let result = import_into(&be, args, out);
        if be.crashed() {
            return Err(format!(
                "simulated crash after {} write op(s); durable state only — run \
                 `mloc fsck` / `mloc repair` to recover",
                be.write_ops()
            ));
        }
        return result;
    }
    let be = backend(args)?;
    import_into(&be, args, out)
}

fn import_into(be: &dyn StorageBackend, args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let mut ds = Dataset::open(be, args.required("name")?).map_err(|e| e.to_string())?;
    if let Some(threads) = args.optional_parsed::<usize>("build-threads")? {
        ds.set_build_threads(threads);
    }
    let var = args.required("var")?;
    let values = load_values(args, &ds.config().shape)?;
    let report = ds.add_variable(var, &values).map_err(|e| e.to_string())?;
    outln!(
        out,
        "imported {var}: {} raw -> {} data + {} index bytes ({:.0}% of raw) in {:.2}s",
        report.raw_bytes,
        report.data_bytes,
        report.index_bytes,
        report.total_ratio() * 100.0,
        report.build_seconds
    );
    outln!(
        out,
        "  stages ({} threads): encode {:.2}s, layout {:.2}s, write {:.2}s",
        ds.config().effective_build_threads(),
        report.encode_seconds,
        report.layout_seconds,
        report.write_seconds
    );
    print_profile(out, parse_profile(args)?, &report.profile)
}

fn info(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let be = backend(args)?;
    let ds = Dataset::open(&be, args.required("name")?).map_err(|e| e.to_string())?;
    let c = ds.config();
    outln!(out, "dataset : {}", ds.name());
    outln!(out, "shape   : {:?}", c.shape);
    outln!(out, "chunks  : {:?} ({} per variable)", c.chunk_shape, {
        let g = mloc::ChunkGrid::new(c.shape.clone(), c.chunk_shape.clone());
        g.num_chunks()
    });
    outln!(out, "bins    : {}", c.num_bins);
    outln!(out, "codec   : {}", c.codec.name());
    outln!(out, "order   : {}", c.level_order.name());
    outln!(
        out,
        "plod    : {}",
        if c.plod {
            "byte columns"
        } else {
            "whole values"
        }
    );
    outln!(out, "stored  : {} bytes", ds.stored_bytes());
    let vars = ds.variables().map_err(|e| e.to_string())?;
    outln!(out, "variables ({}):", vars.len());
    for v in vars {
        outln!(out, "  {v}");
    }
    Ok(())
}

fn variables(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let be = backend(args)?;
    let ds = Dataset::open(&be, args.required("name")?).map_err(|e| e.to_string())?;
    for v in ds.variables().map_err(|e| e.to_string())? {
        outln!(out, "{v}");
    }
    Ok(())
}

/// Per-variable, per-bin storage breakdown: a bin's data bytes, the
/// data section of its file, and its index bytes — its file's index
/// section and its chunk summaries, which the meta holds — found from
/// its fixed blocks, located by those summaries.
fn stats(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let be = backend(args)?;
    let name = args.required("name")?;
    let ds = Dataset::open(&be, name).map_err(|e| e.to_string())?;
    let vars = match args.optional("var") {
        Some(v) => vec![v.to_string()],
        None => ds.variables().map_err(|e| e.to_string())?,
    };
    let json = args.optional("json").is_some_and(|v| v == "true");
    let mut json_vars = Vec::new();
    for var in &vars {
        let store = ds.store(var).map_err(|e| e.to_string())?;
        let num_bins = store.config().num_bins;
        let bounds = store.bins().bounds().to_vec();
        let num_parts = store.config().num_parts();
        let mut rows = Vec::new();
        let mut data_total = 0u64;
        let mut index_total = 0u64;
        let mut summary_total = 0u64;
        // The column counts the chunk summaries alone.
        let summary = mloc::index::summary_size(store.grid().num_chunks());
        for bin in 0..num_bins {
            let file = store.bin_file(bin);
            // The summaries say how long the tables are; the tables say
            // how long everything else is.
            let summaries = store.summaries().bin(bin);
            let tables = mloc::binfile::Tables::of(summaries.set_chunks(), num_parts);
            let (data_at, data_len) = tables.data_span();
            let fixed = be
                .read(file, 0, data_at + data_len)
                .map_err(|e| e.to_string())?;
            let fixed = store.parse_fixed(bin, &fixed).map_err(|e| e.to_string())?;
            let (index, data) = fixed.section_bytes().unwrap_or_default();
            let index = index + summary;
            data_total += data;
            index_total += index;
            summary_total += summary;
            rows.push((bin, data, index, summary));
        }
        let raw = store.total_points() * 8;
        if json {
            let bins: Vec<String> = rows
                .iter()
                .map(|(bin, data, index, summary)| {
                    format!(
                        "{{\"bin\":{bin},\"lo\":{:?},\"hi\":{:?},\"data_bytes\":{data},\
                         \"index_bytes\":{index},\"summary_bytes\":{summary}}}",
                        bounds[*bin],
                        bounds[bin + 1]
                    )
                })
                .collect();
            json_vars.push(format!(
                "{{\"var\":{},\"raw_bytes\":{raw},\"data_bytes\":{data_total},\
                 \"index_bytes\":{index_total},\"summary_bytes\":{summary_total},\
                 \"bins\":[{}]}}",
                json_string(var),
                bins.join(",")
            ));
        } else {
            outln!(
                out,
                "{var}: {} points, {} data + {} index bytes ({:.1}% of raw, {} summary)",
                store.total_points(),
                data_total,
                index_total,
                (data_total + index_total) as f64 / raw as f64 * 100.0,
                summary_total
            );
            outln!(
                out,
                "  {:>4}  {:>22}  {:>12}  {:>12}  {:>9}",
                "bin",
                "values",
                "data",
                "index",
                "summary"
            );
            for (bin, data, index, summary) in rows {
                outln!(
                    out,
                    "  {bin:>4}  [{:>9.3}, {:>9.3})  {data:>12}  {index:>12}  {summary:>9}",
                    bounds[bin],
                    bounds[bin + 1]
                );
            }
        }
    }
    // Per-shard breakdown: where this dataset's bytes physically live.
    // Only meaningful (and only printed) under --shards N > 1.
    let mut json_shards = String::new();
    if let Some(layout) = be.replica_access().filter(|l| l.shard_count() > 1) {
        let nshards = layout.shard_count();
        let prefix = format!("{name}/");
        let mut files = vec![0u64; nshards];
        let mut bytes = vec![0u64; nshards];
        // Replica health: for every file and replica slot, is the
        // copy actually present on its shard? A shard that lost its
        // disk shows missing copies here (until reads or `mloc
        // repair` write them back).
        let replicas = layout.replica_count();
        let mut expected = vec![0u64; nshards];
        let mut present = vec![0u64; nshards];
        for f in be.list() {
            if !f.starts_with(&prefix) {
                continue;
            }
            let s = layout.shard_of(&f);
            files[s] += 1;
            bytes[s] += be.len(&f).map_err(|e| e.to_string())?;
            if replicas > 1 {
                for k in 0..replicas {
                    let s = layout.replica_shard_of(&f, k);
                    expected[s] += 1;
                    if layout.len_replica(&f, k).is_ok() {
                        present[s] += 1;
                    }
                }
            }
        }
        if json {
            let rows: Vec<String> = (0..nshards)
                .map(|s| {
                    let health = if replicas > 1 {
                        format!(
                            ",\"replica_copies_expected\":{},\"replica_copies_present\":{}",
                            expected[s], present[s]
                        )
                    } else {
                        String::new()
                    };
                    format!(
                        "{{\"shard\":{s},\"files\":{},\"bytes\":{}{health}}}",
                        files[s], bytes[s]
                    )
                })
                .collect();
            let repair_note = if replicas > 1 {
                format!(
                    ",\"replicas\":{replicas},\"read_repairs\":{}",
                    layout.read_repair_count()
                )
            } else {
                String::new()
            };
            json_shards = format!(",\"shards\":[{}]{repair_note}", rows.join(","));
        } else {
            outln!(out, "shards ({nshards}):");
            for s in 0..nshards {
                let health = if replicas > 1 {
                    let state = if present[s] == expected[s] {
                        "healthy".to_string()
                    } else {
                        format!("{} missing", expected[s] - present[s])
                    };
                    format!(" | replica copies {}/{} ({state})", present[s], expected[s])
                } else {
                    String::new()
                };
                outln!(
                    out,
                    "  shard {s}: {} file(s), {} bytes{health}",
                    files[s],
                    bytes[s]
                );
            }
            if replicas > 1 {
                outln!(
                    out,
                    "replication: {replicas} copies per file, {} read-repair(s) this session",
                    layout.read_repair_count()
                );
            }
        }
    }
    if json {
        outln!(
            out,
            "{{\"variables\":[{}]{json_shards}}}",
            json_vars.join(",")
        );
    }
    Ok(())
}

/// Recompute every stored checksum and map the damage.
fn verify(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let be = backend(args)?;
    let name = args.required("name")?;
    let report = match args.optional("var") {
        Some(var) => mloc::verify_variable(&be, name, var),
        None => mloc::verify_dataset(&be, name),
    }
    .map_err(|e| e.to_string())?;
    if args.optional("json").is_some_and(|v| v == "true") {
        let damage: Vec<String> = report
            .damage
            .iter()
            .map(|d| {
                format!(
                    "{{\"file\":{},\"offset\":{},\"len\":{},\"what\":{}}}",
                    json_string(&d.file),
                    d.offset,
                    d.len,
                    json_string(&d.what)
                )
            })
            .collect();
        outln!(
            out,
            "{{\"clean\":{},\"files_checked\":{},\"extents_checked\":{},\"damage\":[{}]}}",
            report.is_clean(),
            report.files_checked,
            report.extents_checked,
            damage.join(",")
        );
    } else {
        outln!(out, "{}", report.to_string().trim_end());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} damaged extent(s) found", report.damage.len()))
    }
}

/// The elements of a JSON array of strings, comma-joined.
fn json_list(v: &[String]) -> String {
    let items: Vec<String> = v.iter().map(|s| json_string(s)).collect();
    items.join(",")
}

/// Classify every file of a dataset after a crash (read-only).
fn fsck(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let be = backend(args)?;
    let name = args.required("name")?;
    let report = mloc::repair::fsck(&be, name).map_err(|e| e.to_string())?;
    if args.optional("json").is_some_and(|v| v == "true") {
        let findings: Vec<String> = report
            .findings
            .iter()
            .map(|d| {
                format!(
                    "{{\"file\":{},\"class\":\"{}\",\"what\":{}}}",
                    json_string(&d.file),
                    d.class,
                    json_string(&d.what)
                )
            })
            .collect();
        outln!(
            out,
            "{{\"clean\":{},\"catalog_ok\":{},\"files_checked\":{},\"committed\":[{}],\
             \"unlisted\":[{}],\"uncommitted\":[{}],\"findings\":[{}]}}",
            report.is_clean(),
            report.catalog_ok,
            report.files_checked,
            json_list(&report.committed),
            json_list(&report.unlisted),
            json_list(&report.uncommitted),
            findings.join(",")
        );
    } else {
        outln!(out, "{}", report.to_string().trim_end());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} finding(s); run `mloc repair` to recover",
            report.findings.len() + report.unlisted.len()
        ))
    }
}

/// Repair a dataset in place: replica restore, rollback, catalog
/// reconciliation. Fails only when damage is unrepairable.
fn repair(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let be = backend(args)?;
    let name = args.required("name")?;
    let report = mloc::repair::repair(&be, name).map_err(|e| e.to_string())?;
    if args.optional("json").is_some_and(|v| v == "true") {
        outln!(
            out,
            "{{\"healthy\":{},\"restored\":[{}],\"rolled_back\":[{}],\"removed_files\":{},\
             \"reattached\":[{}],\"catalog_rewritten\":{},\"unrepairable\":[{}]}}",
            report.is_healthy(),
            json_list(&report.restored),
            json_list(&report.rolled_back),
            report.removed_files,
            json_list(&report.reattached),
            report.catalog_rewritten,
            json_list(&report.unrepairable)
        );
    } else {
        outln!(out, "{}", report.to_string().trim_end());
    }
    if report.is_healthy() {
        Ok(())
    } else {
        Err(format!(
            "{} file(s) unrepairable (no healthy replica)",
            report.unrepairable.len()
        ))
    }
}

/// Copy a dataset of format v6 out to `--out` as v7.
fn upgrade(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let old = backend(args)?;
    let new = backend_in(args, args.required("out")?)?;
    let name = args.required("name")?;
    let report = mloc::upgrade::upgrade(&old, &new, name).map_err(|e| e.to_string())?;
    outln!(
        out,
        "upgraded {name}: {} variable(s), {} bin file(s) written as v7",
        report.variables.len(),
        report.bin_files
    );
    Ok(())
}

/// Retry a metadata-open step on *transient* storage errors, per the
/// CLI retry policy. Rank reads retry inside the executor; the catalog
/// and meta reads that happen before any rank exists are covered here.
fn retry_transient<T>(
    policy: RetryPolicy,
    mut f: impl FnMut() -> mloc::Result<T>,
) -> Result<T, String> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match f() {
            Ok(v) => return Ok(v),
            Err(mloc::MlocError::Pfs(e)) if e.is_transient() && policy.should_retry(attempt) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}

fn query(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    // An optional fault plan wraps the directory backend in the
    // deterministic fault injector — the same machinery the test suite
    // uses, exposed for demos and for exercising --retry by hand.
    let be: Box<dyn StorageBackend> = match args.optional("fault-plan") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let plan = FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Box::new(FaultBackend::new(backend(args)?, plan))
        }
        None => backend(args)?,
    };
    let be = be.as_ref();
    let retry = args
        .optional_parsed::<u32>("retry")?
        .map(RetryPolicy::with_attempts)
        .unwrap_or_default();
    let name = args.required("name")?;
    let var = args.required("var")?;
    let ds = retry_transient(retry, || Dataset::open(be, name))?;
    let mut store = retry_transient(retry, || ds.store(var))?;
    let cache = args
        .optional_parsed::<u64>("cache-mb")?
        .map(|mb| std::sync::Arc::new(BlockCache::with_budget_mb(mb)));
    store.set_cache(cache.clone());

    let vc = args.optional("vc").map(parse_vc).transpose()?;
    let sc = args
        .optional("sc")
        .map(parse_region)
        .transpose()?
        .map(Region::new);
    if vc.is_none() && sc.is_none() {
        return Err("query needs --vc and/or --sc".into());
    }
    let wants_values = args.optional("values").is_some_and(|v| v == "true");
    let plod = match args.optional_parsed::<u8>("plod")? {
        Some(l) => PlodLevel::new(l).map_err(|e| e.to_string())?,
        None => PlodLevel::FULL,
    };
    let output = if wants_values {
        QueryOutput::Values
    } else {
        QueryOutput::Positions
    };
    let q = Query::new(vc, sc, plod, output);

    let ranks = args.optional_parsed::<usize>("ranks")?.unwrap_or(1);
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let mut exec = ParallelExecutor::new(ranks, CostModel::default()).with_retry(retry);
    if args.optional("no-degrade").is_some_and(|v| v == "true") {
        exec = exec.allow_degraded(false);
    }
    let target_error = args.optional_parsed::<f64>("target-error")?;
    let progressive =
        args.optional("progressive").is_some_and(|v| v == "true") || target_error.is_some();
    let profile_mode = parse_profile(args)?;
    let exec = exec.profiled(profile_mode != ProfileMode::Off);
    // --repeat replays the query; with --cache-mb the later passes are
    // warm and show the cache's effect on io/decompress time.
    let repeat = args.optional_parsed::<usize>("repeat")?.unwrap_or(1).max(1);
    let mut last_profile = None;
    let mut pass = 0;
    let res = loop {
        let (res, m) = if progressive {
            // Progressive ladder: serve a base-precision answer, then
            // pull byte-group refinements (to the target error bound,
            // or all the way) and print what each step cost.
            let mut pq = exec.progressive(&store, &q).map_err(|e| e.to_string())?;
            match target_error {
                Some(eps) => pq.run_to_target_error(eps),
                None => pq.run_to_completion(),
            }
            .map_err(|e| e.to_string())?;
            for s in pq.steps() {
                outln!(
                    out,
                    "  step {}: level {} (bound {:.3e}) | {} bytes read, {} cache-saved | \
                     sim io {:.3}s{}{}",
                    s.step,
                    s.level.level(),
                    s.error_bound,
                    s.bytes_read,
                    s.bytes_saved,
                    s.io_s,
                    if s.capped_units > 0 {
                        format!(" | {} unit(s) capped by damage", s.capped_units)
                    } else {
                        String::new()
                    },
                    if s.done { " | done" } else { "" }
                );
            }
            let (res, m, _steps, profile) = pq.into_outcome();
            if profile_mode != ProfileMode::Off {
                last_profile = Some(profile);
            }
            (res, m)
        } else {
            let out = exec
                .run(&store, ExecRequest::new(&q))
                .map_err(|e| e.to_string())?;
            if profile_mode != ProfileMode::Off {
                last_profile = Some(out.profile);
            }
            (out.result, out.metrics)
        };
        let cache_note = if cache.is_some() {
            format!(
                " | cache {} hits / {} misses, {} bytes saved",
                m.cache_hits, m.cache_misses, m.bytes_saved
            )
        } else {
            String::new()
        };
        let pass_note = if repeat > 1 {
            format!("pass {}/{repeat}: ", pass + 1)
        } else {
            String::new()
        };
        let mut fault_note = String::new();
        if m.retries > 0 {
            fault_note.push_str(&format!(
                " | {} retried read(s), {:.3}s simulated backoff",
                m.retries, m.retry_wait_s
            ));
        }
        if m.degradation.is_degraded() {
            fault_note.push_str(&format!(" | {}", m.degradation));
        }
        outln!(
            out,
            "{pass_note}{} matches | bins {} (aligned {}), chunks {} | sim io {:.3}s, \
             decompress {:.3}s, reconstruct {:.3}s | {} bytes read{cache_note}{fault_note}",
            res.len(),
            m.bins_touched,
            m.aligned_bins,
            m.chunks_touched,
            m.io_s,
            m.decompress_s,
            m.reconstruct_s,
            m.bytes_read
        );
        pass += 1;
        if pass == repeat {
            break res;
        }
    };
    let limit = args.optional_parsed::<usize>("limit")?.unwrap_or(20);
    let grid = store.grid();
    for (i, &p) in res.positions().iter().take(limit).enumerate() {
        let coords = grid.delinearize(p);
        match res.values() {
            Some(vals) => outln!(out, "  {coords:?} = {}", vals[i]),
            None => outln!(out, "  {coords:?}"),
        }
    }
    if res.len() > limit {
        outln!(
            out,
            "  ... ({} more; raise --limit to see them)",
            res.len() - limit
        );
    }
    // The profile of the final pass (the warm one under --cache-mb),
    // printed last so `--profile json` output is the tail of stdout.
    if let Some(profile) = &last_profile {
        print_profile(out, profile_mode, profile)?;
    }
    Ok(())
}

/// Parse a `serve` workload file into budgets and session specs.
///
/// Line grammar (blank lines and `#` comments are skipped):
///
/// ```text
/// budget TENANT bytes=N [io_s=SECONDS]
/// session TENANT VAR [vc=LO:HI] [sc=A:B,C:D] [plod=1..7] [values]
/// ```
type Workload = (Vec<(String, TenantBudget)>, Vec<SessionSpec>);

fn parse_workload(text: &str, dataset: &str) -> Result<Workload, String> {
    let mut budgets = Vec::new();
    let mut sessions = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| format!("workload line {}: {msg}", lineno + 1);
        let mut words = line.split_whitespace();
        match words.next() {
            Some("budget") => {
                let tenant = words
                    .next()
                    .ok_or_else(|| at("budget needs a tenant".into()))?;
                let mut budget = TenantBudget::unlimited();
                for w in words {
                    if let Some(v) = w.strip_prefix("bytes=") {
                        budget.max_bytes =
                            Some(v.parse().map_err(|_| at(format!("bad bytes {v:?}")))?);
                    } else if let Some(v) = w.strip_prefix("io_s=") {
                        budget.max_io_s =
                            Some(v.parse().map_err(|_| at(format!("bad io_s {v:?}")))?);
                    } else {
                        return Err(at(format!("unknown budget field {w:?}")));
                    }
                }
                budgets.push((tenant.to_string(), budget));
            }
            Some("session") => {
                let tenant = words
                    .next()
                    .ok_or_else(|| at("session needs a tenant".into()))?;
                let var = words
                    .next()
                    .ok_or_else(|| at("session needs a variable".into()))?;
                let mut vc = None;
                let mut sc = None;
                let mut plod = PlodLevel::FULL;
                let mut output = QueryOutput::Positions;
                let mut progressive = false;
                let mut target_error = None;
                for w in words {
                    if let Some(v) = w.strip_prefix("vc=") {
                        vc = Some(parse_vc(v).map_err(at)?);
                    } else if let Some(v) = w.strip_prefix("sc=") {
                        sc = Some(Region::new(parse_region(v).map_err(at)?));
                    } else if let Some(v) = w.strip_prefix("plod=") {
                        let level: u8 = v.parse().map_err(|_| at(format!("bad plod {v:?}")))?;
                        plod = PlodLevel::new(level).map_err(|e| at(e.to_string()))?;
                    } else if w == "values" {
                        output = QueryOutput::Values;
                    } else if w == "progressive" {
                        progressive = true;
                    } else if let Some(v) = w.strip_prefix("target_error=") {
                        target_error = Some(
                            v.parse()
                                .map_err(|_| at(format!("bad target_error {v:?}")))?,
                        );
                    } else {
                        return Err(at(format!("unknown session field {w:?}")));
                    }
                }
                if vc.is_none() && sc.is_none() {
                    return Err(at("session needs vc= and/or sc=".into()));
                }
                let mut spec =
                    SessionSpec::new(tenant, dataset, var, Query::new(vc, sc, plod, output));
                if progressive {
                    spec = spec.progressive();
                }
                if let Some(eps) = target_error {
                    spec = spec.with_target_error(eps);
                }
                sessions.push(spec);
            }
            Some(other) => return Err(at(format!("unknown directive {other:?}"))),
            None => unreachable!("blank lines are skipped"),
        }
    }
    if sessions.is_empty() {
        return Err("workload has no session lines".into());
    }
    Ok((budgets, sessions))
}

/// Run a multi-session workload against one dataset: FIFO admission
/// windows, per-tenant budgets, shared block cache, and cross-session
/// extent fusion.
fn serve(args: &Args, out: &mut Output<'_>) -> Result<(), String> {
    let be = backend(args)?;
    let name = args.required("name")?;
    let path = args.required("workload")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (budgets, sessions) = parse_workload(&text, name)?;

    let mut config = ServeConfig::default();
    if let Some(v) = args.optional_parsed::<usize>("workers")? {
        config.workers = v.max(1);
    }
    if let Some(v) = args.optional_parsed::<usize>("window")? {
        config.window = v.max(1);
    }
    if let Some(v) = args.optional_parsed::<u64>("cache-mb")? {
        config.cache_mb = v;
    }
    if let Some(v) = args.optional_parsed::<usize>("ranks")? {
        config.nranks = v.max(1);
    }
    if let Some(v) = args.optional_parsed::<u32>("retry")? {
        config.retry = RetryPolicy::with_attempts(v);
    }
    config.fusion = args.optional("fusion") != Some("false");
    config.threaded = args.optional("threaded") == Some("true");

    let mut server = QueryServer::new(&be, config);
    for (tenant, budget) in budgets {
        server.set_budget(&tenant, budget);
    }
    let reports = server.run(&sessions);

    let mut failed = 0usize;
    for r in &reports {
        match (&r.outcome, &r.metrics) {
            (Ok(res), Some(m)) => {
                let ladder_note = match &r.steps {
                    Some(steps) => format!(
                        " | progressive: {} step(s), final bound {:.3e}",
                        steps.len(),
                        steps.last().map_or(0.0, |s| s.error_bound)
                    ),
                    None => String::new(),
                };
                outln!(
                    out,
                    "session {:>3} [{}] w{}: {} matches | {} bytes read, {} cache-saved, \
                     {} fusion-saved | sim io {:.3}s{ladder_note}",
                    r.index,
                    r.tenant,
                    r.window,
                    res.len(),
                    m.bytes_read,
                    m.bytes_saved,
                    m.fused_bytes_saved,
                    m.io_s
                );
            }
            (Err(e), _) if e.is_budget() => {
                outln!(
                    out,
                    "session {:>3} [{}] w{}: rejected — {e}",
                    r.index,
                    r.tenant,
                    r.window
                );
            }
            (outcome, _) => {
                failed += 1;
                let why = outcome
                    .as_ref()
                    .err()
                    .map_or("answered without metrics".to_string(), ToString::to_string);
                outln!(
                    out,
                    "session {:>3} [{}] w{}: FAILED — {why}",
                    r.index,
                    r.tenant,
                    r.window
                );
            }
        }
    }

    outln!(out, "tenants:");
    for (tenant, u) in server.usage() {
        outln!(
            out,
            "  {tenant}: {} ok / {} rejected / {} failed | {} logical bytes \
             ({} read, {} cache-saved, {} fusion-saved) | sim io {:.3}s",
            u.completed,
            u.rejected,
            u.failed,
            u.logical_bytes,
            u.bytes_read,
            u.bytes_saved,
            u.fused_bytes_saved,
            u.io_s
        );
    }
    if let Some(c) = server.cache_stats() {
        outln!(
            out,
            "cache  : {} hits / {} misses, {} resident bytes",
            c.hits,
            c.misses,
            c.resident_bytes
        );
    }
    if let Some(f) = server.fusion_stats() {
        outln!(
            out,
            "fusion : {} physical reads ({} bytes), {} fused reads ({} bytes saved)",
            f.physical_reads,
            f.physical_bytes,
            f.fused_reads,
            f.fused_bytes
        );
    }
    if failed > 0 {
        return Err(format!("{failed} session(s) failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(v: &[&str]) -> Result<(), String> {
        runv(v.iter().map(|s| s.to_string()).collect())
    }

    /// Dispatch, its output discarded.
    fn runv(v: Vec<String>) -> Result<(), String> {
        let args = Args::parse(v.into_iter()).unwrap();
        dispatch(&args, &mut Output::new(&mut std::io::sink()))
    }

    fn tmpdir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("mloc-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn full_cli_lifecycle() {
        let dir = tmpdir("life");
        run(&[
            "create", "--dir", &dir, "--name", "ds", "--shape", "64,64", "--chunk", "16,16",
            "--bins", "8", "--codec", "deflate",
        ])
        .unwrap();
        run(&[
            "import",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--synthetic",
            "gts",
            "--seed",
            "3",
        ])
        .unwrap();
        run(&["info", "--dir", &dir, "--name", "ds"]).unwrap();
        run(&["variables", "--dir", &dir, "--name", "ds"]).unwrap();
        run(&[
            "query", "--dir", &dir, "--name", "ds", "--var", "t", "--vc", "0:1000", "--limit", "2",
        ])
        .unwrap();
        run(&[
            "query", "--dir", &dir, "--name", "ds", "--var", "t", "--sc", "0:8,0:8", "--values",
            "true", "--plod", "2",
        ])
        .unwrap();
        // Cached replay: second pass is warm.
        run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--vc",
            "0:1000",
            "--cache-mb",
            "64",
            "--repeat",
            "3",
        ])
        .unwrap();
        // Progressive ladder: full, with a target error bound, and a
        // warm cached repeat (refinements hit the cache).
        run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--sc",
            "0:16,0:16",
            "--values",
            "true",
            "--progressive",
            "true",
        ])
        .unwrap();
        run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--sc",
            "0:16,0:16",
            "--values",
            "true",
            "--target-error",
            "1e-3",
            "--cache-mb",
            "64",
            "--repeat",
            "2",
            "--profile",
            "table",
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_and_profile() {
        let dir = tmpdir("prof");
        run(&[
            "create", "--dir", &dir, "--name", "ds", "--shape", "32,32", "--chunk", "8,8",
            "--bins", "4",
        ])
        .unwrap();
        run(&[
            "import",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--synthetic",
            "gts",
            "--profile",
            "table",
        ])
        .unwrap();
        run(&["stats", "--dir", &dir, "--name", "ds"]).unwrap();
        run(&[
            "stats", "--dir", &dir, "--name", "ds", "--var", "t", "--json", "true",
        ])
        .unwrap();
        assert!(run(&["stats", "--dir", &dir, "--name", "ds", "--var", "ghost"]).is_err());
        run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--vc",
            "0:1000",
            "--profile",
            "table",
        ])
        .unwrap();
        run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--vc",
            "0:1000",
            "--ranks",
            "4",
            "--profile",
            "json",
        ])
        .unwrap();
        assert!(run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--vc",
            "0:1000",
            "--profile",
            "xml",
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn import_from_raw_file() {
        let dir = tmpdir("raw");
        run(&[
            "create", "--dir", &dir, "--name", "ds", "--shape", "8,8", "--chunk", "4,4", "--bins",
            "2",
        ])
        .unwrap();
        let raw: Vec<u8> = (0..64).flat_map(|i| (i as f64).to_le_bytes()).collect();
        let raw_path = format!("{dir}/input.bin");
        std::fs::write(&raw_path, &raw).unwrap();
        run(&[
            "import", "--dir", &dir, "--name", "ds", "--var", "v", "--raw", &raw_path,
        ])
        .unwrap();
        run(&[
            "query", "--dir", &dir, "--name", "ds", "--var", "v", "--vc", "10:20",
        ])
        .unwrap();
        // Wrong size raw file.
        std::fs::write(&raw_path, &raw[..100]).unwrap();
        assert!(
            run(&["import", "--dir", &dir, "--name", "ds", "--var", "w", "--raw", &raw_path])
                .is_err()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let dir = tmpdir("err");
        assert!(run(&["info", "--dir", &dir, "--name", "ghost"]).is_err());
        assert!(run(&["bogus", "--dir", &dir]).is_err());
        run(&["create", "--dir", &dir, "--name", "ds", "--shape", "8,8"]).unwrap();
        // Duplicate create.
        assert!(run(&["create", "--dir", &dir, "--name", "ds", "--shape", "8,8"]).is_err());
        // Query without constraints.
        assert!(run(&["query", "--dir", &dir, "--name", "ds", "--var", "x"]).is_err());
        // Bad codec / order.
        assert!(run(&[
            "create", "--dir", &dir, "--name", "d2", "--shape", "8,8", "--codec", "zstd"
        ])
        .is_err());
        assert!(run(&[
            "create", "--dir", &dir, "--name", "d3", "--shape", "8,8", "--order", "svm"
        ])
        .is_err());
        // Synthetic dimensionality mismatch.
        assert!(run(&[
            "import",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "v",
            "--synthetic",
            "s3d"
        ])
        .is_err());
        // Configurations `validate` rejects: no bins, a chunk of the
        // wrong rank, too many resolution levels.
        for bad in [["--bins", "0"], ["--chunk", "16"], ["--multires", "17"]] {
            let argv = ["create", "--dir", &dir, "--name", "d4", "--shape", "8,8"];
            let err = run(&[&argv[..], &bad[..]].concat()).unwrap_err();
            assert!(err.starts_with("invalid request"), "{bad:?}: {err}");
        }
        // Zero ranks.
        run(&[
            "import",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "v",
            "--synthetic",
            "gts",
        ])
        .unwrap();
        let err = run(&[
            "query", "--dir", &dir, "--name", "ds", "--var", "v", "--sc", "0:4,0:4", "--ranks", "0",
        ])
        .unwrap_err();
        assert!(err.contains("--ranks"), "{err}");
        // A raw field with no number to bin.
        let raw = format!("{dir}/nan.raw");
        std::fs::write(&raw, f64::NAN.to_le_bytes().repeat(64)).unwrap();
        let err = run(&[
            "import", "--dir", &dir, "--name", "ds", "--var", "n", "--raw", &raw,
        ])
        .unwrap_err();
        assert!(err.contains("NaN"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_retry_and_fault_injection() {
        let dir = tmpdir("fault");
        run(&[
            "create", "--dir", &dir, "--name", "ds", "--shape", "32,32", "--chunk", "8,8",
            "--bins", "4",
        ])
        .unwrap();
        run(&[
            "import",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--synthetic",
            "gts",
        ])
        .unwrap();
        run(&["verify", "--dir", &dir, "--name", "ds"]).unwrap();
        run(&[
            "verify", "--dir", &dir, "--name", "ds", "--var", "t", "--json", "true",
        ])
        .unwrap();

        // Heavy transient faults: retries absorb them (max_transient=2
        // < 4 attempts), no retries means the query fails.
        let plan = format!("{dir}/plan.txt");
        std::fs::write(&plan, "seed=7\ntransient_rate=0.9\nmax_transient=2\n").unwrap();
        run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--vc",
            "0:1000",
            "--fault-plan",
            &plan,
            "--retry",
            "4",
        ])
        .unwrap();
        assert!(run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--vc",
            "0:1000",
            "--fault-plan",
            &plan,
        ])
        .is_err());
        assert!(run(&[
            "query",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--vc",
            "0:1000",
            "--fault-plan",
            "/nonexistent/plan",
        ])
        .is_err());

        // Flip one stored data byte — the last unit's last, just ahead
        // of the end marker: verify exits nonzero and names the damaged
        // file.
        let victim = std::path::Path::new(&dir).join("ds__t__bin0001.bin");
        let mut data = std::fs::read(&victim).unwrap();
        let last = data.len() - 13;
        data[last] ^= 0x10;
        std::fs::write(&victim, &data).unwrap();
        let err = run(&["verify", "--dir", &dir, "--name", "ds"]).unwrap_err();
        assert!(err.contains("damaged"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_runs_a_workload_file() {
        let dir = tmpdir("serve");
        run(&[
            "create", "--dir", &dir, "--name", "ds", "--shape", "64,64", "--chunk", "16,16",
            "--bins", "6",
        ])
        .unwrap();
        run(&[
            "import",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--synthetic",
            "gts",
        ])
        .unwrap();
        let workload = format!("{dir}/traffic.txt");
        std::fs::write(
            &workload,
            "# two tenants over one variable\n\
             budget alice bytes=10000000\n\
             session alice t vc=0:1000\n\
             session bob t sc=0:16,0:16 values\n\
             session alice t vc=0:1000\n\
             session bob t vc=0:1000 plod=3\n\
             session bob t sc=0:16,0:16 values progressive\n\
             session alice t sc=0:8,0:8 values target_error=1e-4\n",
        )
        .unwrap();
        run(&[
            "serve",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--workload",
            &workload,
            "--workers",
            "2",
            "--window",
            "4",
        ])
        .unwrap();
        // Fusion off still works; a broken workload is a parse error.
        run(&[
            "serve",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--workload",
            &workload,
            "--fusion",
            "false",
        ])
        .unwrap();
        std::fs::write(&workload, "session alice t\n").unwrap();
        let err = run(&[
            "serve",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--workload",
            &workload,
        ])
        .unwrap_err();
        assert!(err.contains("vc= and/or sc="), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_lifecycle() {
        let dir = tmpdir("shard");
        // Same lifecycle as the flat layout, spread over 2 shard
        // directories.
        let base = ["--dir", &dir, "--name", "ds", "--shards", "2"];
        let with = |head: &[&str], tail: &[&str]| -> Vec<String> {
            head.iter()
                .chain(base.iter())
                .chain(tail.iter())
                .map(|s| s.to_string())
                .collect()
        };
        runv(with(
            &["create"],
            &["--shape", "32,32", "--chunk", "8,8", "--bins", "4"],
        ))
        .unwrap();
        runv(with(&["import"], &["--var", "t", "--synthetic", "gts"])).unwrap();
        runv(with(&["query"], &["--var", "t", "--vc", "0:1000"])).unwrap();
        runv(with(&["verify"], &[])).unwrap();
        runv(with(&["stats"], &[])).unwrap();
        runv(with(&["stats"], &["--json", "true"])).unwrap();
        // Files live under shard subdirectories, not the root.
        let shard_files = |s: usize| {
            std::fs::read_dir(format!("{dir}/shard{s}"))
                .map(|d| d.count())
                .unwrap_or(0)
        };
        assert!(shard_files(0) > 0 && shard_files(1) > 0);
        // Opening without --shards must fail: the flat root holds no
        // catalog, exactly as if the files were lost.
        assert!(run(&["info", "--dir", &dir, "--name", "ds"]).is_err());
        // Bad knob values are rejected up front.
        assert!(run(&["info", "--dir", &dir, "--name", "ds", "--shards", "0"]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_import_fsck_repair_cycle() {
        let dir = tmpdir("crash");
        run(&[
            "create", "--dir", &dir, "--name", "ds", "--shape", "32,32", "--chunk", "8,8",
            "--bins", "4",
        ])
        .unwrap();
        // Count the write ops of a full import, then replay it with a
        // crash in the middle of the bin files.
        let plan = format!("{dir}/crash.txt");
        std::fs::write(&plan, "crash_at = 7\n").unwrap();
        let err = run(&[
            "import",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--synthetic",
            "gts",
            "--build-threads",
            "1",
            "--crash-plan",
            &plan,
        ])
        .unwrap_err();
        assert!(err.contains("simulated crash"), "{err}");

        // fsck sees the debris and exits nonzero; repair rolls it
        // back; the rerun import and fsck are then clean.
        let err = run(&["fsck", "--dir", &dir, "--name", "ds"]).unwrap_err();
        assert!(err.contains("repair"), "{err}");
        run(&["repair", "--dir", &dir, "--name", "ds"]).unwrap();
        run(&["fsck", "--dir", &dir, "--name", "ds", "--json", "true"]).unwrap();
        run(&[
            "import",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--var",
            "t",
            "--synthetic",
            "gts",
        ])
        .unwrap();
        run(&["verify", "--dir", &dir, "--name", "ds"]).unwrap();
        run(&["repair", "--dir", &dir, "--name", "ds", "--json", "true"]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replicated_lifecycle_survives_a_lost_shard() {
        let dir = tmpdir("replica");
        let base = [
            "--dir",
            &dir,
            "--name",
            "ds",
            "--shards",
            "2",
            "--replicas",
            "2",
        ];
        let with = |head: &[&str], tail: &[&str]| -> Vec<String> {
            head.iter()
                .chain(base.iter())
                .chain(tail.iter())
                .map(|s| s.to_string())
                .collect()
        };
        runv(with(
            &["create"],
            &["--shape", "32,32", "--chunk", "8,8", "--bins", "4"],
        ))
        .unwrap();
        runv(with(&["import"], &["--var", "t", "--synthetic", "gts"])).unwrap();
        runv(with(&["stats"], &["--json", "true"])).unwrap();
        runv(with(&["query"], &["--var", "t", "--vc", "0:1000"])).unwrap();

        // Kill shard 0 entirely: every read must fall through to the
        // replica, and repair heals the missing copies back.
        std::fs::remove_dir_all(format!("{dir}/shard0")).unwrap();
        runv(with(&["query"], &["--var", "t", "--vc", "0:1000"])).unwrap();
        runv(with(&["stats"], &[])).unwrap();
        runv(with(&["repair"], &[])).unwrap();
        runv(with(&["fsck"], &[])).unwrap();
        runv(with(&["verify"], &[])).unwrap();

        // Bad knob combinations are rejected.
        assert!(run(&["info", "--dir", &dir, "--name", "ds", "--replicas", "0"]).is_err());
        assert!(run(&[
            "info",
            "--dir",
            &dir,
            "--name",
            "ds",
            "--shards",
            "2",
            "--replicas",
            "3"
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_parsing() {
        let (budgets, sessions) = parse_workload(
            "budget a bytes=100 io_s=1.5\n\nsession a v vc=0:1\n# c\nsession b v sc=0:4,0:4 values plod=2\n",
            "ds",
        )
        .unwrap();
        assert_eq!(budgets.len(), 1);
        assert_eq!(budgets[0].0, "a");
        assert_eq!(budgets[0].1.max_bytes, Some(100));
        assert_eq!(budgets[0].1.max_io_s, Some(1.5));
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].tenant, "a");
        assert_eq!(sessions[1].dataset, "ds");
        assert!(parse_workload("", "ds").is_err());
        assert!(parse_workload("session a v vc=9:1\n", "ds").is_err());
        assert!(parse_workload("warp a v vc=0:1\n", "ds").is_err());
        assert!(parse_workload("budget a pages=3\n", "ds").is_err());
        let (_, s) = parse_workload("session a v sc=0:4,0:4 values progressive\n", "ds").unwrap();
        assert!(s[0].progressive && s[0].target_error.is_none());
        let (_, s) =
            parse_workload("session a v sc=0:4,0:4 values target_error=0.01\n", "ds").unwrap();
        assert!(s[0].progressive && s[0].target_error == Some(0.01));
        assert!(parse_workload("session a v sc=0:4,0:4 target_error=x\n", "ds").is_err());
    }

    #[test]
    fn parse_codec_variants() {
        assert_eq!(parse_codec("raw").unwrap().name(), "raw");
        assert_eq!(parse_codec("isabela:0.01").unwrap().name(), "isabela");
        assert!(parse_codec("isabela:-1").is_err());
        assert!(parse_codec("isabela:x").is_err());
        assert!(parse_codec("lz4").is_err());
    }
}
