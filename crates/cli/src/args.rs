//! Minimal flag parsing for the `mloc` CLI (no external crates).

use std::collections::BTreeMap;

/// Parsed invocation: a subcommand plus `--key value` flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Flags every command reads: where the dataset lives and how its
/// bytes are laid out (the STORAGE section of the usage text).
const COMMON_FLAGS: &str = "dir name shards replicas";

/// The flags each command reads beyond [`COMMON_FLAGS`]. This is the
/// one list: [`Args::parse`] rejects anything outside it, and a test
/// holds the usage text to it.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("create", "shape chunk bins codec order multires"),
    (
        "import",
        "var raw synthetic seed build-threads crash-plan profile",
    ),
    ("info", ""),
    ("stats", "var json"),
    (
        "query",
        "var vc sc plod values ranks limit cache-mb repeat progressive target-error retry \
         no-degrade fault-plan profile",
    ),
    (
        "serve",
        "workload workers window ranks cache-mb fusion retry threaded",
    ),
    ("verify", "var json"),
    ("fsck", "json"),
    ("repair", "json"),
    ("upgrade", "out"),
    ("variables", ""),
];

/// Every flag `command` reads; `None` for a command not in the list.
fn known_flags(command: &str) -> Option<impl Iterator<Item = &'static str>> {
    let (_, own) = COMMAND_FLAGS.iter().find(|(c, _)| *c == command)?;
    Some(own.split_whitespace().chain(COMMON_FLAGS.split(' ')))
}

impl Args {
    /// Parse from an iterator of arguments (excluding argv[0]). A flag
    /// the selected command never reads is an error here, before the
    /// command runs — a typo must not silently change what it does.
    /// (An unknown command is reported by `dispatch`, with the usage.)
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let command = argv.next().ok_or_else(usage)?;
        let mut flags = BTreeMap::new();
        while let Some(a) = argv.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {a:?}"))?;
            if known_flags(&command).is_some_and(|mut known| !known.any(|f| f == key)) {
                return Err(format!("unknown flag --{key} for `{command}`"));
            }
            let value = argv
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?;
            if flags.insert(key.to_string(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(Args { command, flags })
    }

    /// A required flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// An optional flag parsed to a type.
    pub fn optional_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }
}

/// Parse a comma-separated list of positive integers ("256,256").
pub fn parse_dims(s: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = s.split(',').map(|p| p.trim().parse()).collect();
    let dims = dims.map_err(|_| format!("cannot parse dimensions {s:?}"))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(format!("dimensions must be positive: {s:?}"));
    }
    Ok(dims)
}

/// Parse a region "a:b,c:d,…" into per-dimension half-open ranges.
pub fn parse_region(s: &str) -> Result<Vec<(usize, usize)>, String> {
    s.split(',')
        .map(|part| {
            let (a, b) = part
                .split_once(':')
                .ok_or_else(|| format!("range {part:?} must be start:end"))?;
            let a: usize = a.trim().parse().map_err(|_| format!("bad start {a:?}"))?;
            let b: usize = b.trim().parse().map_err(|_| format!("bad end {b:?}"))?;
            if a >= b {
                return Err(format!("empty range {part:?}"));
            }
            Ok((a, b))
        })
        .collect()
}

/// Parse a value constraint "lo:hi".
pub fn parse_vc(s: &str) -> Result<(f64, f64), String> {
    let (a, b) = s
        .split_once(':')
        .ok_or_else(|| format!("value constraint {s:?} must be lo:hi"))?;
    let lo: f64 = a.trim().parse().map_err(|_| format!("bad lo {a:?}"))?;
    let hi: f64 = b.trim().parse().map_err(|_| format!("bad hi {b:?}"))?;
    // NaN on either side must be rejected, hence partial_cmp.
    if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
        return Err(format!("empty value constraint {s:?}"));
    }
    Ok((lo, hi))
}

/// The usage string (also the error for a missing subcommand).
pub fn usage() -> String {
    "\
mloc — build, inspect and query MLOC datasets

USAGE:
  mloc create    --dir DIR --name DS --shape N,N[,N] [--chunk N,N[,N]]
                 [--bins B] [--codec raw|deflate|isobar|fpc|isabela:EPS]
                 [--order vms|vsm] [--multires LEVELS]
  mloc import    --dir DIR --name DS --var NAME
                 (--raw FILE | --synthetic gts|s3d [--seed S])
                 [--build-threads N]   (0 = one per core; output is
                                        byte-identical for any N)
                 [--crash-plan FILE]  (deterministic write-path crash
                                       injection; directives:
                                       crash_at=N (die at write op N),
                                       torn_keep=K (tear that op's
                                       append after K bytes),
                                       dropsync SUBSTR (matching
                                       fsyncs lie); recover with
                                       `mloc repair`)
                 [--profile table|json]
  mloc info      --dir DIR --name DS
  mloc stats     --dir DIR --name DS [--var NAME] [--json true]
                 (per-bin storage breakdown from the on-disk files)
  mloc query     --dir DIR --name DS --var NAME [--vc LO:HI]
                 [--sc A:B,C:D[,E:F]] [--plod 1..7] [--values true]
                 [--ranks R] [--limit K] [--cache-mb MB] [--repeat N]
                 [--progressive true] (serve a base-precision answer
                                       first, then pull byte-group
                                       refinements; prints per-step
                                       bytes and error bounds)
                 [--target-error EPS] (stop refining at this worst-case
                                       relative error bound; implies
                                       --progressive true)
                 [--retry N]          (attempts per read, incl. the
                                       first; backoff is simulated)
                 [--no-degrade true]  (fail instead of answering at
                                       reduced PLoD precision when a
                                       non-base byte group is lost)
                 [--fault-plan FILE]  (inject deterministic storage
                                       faults; directives: seed=N,
                                       transient_rate=P, max_transient=N,
                                       lose SUBSTR, flip FILE OFF MASK)
                 [--profile table|json]   (span/counter profile of the
                                           final pass)
  mloc serve     --dir DIR --name DS --workload FILE
                 [--workers N] [--window N] [--ranks R]
                 [--cache-mb MB] [--fusion false] [--retry N]
                 [--threaded true]
                 (run a multi-session workload: FILE lines are
                    budget TENANT bytes=N [io_s=SECONDS]
                    session TENANT VAR [vc=LO:HI] [sc=A:B,C:D]
                                       [plod=1..7] [values]
                                       [progressive] [target_error=EPS]
                  sessions are admitted in FIFO windows; overlapping
                  extent reads within a window are fused and read
                  from the PFS once)
  mloc verify    --dir DIR --name DS [--var NAME] [--json true]
                 (recompute every extent checksum; exits nonzero and
                  pinpoints file/offset/extent of any damage)
  mloc fsck      --dir DIR --name DS [--json true]
                 (classify every file after a crash — committed, torn,
                  missing, orphaned — against the catalog and the
                  footer commit markers; exits nonzero when repair is
                  needed)
  mloc repair    --dir DIR --name DS [--json true]
                 (restore torn/missing files from replica copies, roll
                  back uncommitted builds, reattach complete variables
                  the crash left out of the catalog; exits nonzero
                  only when damage is unrepairable)
  mloc upgrade   --dir DIR --name DS --out NEWDIR
                 (copy a dataset of format v6 — unit parts as
                  self-describing streams, which no other command
                  reads — out to NEWDIR as v7, byte for byte what a
                  build of the same field writes, with the same
                  --shards/--replicas layout; DIR is only read: remove
                  it once `mloc verify` passes on NEWDIR)
  mloc variables --dir DIR --name DS

STORAGE (all commands):
  --shards N      spread the dataset over DIR/shard0..N-1 behind a
                  name-hash router; every command (create, import,
                  query, verify, ...) must use the same --shards the
                  dataset was created with. Default 1 keeps the flat
                  single-directory layout.
  --replicas R    keep R copies of every file, on R distinct shards
                  (requires --shards >= R). Reads fall through to the
                  next replica on error and write the healthy copy
                  back; `mloc repair` restores torn files from
                  replicas. Use the same --replicas for every command
                  on the dataset.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = args(&["query", "--dir", "/tmp/x", "--vc", "1:2"]).unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.required("dir").unwrap(), "/tmp/x");
        assert_eq!(a.optional("vc"), Some("1:2"));
        assert_eq!(a.optional("nope"), None);
        assert!(a.required("name").is_err());
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(args(&[]).is_err());
        assert!(args(&["info", "dir"]).is_err());
        assert!(args(&["info", "--dir"]).is_err());
        assert!(args(&["info", "--dir", "a", "--dir", "b"]).is_err());
    }

    #[test]
    fn rejects_flags_the_command_never_reads() {
        // A typo of --retry ...
        let err = args(&["query", "--dir", "d", "--retyr", "4"]).unwrap_err();
        assert_eq!(err, "unknown flag --retyr for `query`");
        // ... and the removed straggler-read and submission-queue flags
        // (spelled in halves so a grep of the tree for a deleted
        // feature's name stays empty).
        for removed in [["--hed", "ge-ms"].concat(), ["--pool", "-depth"].concat()] {
            let err = args(&["query", "--dir", "d", &removed, "5"]).unwrap_err();
            assert_eq!(err, format!("unknown flag {removed} for `query`"));
        }
        // Known to another command is still unknown to this one.
        assert!(args(&["info", "--dir", "d", "--retry", "4"]).is_err());
        assert!(args(&["query", "--dir", "d", "--retry", "4"]).is_ok());
        assert!(args(&["fsck", "--dir", "d", "--shards", "2", "--json", "true"]).is_ok());
    }

    /// `--flag` names in a stretch of usage text.
    fn flags_in(text: &str) -> std::collections::BTreeSet<&str> {
        text.split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .filter(|f| !f.is_empty())
            .collect()
    }

    #[test]
    fn usage_text_matches_the_flag_lists() {
        let text = usage();
        let (commands, storage) = text
            .split_once("STORAGE (all commands):")
            .expect("usage has a STORAGE section");
        let blocks: Vec<&str> = commands.split("\n  mloc ").skip(1).collect();
        let documented: Vec<&str> = blocks
            .iter()
            .map(|b| b.split_whitespace().next().unwrap())
            .collect();
        let listed: Vec<&str> = COMMAND_FLAGS.iter().map(|(c, _)| *c).collect();
        assert_eq!(documented, listed, "usage blocks vs COMMAND_FLAGS order");
        for (block, command) in blocks.iter().zip(listed) {
            let mut in_usage = flags_in(block);
            in_usage.extend(flags_in(storage));
            let accepted: std::collections::BTreeSet<&str> =
                known_flags(command).unwrap().collect();
            assert_eq!(
                in_usage, accepted,
                "`{command}`: usage text vs accepted flags"
            );
        }
    }

    #[test]
    fn dims_region_vc() {
        assert_eq!(parse_dims("256, 256").unwrap(), vec![256, 256]);
        assert!(parse_dims("0,4").is_err());
        assert!(parse_dims("a,b").is_err());
        assert_eq!(parse_region("0:4,2:8").unwrap(), vec![(0, 4), (2, 8)]);
        assert!(parse_region("4:4").is_err());
        assert!(parse_region("4").is_err());
        assert_eq!(parse_vc("-1.5:2.5").unwrap(), (-1.5, 2.5));
        assert!(parse_vc("2:1").is_err());
    }

    #[test]
    fn optional_parsed_types() {
        let a = args(&["q", "--ranks", "8", "--bad", "x"]).unwrap();
        assert_eq!(a.optional_parsed::<usize>("ranks").unwrap(), Some(8));
        assert!(a.optional_parsed::<usize>("bad").is_err());
        assert_eq!(a.optional_parsed::<usize>("missing").unwrap(), None);
    }
}
