//! `--json true` output is JSON even for names Rust's `{:?}` would
//! escape in its own syntax (`\u{7f}`), which no JSON parser accepts.

use std::process::Command;

/// Run `mloc` and return (exit ok, stdout).
fn mloc(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mloc"))
        .args(args)
        .output()
        .expect("mloc runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout)
}

#[test]
fn control_characters_in_names_leave_as_json_escapes() {
    let dir = std::env::temp_dir().join(format!("mloc-cli-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    // Variable names are held to [A-Za-z0-9_@-] at import, so the
    // dataset name is how such a character reaches a report: every
    // file name starts with it.
    let name = "d\u{7f}s";
    let base = ["--dir", dir_s, "--name", name];
    let with = |head: &str, tail: &[&str]| -> (bool, String) {
        let args: Vec<&str> = [head].iter().chain(&base).chain(tail).copied().collect();
        mloc(&args)
    };
    assert!(
        with(
            "create",
            &["--shape", "32,32", "--chunk", "8,8", "--bins", "4"]
        )
        .0
    );
    assert!(with("import", &["--var", "t", "--synthetic", "gts"]).0);
    // Damage one bin file's data — its last unit byte, just ahead of
    // the 12-byte end marker — so the reports have a file name to carry.
    let bin_file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_str().unwrap().ends_with(".bin"))
        .expect("the variable has a bin file");
    let mut bytes = std::fs::read(&bin_file).unwrap();
    let last = bytes.len() - 13;
    bytes[last] ^= 0xFF;
    std::fs::write(&bin_file, bytes).unwrap();
    for (command, exits_ok, names_files) in [
        ("stats", true, false),
        ("verify", false, true),
        ("fsck", false, true),
        ("repair", false, true),
    ] {
        let (ok, json) = with(command, &["--json", "true"]);
        assert_eq!(ok, exits_ok, "{command}: {json}");
        assert!(json.starts_with('{'), "{command}: {json}");
        assert!(!json.contains("\\u{"), "{command}: Rust escape in {json}");
        assert!(!json.contains('\u{7f}'), "{command}: raw DEL in {json}");
        assert_eq!(
            json.contains("d\\u007fs/"),
            names_files,
            "{command}: name in {json}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `stats`' `summary_bytes` is the chunk-summary section alone, in
/// every store `stats` reads: the checked-in v6 dataset once `mloc
/// upgrade` has copied it out, and a fresh build of the same geometry
/// (16 chunks), report 8 + 13 × 16 bytes per bin (each record holds the
/// chunk's count since format v5, in the meta since v6), 8 × that in
/// all.
/// Un-upgraded, the v6 dataset is refused with the error naming `mloc
/// upgrade`.
#[test]
fn summary_bytes_mean_the_chunk_summaries_in_every_version() {
    let summaries = |json: &str| -> Vec<String> {
        json.split("\"summary_bytes\":")
            .skip(1)
            .map(|s| s.chars().take_while(char::is_ascii_digit).collect())
            .collect()
    };
    let want: Vec<&str> = [&["1728"][..], &["216"; 8]].concat();
    let dir = std::env::temp_dir().join(format!("mloc-cli-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let v6 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/v6_dataset");
    let stats = |dir: &str| mloc(&["stats", "--dir", dir, "--name", "fmt", "--json", "true"]);
    let refused = Command::new(env!("CARGO_BIN_EXE_mloc"))
        .args(["stats", "--dir", v6, "--name", "fmt"])
        .output()
        .unwrap();
    let stderr = String::from_utf8(refused.stderr).unwrap();
    assert!(
        !refused.status.success() && stderr.contains("`mloc upgrade"),
        "{stderr}"
    );
    let upgraded = dir.join("v6");
    let upgraded = upgraded.to_str().unwrap();
    let (ok, text) = mloc(&["upgrade", "--dir", v6, "--name", "fmt", "--out", upgraded]);
    assert!(ok, "{text}");
    let (ok, json) = stats(upgraded);
    assert!(ok, "{json}");
    assert_eq!(summaries(&json), want, "upgraded v6: {json}");

    let base = ["--dir", dir_s, "--name", "ds"];
    let geometry = ["--shape", "64,64", "--chunk", "16,16", "--bins", "8"];
    assert!(mloc(&[&["create"][..], &base, &geometry].concat()).0);
    assert!(
        mloc(
            &[
                &["import"][..],
                &base,
                &["--var", "t", "--synthetic", "gts"]
            ]
            .concat()
        )
        .0
    );
    let (ok, json) = mloc(&[&["stats"][..], &base, &["--json", "true"]].concat());
    assert!(ok, "{json}");
    assert_eq!(summaries(&json), want, "v3: {json}");
    std::fs::remove_dir_all(&dir).unwrap();
}
