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
    // Damage one data file, so the reports have a file name to carry.
    let data_file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_str().unwrap().ends_with(".dat"))
        .expect("the variable has a data file");
    let mut bytes = std::fs::read(&data_file).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&data_file, bytes).unwrap();
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
