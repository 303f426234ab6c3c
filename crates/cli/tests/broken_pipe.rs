//! A reader that leaves early (`mloc stats ... | head -3`) ends the
//! output, not the command: `mloc` exits 0 with nothing on stderr.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, ExitStatus, Stdio};

/// Run `mloc`, read the first line it prints, close the pipe, and
/// return its exit status, that line, and its stderr.
fn first_line_then_close(args: &[String]) -> (ExitStatus, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mloc"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mloc runs");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    // The reader goes out of scope here: the pipe is closed.
    BufReader::new(stdout).read_line(&mut first).unwrap();
    let mut stderr = String::new();
    let mut err_pipe = child.stderr.take().expect("piped stderr");
    err_pipe.read_to_string(&mut stderr).unwrap();
    (child.wait().unwrap(), first, stderr)
}

/// Both commands print far more than a pipe holds (a row for each of
/// 1,500 bins; 16,384 positions), so they are still writing when the
/// reader leaves after one line.
#[test]
fn a_reader_that_leaves_early_ends_the_output_not_the_command() {
    let dir = std::env::temp_dir().join(format!("mloc-cli-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let args = |command: &str, tail: &[&str]| -> Vec<String> {
        let all = [command, "--dir", dir_s, "--name", "ds"].into_iter();
        all.chain(tail.iter().copied()).map(String::from).collect()
    };
    let mloc = |args: Vec<String>| {
        let out = Command::new(env!("CARGO_BIN_EXE_mloc"))
            .args(&args)
            .output();
        out.expect("mloc runs").status.success()
    };
    let shape = ["--shape", "128,128", "--chunk", "64,64", "--bins", "1500"];
    assert!(mloc(args("create", &shape)));
    assert!(mloc(args("import", &["--var", "t", "--synthetic", "gts"])));

    let query = ["--var", "t", "--sc", "0:128,0:128", "--limit", "100000"];
    for (command, tail) in [("stats", &[][..]), ("query", &query[..])] {
        let (status, first, stderr) = first_line_then_close(&args(command, tail));
        assert!(!first.is_empty(), "{command}: no output");
        assert!(status.success(), "{command}: {status}, stderr {stderr}");
        assert!(stderr.is_empty(), "{command}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
