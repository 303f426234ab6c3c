//! `mloc` — command-line front end for MLOC datasets stored in a
//! directory. See `args::usage()` for the command reference.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

#[macro_use]
mod output;
mod args;
mod commands;

use args::Args;
use output::Output;

fn main() {
    let argv = std::env::args().skip(1);
    let mut stdout = std::io::stdout();
    let exit = match Args::parse(argv) {
        Ok(a) => match commands::dispatch(&a, &mut Output::new(&mut stdout)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("{}", args::usage());
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(exit);
}
