//! `ibsim`: every experiment of the paper, and the tools around them,
//! as subcommands of one binary — `ibsim help` lists them.
//!
//! The one place a refused command line is printed: exit 2 for an
//! [`ArgError`] (nothing has run), exit 1 for a job that fails.

use ibsim::cli::{self, ArgError};
use std::process::exit;

fn main() {
    let argv = std::env::args_os()
        .skip(1)
        .map(|a| {
            a.into_string()
                .map_err(|a| ArgError::new("argument", a.to_string_lossy(), "is not UTF-8"))
        })
        .collect::<Result<Vec<String>, ArgError>>();
    match argv.and_then(|argv| cli::parse(&argv)) {
        Err(e) => {
            eprintln!("error: {e}");
            exit(2)
        }
        Ok(job) => {
            if let Err(e) = job() {
                eprintln!("error: {e}");
                exit(1)
            }
        }
    }
}
