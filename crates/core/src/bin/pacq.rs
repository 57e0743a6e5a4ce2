//! `pacq` — command-line front end to the simulator. See
//! [`pacq::cli::USAGE`] or run `pacq help`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pacq::cli::run(&args).and_then(|output| pacq::cli::write_stdout(&output)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One diagnostic line, never a backtrace; the exit code
            // encodes the error class (see DESIGN.md §10).
            eprintln!("error: {e}");
            if e.is_usage() {
                eprintln!();
                eprintln!("{}", pacq::cli::USAGE);
            }
            ExitCode::from(e.exit_code())
        }
    }
}
