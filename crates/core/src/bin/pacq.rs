//! `pacq` — command-line front end to the simulator. See
//! [`pacq::cli::USAGE`] or run `pacq help`.

use pacq::{PacqError, PacqResult};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pacq::cli::run(&args).and_then(|output| write_stdout(&output)) {
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

/// Writes a command's output. A reader that closed the pipe early
/// (`pacq dse … | head -1`) has all it asked for, so a broken pipe is
/// a quiet success; any other write failure is an I/O error (exit 6).
fn write_stdout(output: &str) -> PacqResult<()> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(output.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(PacqError::Io {
            context: "pacq stdout",
            message: e.to_string(),
        }),
        _ => Ok(()),
    }
}
