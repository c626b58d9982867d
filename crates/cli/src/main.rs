//! Thin binary shim over [`secflow_cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, obs) = match secflow_cli::parse_args_with_obs(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", secflow_cli::USAGE);
            std::process::exit(2);
        }
    };
    // Buffered, and flushed by `run_with_obs` before it returns: `exit`
    // runs no destructors. Not a `StdoutLock`, which is not `Send`; the
    // stream path writes from its worker threads.
    let mut stdout = std::io::BufWriter::new(std::io::stdout());
    let (stderr, code) = secflow_cli::run_with_obs(&cmd, &obs, &mut stdout);
    eprint!("{stderr}");
    std::process::exit(code);
}
