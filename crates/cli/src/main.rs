//! `webmon` — the command-line front end of the Web Monitoring 2.0
//! reproduction. Run `webmon help` for usage.

use webmon_cli::args::{Args, Command};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().and_then(|c| Command::find(c));
    match Args::parse(argv).and_then(|args| webmon_cli::commands::dispatch(&args)) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            match command {
                Some(c) if c.name != "help" => {
                    eprintln!("see `webmon {} --help` for its options", c.name)
                }
                _ => eprintln!("see `webmon help` for the commands and their options"),
            }
            std::process::exit(2);
        }
    }
}
