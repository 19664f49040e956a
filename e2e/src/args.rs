//! The command line both binaries take.

use bargain_common::ConsistencyMode;

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload <name>`; empty when not given.
    pub workload: String,
    /// `--seed <n>`: seeds the generators, and nothing else.
    pub seed: u64,
    /// `--seconds <n>`: total measured time, split over the rounds.
    pub seconds: u64,
    /// `--trace <0|1>`: 1 asks for the per-layer metrics (`e2e_trace`).
    pub trace: bool,
    /// `--aa <n>`: run the A/A self-check with two sets of `n` runs.
    pub aa: Option<usize>,
    /// `--mode <lazy-fine|session>`: the cluster's consistency mode.
    /// `session` exists to show by hand that the hidden-channel check can
    /// fail; nothing gated uses it.
    pub mode: ConsistencyMode,
}

/// What `--help` and a bad command line print.
pub const USAGE: &str = "usage: --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>] \
                         [--mode <lazy-fine|session>] | --aa <n> [--seconds <n>]";

/// Parses the arguments after the program name.
pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 12,
        trace: false,
        aa: None,
        mode: ConsistencyMode::LazyFine,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--aa" => args.aa = Some(number(value()?)? as usize),
            "--mode" => {
                args.mode = match value()?.as_str() {
                    "lazy-fine" => ConsistencyMode::LazyFine,
                    "session" => ConsistencyMode::Session,
                    other => return Err(format!("--mode: unknown mode {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}
