//! Minimal command-line parsing shared by the harness binaries.
//!
//! The simulation harnesses accept:
//! `--scale=<f64>` mesh-size scale, `--steps=<n>` time steps,
//! `--ranks=<a,b,c>` rank counts, `--picard=<n>` Picard iterations.
//! The others take no argument ([`reject_arguments`]). A malformed or
//! unknown argument prints `<program>: <argument>: <reason>` and exits 2.

use std::io::Write;

/// Parsed harness options with experiment-specific defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessArgs {
    /// Mesh node-count scale relative to the paper's meshes.
    pub scale: f64,
    /// Time steps per run (the paper uses 50; defaults are smaller so
    /// harness runs finish in seconds).
    pub steps: usize,
    /// Rank counts to sweep.
    pub ranks: Vec<usize>,
    /// Picard iterations per step.
    pub picard: usize,
}

const USAGE: &str = "options: --scale=<f64> --steps=<n> --ranks=<a,b,c> --picard=<n>";

impl HarnessArgs {
    /// Parse `std::env::args`, falling back to the given defaults; a bad
    /// argument exits 2 with the argument named, `--help` exits 0.
    pub fn parse(default_scale: f64, default_steps: usize, default_ranks: &[usize]) -> Self {
        let defaults = HarnessArgs {
            scale: default_scale,
            steps: default_steps,
            ranks: default_ranks.to_vec(),
            picard: 4,
        };
        match defaults.with_args(std::env::args().skip(1)) {
            Ok(Some(args)) => args,
            Ok(None) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(e) => exit_usage(&e),
        }
    }

    /// Apply `args` over these defaults: `Ok(None)` on `--help`, `Err`
    /// naming the first malformed or unknown argument.
    fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Result<Option<Self>, String> {
        fn number<T: std::str::FromStr>(arg: &str, v: &str, what: &str) -> Result<T, String> {
            v.trim().parse().map_err(|_| format!("{arg}: not {what}"))
        }
        for arg in args {
            if let Some(v) = arg.strip_prefix("--scale=") {
                self.scale = number(&arg, v, "a number")?;
                if !(self.scale.is_finite() && self.scale > 0.0) {
                    return Err(format!("{arg}: not a positive scale"));
                }
            } else if let Some(v) = arg.strip_prefix("--steps=") {
                self.steps = number(&arg, v, "a step count")?;
            } else if let Some(v) = arg.strip_prefix("--picard=") {
                self.picard = number(&arg, v, "an iteration count")?;
            } else if let Some(v) = arg.strip_prefix("--ranks=") {
                self.ranks = v
                    .split(',')
                    .map(|s| match number(&arg, s, "a list of rank counts")? {
                        0 => Err(format!("{arg}: a rank count is at least 1")),
                        n => Ok(n),
                    })
                    .collect::<Result<_, _>>()?;
            } else if arg == "--help" || arg == "-h" {
                return Ok(None);
            } else {
                return Err(format!("{arg}: unknown argument ({USAGE})"));
            }
        }
        Ok(Some(self))
    }
}

/// For the harness binaries without options: exit 2 naming the first
/// argument, if there is one.
pub fn reject_arguments() {
    if let Some(arg) = std::env::args().nth(1) {
        exit_usage(&format!("{arg}: takes no arguments"));
    }
}

/// Print `<program>: <message>` in one write and exit 2.
fn exit_usage(message: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    let program = program.rsplit('/').next().unwrap_or_default();
    let line = format!("{program}: {message}\n");
    let _ = std::io::stderr().write_all(line.as_bytes());
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> HarnessArgs {
        HarnessArgs { scale: 1e-3, steps: 2, ranks: vec![1, 2], picard: 4 }
    }

    fn parse(args: &[&str]) -> Result<Option<HarnessArgs>, String> {
        defaults().with_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_pass_through_and_options_override() {
        assert_eq!(parse(&[]), Ok(Some(defaults())));
        let got = parse(&["--scale=2e-4", "--steps=3", "--ranks=1, 4", "--picard=2"]);
        let want = HarnessArgs { scale: 2e-4, steps: 3, ranks: vec![1, 4], picard: 2 };
        assert_eq!(got, Ok(Some(want)));
        assert_eq!(parse(&["--help"]), Ok(None));
    }

    #[test]
    fn a_bad_argument_is_named_not_a_panic() {
        for (arg, reason) in [
            ("--scale=abc", "not a number"),
            ("--scale=-1", "not a positive scale"),
            ("--steps=1.5", "not a step count"),
            ("--ranks=2,x", "not a list of rank counts"),
            ("--ranks=0", "a rank count is at least 1"),
            ("--sclae=1e-3", "unknown argument"),
        ] {
            let e = parse(&["--steps=1", arg]).expect_err(arg);
            assert!(e.starts_with(&format!("{arg}: {reason}")), "{e}");
        }
    }
}
