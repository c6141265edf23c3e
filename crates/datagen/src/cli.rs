//! The command-line grammar every binary of the workspace shares.
//!
//! [`Cli`] walks the process's arguments and owns the whole policy, so no
//! binary states it again:
//!
//! * `--help` / `-h` prints the usage to stdout and exits 0;
//! * an unknown flag, a missing value, an unparsable value or a 0 for a
//!   count prints one line naming the flag, then the usage, to stderr and
//!   exits 2;
//! * positionals pass through to the binary;
//! * a scenario is `--profile NAME | --config FILE`, resolved by
//!   `profiles::load` alone.
//!
//! ```no_run
//! use com_datagen::Cli;
//!
//! let mut cli = Cli::new("tool", "usage: tool [--profile NAME | --config FILE] [--seed N]")
//!     .with_scenario("quick");
//! let mut seed: u64 = 42;
//! while let Some(arg) = cli.next() {
//!     match arg.as_str() {
//!         "--seed" => seed = cli.parse(),
//!         _ => cli.unknown(&arg),
//!     }
//! }
//! let scenario = cli.scenario();
//! # let _ = (seed, scenario);
//! ```

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use crate::profiles;
use crate::scenario::ScenarioConfig;

/// An argument walker for one binary: its name (the prefix of every error
/// line), its usage text and the arguments still to read.
pub struct Cli {
    name: &'static str,
    usage: String,
    argv: std::vec::IntoIter<String>,
    /// The last token the walker returned: the flag a value belongs to.
    flag: String,
    /// `--profile`'s token and `--config`'s file, for a binary that takes
    /// a scenario.
    scenario: Option<(String, Option<PathBuf>)>,
}

impl Cli {
    /// The process's arguments, for the binary `name` with `usage`.
    pub fn new(name: &'static str, usage: impl Into<String>) -> Self {
        Cli::from_args(name, usage, std::env::args().skip(1))
    }

    fn from_args(
        name: &'static str,
        usage: impl Into<String>,
        args: impl IntoIterator<Item = String>,
    ) -> Self {
        Cli {
            name,
            usage: usage.into(),
            argv: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
            scenario: None,
        }
    }

    /// Take `--profile NAME | --config FILE` as this binary's scenario,
    /// `default_profile` when neither is given.
    pub fn with_scenario(mut self, default_profile: &str) -> Self {
        self.scenario = Some((default_profile.into(), None));
        self
    }

    /// The next flag or positional; `None` once all are read. `--help`
    /// exits here, and so do the scenario flags' errors.
    // An inherent `next`, not `Iterator`: the walker is no iterator to
    // `count` or `collect`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<String> {
        loop {
            self.flag = self.argv.next()?;
            match self.flag.as_str() {
                "--help" | "-h" => {
                    println!("{}", self.usage);
                    std::process::exit(0)
                }
                "--profile" | "--config" if self.scenario.is_some() => {
                    let value = self.value();
                    let (profile, config) = self.scenario.as_mut().expect("checked above");
                    if self.flag == "--profile" {
                        *profile = value;
                    } else {
                        *config = Some(value.into());
                    }
                }
                _ => return Some(self.flag.clone()),
            }
        }
    }

    /// The value after the current flag.
    pub fn value(&mut self) -> String {
        match self.argv.next() {
            Some(value) => value,
            None => self.usage_error(format!("{} needs a value", self.flag)),
        }
    }

    /// The value after the current flag, through `parse`.
    pub fn parse_with<T, E: Display>(&mut self, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let value = self.value();
        parse(&value).unwrap_or_else(|e| self.usage_error(format!("{} `{value}`: {e}", self.flag)))
    }

    /// The value after the current flag, parsed as a `T`.
    pub fn parse<T: FromStr<Err: Display>>(&mut self) -> T {
        self.parse_with(str::parse)
    }

    /// The value after the current flag as a count: a positive integer.
    pub fn count(&mut self) -> usize {
        self.parse_with(|value| match value.parse() {
            Ok(0) => Err("must be positive".to_string()),
            parsed => parsed.map_err(|e: std::num::ParseIntError| e.to_string()),
        })
    }

    /// Refuse a token no arm of the binary took.
    pub fn unknown(&self, arg: &str) -> ! {
        if arg.starts_with('-') {
            self.usage_error(format!("unknown flag `{arg}`"))
        } else {
            self.usage_error(format!("unexpected argument `{arg}`"))
        }
    }

    /// Refuse the command line: one line, then the usage, exit 2.
    pub fn usage_error(&self, message: impl Display) -> ! {
        eprintln!("{}: {message}\n{}", self.name, self.usage);
        std::process::exit(2)
    }

    /// Refuse an input the command line named (a file, a profile): one
    /// line, exit 2.
    pub fn fail(&self, message: impl Display) -> ! {
        eprintln!("{}: {message}", self.name);
        std::process::exit(2)
    }

    /// How the scenario was named: the `--config` file, else the profile.
    pub fn scenario_name(&self) -> String {
        match self.scenario.as_ref().expect("Cli::with_scenario") {
            (_, Some(config)) => config.display().to_string(),
            (profile, None) => profile.clone(),
        }
    }

    /// The scenario, through `profiles::load`; [`Cli::fail`] when it
    /// names an unknown profile or an unreadable or malformed file.
    pub fn scenario(&self) -> ScenarioConfig {
        let (profile, config) = self.scenario.as_ref().expect("Cli::with_scenario");
        profiles::load(config.as_deref(), profile).unwrap_or_else(|e| self.fail(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walker(args: &[&str]) -> Cli {
        Cli::from_args("test", "usage: test", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_values_and_positionals_come_in_order() {
        let mut cli = walker(&["run", "--seed", "7", "--window", "64", "--name", "x"]);
        assert_eq!(cli.next().as_deref(), Some("run"));
        assert_eq!(cli.next().as_deref(), Some("--seed"));
        assert_eq!(cli.parse::<u64>(), 7);
        assert_eq!(cli.next().as_deref(), Some("--window"));
        assert_eq!(cli.count(), 64);
        assert_eq!(cli.next().as_deref(), Some("--name"));
        assert_eq!(cli.value(), "x");
        assert_eq!(cli.next(), None);
    }

    #[test]
    fn the_scenario_flags_are_taken_by_the_walker() {
        let mut cli = walker(&["--profile", "xian-nov", "--once"]).with_scenario("quick");
        assert_eq!(cli.next().as_deref(), Some("--once"));
        assert_eq!(cli.next(), None);
        assert_eq!(cli.scenario_name(), "xian-nov");
        assert_eq!(cli.scenario(), profiles::xian_nov());

        let mut cli = walker(&["--config", "s.json"]).with_scenario("quick");
        assert_eq!(cli.next(), None);
        assert_eq!(cli.scenario_name(), "s.json");
    }

    #[test]
    fn without_a_scenario_the_flags_pass_through() {
        let mut cli = walker(&["--profile"]);
        assert_eq!(cli.next().as_deref(), Some("--profile"));
    }
}
