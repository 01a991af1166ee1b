//! Table-driven flag parsing (no external dependencies), shared by every
//! subcommand.
//!
//! Each subcommand is described once by a [`Command`] table (name, summary,
//! positional synopsis, flags with metavars/defaults/help). The same table
//! drives parsing (`--name value` flags, positionals, unknown flags are
//! errors so typos fail fast), the per-subcommand `tq <cmd> --help` output,
//! and the global synopsis.

use std::collections::HashMap;

/// One `--flag VALUE` of a subcommand.
pub struct Flag {
    /// Flag name, without the leading `--`.
    pub name: &'static str,
    /// Metavar / accepted values shown in help, e.g. `"K"` or `"nyt|nyf|bjg"`.
    pub meta: &'static str,
    /// Default shown in help; empty string marks a required flag.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// One subcommand: everything needed to parse it and document it.
pub struct Command {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line summary for the global synopsis.
    pub summary: &'static str,
    /// Positional-argument synopsis, e.g. `"FILE"` (empty when none).
    pub positional: &'static str,
    /// The accepted flags.
    pub flags: &'static [Flag],
}

impl Command {
    /// Parses `raw` against this command's flag table. Returns `Ok(None)`
    /// when `--help`/`-h` was requested (the caller prints [`Command::usage`]).
    pub fn parse(&self, raw: Vec<String>) -> Result<Option<Args>, ArgError> {
        let mut out = Args::default();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return Ok(None);
            }
            if let Some(name) = a.strip_prefix("--") {
                if !self.flags.iter().any(|f| f.name == name) {
                    return Err(ArgError::Unknown(name.to_string()));
                }
                let value = it.next().ok_or_else(|| ArgError::MissingValue(name.into()))?;
                out.flags.insert(name.to_string(), value);
            } else {
                out.positional.push(a);
            }
        }
        Ok(Some(out))
    }

    /// The full `tq <cmd> --help` text: synopsis plus one line per flag.
    pub fn usage(&self) -> String {
        let mut s = format!("tq {} — {}\n\nUSAGE: tq {}", self.name, self.summary, self.name);
        if !self.positional.is_empty() {
            s.push(' ');
            s.push_str(self.positional);
        }
        if !self.flags.is_empty() {
            s.push_str(" [flags]\n\nFLAGS\n");
            let width = self
                .flags
                .iter()
                .map(|f| f.name.len() + f.meta.len())
                .max()
                .unwrap_or(0);
            for f in self.flags {
                let head = format!("--{} {}", f.name, f.meta);
                let default = if f.default.is_empty() {
                    "(required)".to_string()
                } else {
                    format!("[default: {}]", f.default)
                };
                s.push_str(&format!(
                    "  {head:<w$}  {}  {default}\n",
                    f.help,
                    w = width + 4
                ));
            }
        } else {
            s.push('\n');
        }
        s
    }
}

/// The global `tq --help` synopsis generated from the command tables.
pub fn global_usage(commands: &[&Command]) -> String {
    let mut s = String::from(
        "tq — trajectory coverage queries (kMaxRRST / MaxkCovRST over a TQ-tree)\n\n\
         USAGE: tq <command> [args]   (tq <command> --help for per-command flags)\n\n\
         COMMANDS\n",
    );
    let width = commands.iter().map(|c| c.name.len()).max().unwrap_or(0);
    for c in commands {
        s.push_str(&format!("  {:<w$}  {}\n", c.name, c.summary, w = width));
    }
    s.push_str(
        "  help         this text\n\n\
         Evaluation fans out across --threads worker threads (0 = one per core,\n\
         the default); results are identical at any thread count. To serve\n\
         concurrent clients, `tq save` a store and run `tqd` over it.\n\
         See docs/GUIDE.md for worked examples of every command.\n",
    );
    s
}

/// Parsed command-line arguments: positionals plus `--key value` flags.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// Argument parsing errors.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` had no following value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value.
        value: String,
        /// Expected type, for the message.
        expected: &'static str,
    },
    /// A flag is not recognized by the subcommand.
    Unknown(String),
    /// A required flag is absent.
    Required(&'static str),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag}: {value:?} is not a valid {expected}"),
            ArgError::Unknown(flag) => write!(f, "unknown flag --{flag}"),
            ArgError::Required(flag) => write!(f, "--{flag} is required"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A required string flag.
    pub fn required(&self, flag: &'static str) -> Result<&str, ArgError> {
        self.get(flag).ok_or(ArgError::Required(flag))
    }

    /// A typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    const CMD: Command = Command {
        name: "test",
        summary: "a test command",
        positional: "FILE",
        flags: &[
            Flag { name: "k", meta: "K", default: "8", help: "result count" },
            Flag { name: "psi", meta: "METRES", default: "200", help: "service radius" },
            Flag { name: "out", meta: "FILE", default: "", help: "output path" },
        ],
    };

    #[test]
    fn parses_flags_and_positionals() {
        let a = CMD
            .parse(v(&["--k", "8", "file.tqd", "--psi", "200"]))
            .unwrap()
            .unwrap();
        assert_eq!(a.positional(), &["file.tqd".to_string()]);
        assert_eq!(a.get("k"), Some("8"));
        assert_eq!(a.get_or("k", 0usize, "integer").unwrap(), 8);
        assert_eq!(a.get_or("psi", 0.0f64, "number").unwrap(), 200.0);
        assert_eq!(a.get_or("missing", 7u32, "integer").unwrap(), 7);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(
            CMD.parse(v(&["--oops", "1"])),
            Err(ArgError::Unknown("oops".into()))
        );
    }

    #[test]
    fn missing_value_detected() {
        assert_eq!(
            CMD.parse(v(&["--k"])),
            Err(ArgError::MissingValue("k".into()))
        );
    }

    #[test]
    fn bad_typed_value() {
        let a = CMD.parse(v(&["--k", "eight"])).unwrap().unwrap();
        assert!(matches!(
            a.get_or("k", 0usize, "integer"),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn required_flag() {
        let a = CMD.parse(v(&[])).unwrap().unwrap();
        assert_eq!(a.required("out"), Err(ArgError::Required("out")));
    }

    #[test]
    fn help_flag_short_circuits() {
        assert_eq!(CMD.parse(v(&["--k", "8", "--help"])).unwrap(), None);
        assert_eq!(CMD.parse(v(&["-h"])).unwrap(), None);
    }

    #[test]
    fn usage_lists_every_flag_with_default_or_required() {
        let u = CMD.usage();
        assert!(u.contains("tq test"), "{u}");
        assert!(u.contains("--k K"), "{u}");
        assert!(u.contains("[default: 200]"), "{u}");
        assert!(u.contains("(required)"), "{u}");
    }

    #[test]
    fn global_usage_lists_commands() {
        let g = global_usage(&[&CMD]);
        assert!(g.contains("test"), "{g}");
        assert!(g.contains("a test command"), "{g}");
    }
}
