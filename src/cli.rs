//! Shared CLI plumbing for the `fastmm` subcommands.
//!
//! `fastmm` is a table of [`Command`]s, one per subcommand and per verb
//! (`serve`, `bench run`, `sweep diff`, …), and [`run`] is the one path
//! every invocation takes: look up the command, parse its flags into an
//! [`Args`] (unknown flags fail loudly), turn on full telemetry under
//! `--metrics`, run it, and write the metrics. Usage errors are reported
//! the same way everywhere: one line on stderr, the command's usage text,
//! exit status 2.
//!
//! Exit-2 semantics are deliberate: status 2 means "the command line was
//! wrong", distinct from status 1 ("the command ran and its invariants
//! failed"). CI scripts lean on the distinction.

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::str::FromStr;

/// One `fastmm` subcommand or verb.
pub struct Command {
    /// `"kernel"`, or `"<group> <verb>"` such as `"bench run"`.
    pub name: &'static str,
    /// The `--flags` it accepts besides the global `--metrics`, in the
    /// order an unknown-flag error lists them.
    pub flags: &'static [&'static str],
    /// Whether it takes one positional argument.
    pub positional: bool,
    /// Printed, as written, after every usage error.
    pub usage: &'static str,
    /// Runs the command; its exit code is the process's.
    pub run: fn(&Args) -> ExitCode,
}

impl Command {
    /// A command that takes flags only.
    pub const fn new(
        name: &'static str,
        flags: &'static [&'static str],
        usage: &'static str,
        run: fn(&Args) -> ExitCode,
    ) -> Command {
        Command {
            name,
            flags,
            positional: false,
            usage,
            run,
        }
    }
}

/// The `fastmm` entry point: dispatch `argv` (without the program name)
/// to its entry in `table`.
pub fn run(table: &[Command], argv: &[String]) -> ExitCode {
    exit_quietly_on_closed_pipe();
    let mut groups: Vec<&str> = table.iter().map(|c| group(c.name)).collect();
    groups.dedup();
    let usage = format!(
        "usage: fastmm <{}> [flags]
       global flags: --metrics <path.jsonl>  (collect full telemetry, write JSONL on exit)",
        groups.join("|")
    );
    let Some(first) = argv.first() else {
        die("missing command", &usage);
    };
    let verbs: Vec<&Command> = table.iter().filter(|c| group(c.name) == first).collect();
    let (cmd, rest) = match verbs[..] {
        [] => die(&format!("unknown command '{first}'"), &usage),
        [cmd] if cmd.name == first => (cmd, &argv[1..]),
        _ => {
            let usage: Vec<&str> = verbs.iter().map(|c| c.usage).collect();
            let usage = usage.join("\n");
            let Some(verb) = argv.get(1) else {
                die(&format!("missing {first} verb"), &usage);
            };
            let name = format!("{first} {verb}");
            match verbs.iter().find(|c| c.name == name) {
                Some(cmd) => (*cmd, &argv[2..]),
                None => die(&format!("unknown {first} verb '{verb}'"), &usage),
            }
        }
    };
    let args = Args::parse(cmd, rest);
    let metrics = args.path("metrics");
    if metrics.is_some() {
        fmm_obs::set_level(fmm_obs::Level::Full);
    }
    let code = (cmd.run)(&args);
    let Some(path) = metrics else {
        return code;
    };
    // `parse` validated the path up front, so this only fails if the
    // destination vanished mid-run.
    match std::fs::write(path, fmm_obs::global().to_jsonl()) {
        Ok(()) => {
            eprintln!("metrics written to {path}");
            code
        }
        Err(e) => {
            eprintln!("cannot write metrics to '{path}': {e}");
            ExitCode::from(2)
        }
    }
}

/// Exit status for a process whose reader went away: 128 + SIGPIPE, what
/// a shell reports for a writer that signal ended.
const CLOSED_PIPE: i32 = 141;

/// Make a closed stdout or stderr end the process quietly, as a pipeline
/// expects (`fastmm tables --all | head -1`). std's print macros panic
/// when the pipe is gone; this hook turns that one panic into exit
/// status [`CLOSED_PIPE`], with no message and no backtrace. Every other
/// panic reaches the hook that was there before.
fn exit_quietly_on_closed_pipe() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = fmm_faults::cancel::panic_message(info.payload());
        if message.starts_with("failed printing to std") && message.contains("Broken pipe") {
            std::process::exit(CLOSED_PIPE);
        }
        previous(info);
    }));
}

/// `"bench"` for `"bench run"`; a plain command is its own group.
fn group(name: &str) -> &str {
    name.split_once(' ').map_or(name, |(group, _)| group)
}

/// One-line error + usage text, then exit 2. Never returns.
fn die(message: &str, usage: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// One command's parsed `--flag [value]` pairs (plus, for a command that
/// takes one, its positional argument). Every accessor that rejects a
/// value exits 2 through [`Args::die`].
pub struct Args {
    command: &'static str,
    usage: &'static str,
    /// `None` for a flag given without a value.
    flags: HashMap<String, Option<String>>,
    positional: Option<String>,
}

impl Args {
    /// Parse `args` for `cmd`, rejecting any flag not in its list — a
    /// misspelled flag must fail loudly, not silently run with defaults —
    /// and any positional argument unless it takes one.
    ///
    /// The global `--metrics <path>` flag is always accepted; its path is
    /// validated up front (fail fast on an unwritable destination instead
    /// of running the whole command and losing the telemetry at exit).
    pub fn parse(cmd: &Command, args: &[String]) -> Args {
        let mut parsed = Args {
            command: cmd.name,
            usage: cmd.usage,
            flags: HashMap::new(),
            positional: None,
        };
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                if cmd.positional && parsed.positional.is_none() {
                    parsed.positional = Some(a.clone());
                    continue;
                }
                parsed.die(&format!("unexpected argument '{a}'"));
            };
            if name != "metrics" && !cmd.flags.contains(&name) {
                let expected: Vec<String> = std::iter::once("--metrics".to_string())
                    .chain(cmd.flags.iter().map(|f| format!("--{f}")))
                    .collect();
                parsed.die(&format!(
                    "unknown flag '--{name}' (expected one of: {})",
                    expected.join(", ")
                ));
            }
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            parsed.flags.insert(name.to_string(), value);
        }
        if let Some(path) = parsed.path("metrics") {
            // Append mode so the probe never clobbers an existing file.
            if let Err(e) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                parsed.die(&format!("cannot open metrics path '{path}': {e}"));
            }
        }
        parsed
    }

    /// The command these arguments belong to, e.g. `"sweep run"`.
    pub fn command(&self) -> &'static str {
        self.command
    }

    /// One-line error + this command's usage, then exit 2.
    pub fn die(&self, message: &str) -> ! {
        die(message, self.usage)
    }

    /// Whether `--key` was given at all (a boolean flag).
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// The raw value of `--key`; a flag given bare reads as `"true"`.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|v| v.as_deref().unwrap_or("true"))
    }

    /// `--key <path>`; exits 2 when the flag is given without a value.
    pub fn path(&self, key: &str) -> Option<&str> {
        match self.flags.get(key) {
            Some(None) => self.die(&format!("--{key} expects a file path")),
            Some(Some(v)) => Some(v),
            None => None,
        }
    }

    /// Every flag given, but `--metrics`, as the params map a job
    /// request carries (a bare flag reads as `"true"`).
    pub fn params(&self) -> BTreeMap<String, String> {
        let keys = self.flags.keys().filter(|key| *key != "metrics");
        keys.map(|key| (key.clone(), self.str(key).unwrap_or_default().into()))
            .collect()
    }

    /// The positional argument, for the one command that takes it.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// `--key` through `parse`; exits 2 with "--key expects `expected`"
    /// when `parse` rejects the value.
    pub fn opt_with<T>(
        &self,
        key: &str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let v = self.str(key)?;
        Some(
            parse(v).unwrap_or_else(|| self.die(&format!("--{key} expects {expected}, got '{v}'"))),
        )
    }

    /// `--key <value>` if given; exits 2 on a value `T` cannot parse.
    pub fn opt<T: FromStr>(&self, key: &str) -> Option<T> {
        self.opt_with(key, "a number", |v| v.parse().ok())
    }

    /// `--key <value>` with a default; exits 2 on an unparsable value.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// A flag the command cannot run without; exits 2 when absent.
    pub fn req<T: FromStr>(&self, key: &str) -> T {
        self.opt(key)
            .unwrap_or_else(|| self.die(&format!("{} requires --{key}", self.command)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str], flags: &'static [&'static str]) -> Args {
        let cmd = Command {
            name: "test",
            flags,
            positional: false,
            usage: "usage",
            run: |_| ExitCode::SUCCESS,
        };
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        Args::parse(&cmd, &args)
    }

    #[test]
    fn flags_parse_values_and_bare_booleans() {
        let args = parse(
            &["--n", "32", "--verbose", "--seed", "7"],
            &["n", "verbose", "seed"],
        );
        assert_eq!(args.str("n"), Some("32"));
        assert_eq!(args.str("verbose"), Some("true"));
        assert!(args.flag("verbose"));
        assert_eq!(args.str("seed"), Some("7"));
    }

    #[test]
    fn numeric_getters_fall_back_to_defaults() {
        let args = parse(&["--n", "32"], &["n"]);
        assert_eq!(args.get::<usize>("n", 0), 32);
        assert_eq!(args.get::<usize>("m", 96), 96);
        assert_eq!(args.get::<u64>("seed", 61453), 61453);
    }

    #[test]
    fn metrics_is_always_allowed() {
        let dir = std::env::temp_dir().join("fastmm_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        let args = parse(&["--metrics", path.to_str().unwrap()], &[]);
        assert!(args.flag("metrics"));
        let _ = std::fs::remove_file(&path);
    }
}
