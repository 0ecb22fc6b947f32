//! One flag table per experiment binary: help, parsing, defaults and
//! ranges all come from the same declaration.
//!
//! A binary opens `main` with one call to [`parse`], passing its name,
//! a one-line description and its table of [`Flag`]s (empty for a
//! binary with no flags of its own). The call:
//!
//! - prints the help rendered from the table and exits **0** when
//!   `--help` or `-h` is anywhere on the command line;
//! - exits **2** with one stderr line on a usage error: an unknown
//!   flag, a missing value, an unparsable value, a value outside the
//!   flag's range, a name outside a one-of list, or, for a table that
//!   declares `--model`, `--prompt` and `--decode`, a session longer
//!   than the chosen model's context;
//! - runs the shared `--analyze` lint sweep when asked, and exits **1**
//!   on a deny-level finding;
//! - returns the [`Args`], every absent flag at its table default.

use std::fmt::Write as _;

use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, ModelConfig};

/// Upper bound of `--jobs` on every binary: enough for the cores of
/// any machine the experiments run on.
pub const MAX_JOBS: u64 = 1024;

/// Upper bound of a fleet size (`--devices`): the 10⁷-device sweep
/// is the largest any experiment runs.
pub const MAX_DEVICES: u64 = 10_000_000;

/// Upper bound of a fleet request count (`--requests`).
pub const MAX_REQUESTS: u64 = 1_000_000;

/// Upper bound of a token count (`--prompt`, `--decode`): the longest
/// context any model preset supports. [`parse`] then bounds their sum
/// by the chosen `--model`'s context.
pub fn max_tokens() -> u64 {
    ModelConfig::longest_preset_seq() as u64
}

/// A value a one-of flag selects by name. The names and the parser are
/// the type's own, so the help lists what the parser accepts.
pub trait Choice: Sized {
    /// The canonical names [`Choice::parse`] accepts, for the help.
    fn names() -> Vec<String>;
    /// The value `name` selects, if any.
    fn parse(name: &str) -> Option<Self>;
}

impl Choice for ModelConfig {
    fn names() -> Vec<String> {
        ModelConfig::preset_names().map(String::from).collect()
    }
    fn parse(name: &str) -> Option<Self> {
        ModelConfig::by_name(name)
    }
}

impl Choice for EngineKind {
    fn names() -> Vec<String> {
        EngineKind::ALL
            .iter()
            .map(|k| k.name().to_ascii_lowercase())
            .collect()
    }
    fn parse(name: &str) -> Option<Self> {
        name.parse().ok()
    }
}

const SYNC_MECHANISMS: [SyncMechanism; 2] = [SyncMechanism::Fast, SyncMechanism::Driver];

impl Choice for SyncMechanism {
    fn names() -> Vec<String> {
        SYNC_MECHANISMS.iter().map(|m| m.name().into()).collect()
    }
    fn parse(name: &str) -> Option<Self> {
        SYNC_MECHANISMS.into_iter().find(|m| m.name() == name)
    }
}

/// What values a flag takes, and its default.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Present or absent; off by default.
    Switch,
    /// An unsigned integer in `min..=max`.
    Uint {
        /// Value when the flag is absent.
        default: u64,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// A file path; absent by default.
    Path,
    /// One name a [`Choice`] type accepts.
    OneOf {
        /// Name used when the flag is absent.
        default: &'static str,
        /// The type's canonical names ([`Choice::names`]).
        names: fn() -> Vec<String>,
        /// Whether the type's parser accepts a name.
        accepts: fn(&str) -> bool,
    },
}

/// One row of a binary's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--seed`.
    name: &'static str,
    /// Placeholder for the value in the help (empty for a switch).
    metavar: &'static str,
    /// Accepted values and default.
    kind: Kind,
    /// One-line description; the help appends the default and range.
    help: &'static str,
}

fn accepts<T: Choice>(name: &str) -> bool {
    T::parse(name).is_some()
}

impl Flag {
    /// A switch, off unless given.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            metavar: "",
            kind: Kind::Switch,
            help,
        }
    }

    /// An unsigned integer flag with its default and inclusive range.
    pub const fn uint(
        name: &'static str,
        metavar: &'static str,
        default: u64,
        range: std::ops::RangeInclusive<u64>,
        help: &'static str,
    ) -> Self {
        let (min, max) = (*range.start(), *range.end());
        Self {
            name,
            metavar,
            kind: Kind::Uint { default, min, max },
            help,
        }
    }

    /// A path flag, absent unless given.
    pub const fn path(name: &'static str, metavar: &'static str, help: &'static str) -> Self {
        Self {
            name,
            metavar,
            kind: Kind::Path,
            help,
        }
    }

    /// A flag naming one value of `T`, `default` when absent.
    pub fn one_of<T: Choice>(
        name: &'static str,
        metavar: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Self {
        let kind = Kind::OneOf {
            default,
            names: T::names,
            accepts: accepts::<T>,
        };
        Self {
            name,
            metavar,
            kind,
            help,
        }
    }

    /// The value this flag holds when absent from the command line.
    fn default_value(&self) -> Value {
        match self.kind {
            Kind::Switch => Value::On(false),
            Kind::Uint { default, .. } => Value::Uint(default),
            Kind::Path => Value::Text(None),
            Kind::OneOf { default, .. } => Value::Text(Some(default.into())),
        }
    }

    /// The value `raw` gives this (valued) flag, or `None` if the table
    /// does not accept it.
    fn read(&self, raw: &str) -> Option<Value> {
        match self.kind {
            Kind::Switch => None,
            Kind::Uint { min, max, .. } => raw
                .trim()
                .parse()
                .ok()
                .filter(|v| (min..=max).contains(v))
                .map(Value::Uint),
            Kind::Path => Some(Value::Text(Some(raw.into()))),
            Kind::OneOf { accepts, .. } => {
                let name = raw.trim();
                accepts(name).then(|| Value::Text(Some(name.into())))
            }
        }
    }

    /// The help row: flag with metavar, then description with the
    /// default and range.
    fn help_row(&self) -> (String, String) {
        let flag = match self.kind {
            Kind::Switch => self.name.to_string(),
            _ => format!("{} {}", self.name, self.metavar),
        };
        let about = match self.kind {
            Kind::Switch | Kind::Path => self.help.to_string(),
            Kind::Uint { default, min, max } => {
                format!("{} (default {default}, range {min}..={max})", self.help)
            }
            Kind::OneOf { default, names, .. } => {
                let names = names().join(", ");
                format!("{} (default {default}, one of: {names})", self.help)
            }
        };
        (flag, about)
    }
}

/// The help text of a binary: its description, usage line and the
/// table's rows, then the shared `--analyze` and `--help` rows.
fn help(bin: &str, about: &str, flags: &[Flag]) -> String {
    let shared = [
        (
            "--analyze".to_string(),
            "run the static invariant checker first; abort on deny findings".to_string(),
        ),
        (
            "--help, -h".to_string(),
            "print this help and exit".to_string(),
        ),
    ];
    let rows: Vec<_> = flags.iter().map(Flag::help_row).chain(shared).collect();
    let width = rows.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
    let mut out = format!(
        "{bin}: {about}\n\nusage: cargo run --release -p hetero-bench --bin {bin} [--] [FLAGS]\n\n"
    );
    for (f, d) in &rows {
        writeln!(out, "  {f:<width$}  {d}").expect("write to String");
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    On(bool),
    Uint(u64),
    Text(Option<String>),
}

/// The flag values of one command line, looked up by flag name.
///
/// Asking for a flag the table does not declare, or as the wrong kind,
/// is a bug in the binary and panics.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    values: Vec<(&'static str, Value)>,
    analyze: bool,
}

impl Args {
    fn value(&self, name: &str) -> &Value {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{name} is not in the flag table"))
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        match self.value(name) {
            Value::On(on) => *on,
            v => panic!("{name} is not a switch: {v:?}"),
        }
    }

    /// The value of unsigned flag `name`.
    pub fn uint(&self, name: &str) -> u64 {
        match self.value(name) {
            Value::Uint(v) => *v,
            v => panic!("{name} is not an unsigned flag: {v:?}"),
        }
    }

    /// The value of unsigned flag `name` as a count.
    pub fn size(&self, name: &str) -> usize {
        usize::try_from(self.uint(name)).expect("flag range fits usize")
    }

    /// The path given to path flag `name`, if any.
    pub fn path(&self, name: &str) -> Option<&str> {
        match self.value(name) {
            Value::Text(p) => p.as_deref(),
            v => panic!("{name} is not a path flag: {v:?}"),
        }
    }

    /// The value one-of flag `name` selects.
    pub fn choice<T: Choice>(&self, name: &str) -> T {
        let text = self.path(name).expect("one-of flags always hold a name");
        T::parse(text).unwrap_or_else(|| panic!("{name}: '{text}' passed the table but not T"))
    }
}

/// Why a command line does not start a run.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Usage {
    /// `--help` or `-h` was given.
    Help,
    /// A usage error, as the text of its one stderr line (without the
    /// binary name and the `--help` hint).
    Error(String),
}

/// Read `argv` (program name excluded) against `flags` in one pass.
///
/// A value is the next argument, whatever it looks like. `--help` and
/// `-h` anywhere win over any error, so asking for help never fails.
fn parse_argv(flags: &[Flag], argv: &[String]) -> Result<Args, Usage> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Err(Usage::Help);
    }
    let mut args = Args {
        values: flags.iter().map(|f| (f.name, f.default_value())).collect(),
        analyze: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--analyze" {
            args.analyze = true;
            continue;
        }
        let Some(i) = flags.iter().position(|f| f.name == arg) else {
            return Err(Usage::Error(format!("unexpected argument '{arg}'")));
        };
        let flag = &flags[i];
        args.values[i].1 = if let Kind::Switch = flag.kind {
            Value::On(true)
        } else {
            let raw = it
                .next()
                .ok_or_else(|| Usage::Error(format!("{} needs a value", flag.name)))?;
            flag.read(raw)
                .ok_or_else(|| Usage::Error(format!("bad value '{raw}' for {}", flag.name)))?
        };
    }
    check_session_fits(&args)?;
    Ok(args)
}

/// For a table that declares `--model`, `--prompt` and `--decode`: a
/// session the chosen model's context cannot hold is a usage error.
fn check_session_fits(args: &Args) -> Result<(), Usage> {
    let declared = |name| args.values.iter().any(|(n, _)| *n == name);
    if !["--model", "--prompt", "--decode"]
        .into_iter()
        .all(declared)
    {
        return Ok(());
    }
    let model: ModelConfig = args.choice("--model");
    let (prompt, decode) = (args.size("--prompt"), args.size("--decode"));
    if prompt + decode > model.max_seq {
        return Err(Usage::Error(format!(
            "--prompt {prompt} + --decode {decode} exceeds {}'s context of {} tokens",
            model.name, model.max_seq
        )));
    }
    Ok(())
}

/// Parse the process's command line against `flags`: print the help
/// and exit 0, exit 2 on a usage error, run the `--analyze` sweep when
/// asked, and return the values.
pub fn parse(bin: &str, about: &str, flags: &[Flag]) -> Args {
    let argv: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(|a| a.into_string())
        .collect();
    let parsed = argv
        .map_err(|a| Usage::Error(format!("argument {a:?} is not UTF-8")))
        .and_then(|argv| parse_argv(flags, &argv));
    match parsed {
        Ok(args) => {
            if args.analyze {
                analyze();
            }
            args
        }
        Err(Usage::Help) => {
            print!("{}", help(bin, about, flags));
            std::process::exit(0)
        }
        Err(Usage::Error(e)) => {
            eprintln!("{bin}: {e} (run with --help for usage)");
            std::process::exit(2)
        }
    }
}

/// The shared `--analyze` step: run the static invariant checker over
/// the plans the engine adopts for the paper's evaluation models
/// (prefill sweep and decode, fast sync) before the experiment, and
/// exit **1** on any deny-level finding. The sweep includes the
/// abstract-interpretation bound certification: static peak footprint
/// and `[lo, hi]` latency bounds per model, gated for soundness
/// against fresh DES runs (`bound-unsound`).
fn analyze() {
    let models = ModelConfig::evaluation_models();
    let mut report = hetero_analyze::lint_models(
        &models,
        &hetero_analyze::sweep::DEFAULT_SEQS,
        SyncMechanism::Fast,
    );
    report.merge(hetero_analyze::bound_lint_models(
        &models,
        300,
        4,
        hetero_analyze::DEFAULT_POOL_BYTES,
    ));
    for d in &report.findings {
        eprintln!("{d}");
    }
    eprintln!(
        "[analyze] checked {} plans: {} deny, {} warn",
        report.summary.checked, report.summary.deny, report.summary.warn
    );
    if !report.is_clean() {
        eprintln!("[analyze] deny-level findings; aborting experiment");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<Flag> {
        vec![
            Flag::uint("--seed", "N", 42, 0..=u64::MAX, "seed"),
            Flag::uint("--devices", "N", 256, 1..=MAX_DEVICES, "fleet size"),
            Flag::switch("--json", "print JSON"),
            Flag::path("--events-out", "FILE", "write the log"),
            Flag::one_of::<ModelConfig>("--model", "MODEL", "llama-8b", "model"),
            Flag::one_of::<SyncMechanism>("--sync", "SYNC", "fast", "sync"),
        ]
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn error(line: &str) -> String {
        match parse_argv(&table(), &argv(line)) {
            Err(Usage::Error(e)) => e,
            other => panic!("{line}: {other:?}"),
        }
    }

    #[test]
    fn parser_reads_the_table() {
        let args = parse_argv(&table(), &[]).unwrap();
        assert_eq!(args.uint("--seed"), 42);
        assert_eq!(args.size("--devices"), 256);
        assert!(!args.switch("--json"));
        assert_eq!(args.path("--events-out"), None);
        assert_eq!(args.choice::<ModelConfig>("--model").name, "Llama-8B");
        assert!(!args.analyze);

        let line = "--seed 18446744073709551615 --devices 10000000 --json \
                    --events-out e.json --model QWEN2-1.5B --sync driver --analyze";
        let args = parse_argv(&table(), &argv(line)).unwrap();
        assert_eq!(args.uint("--seed"), u64::MAX);
        assert_eq!(args.size("--devices"), 10_000_000);
        assert!(args.switch("--json"));
        assert_eq!(args.path("--events-out"), Some("e.json"));
        assert_eq!(args.choice::<ModelConfig>("--model").name, "Qwen2-1.5B");
        assert_eq!(
            args.choice::<SyncMechanism>("--sync"),
            SyncMechanism::Driver
        );
        assert!(args.analyze);

        assert_eq!(error("--bogus"), "unexpected argument '--bogus'");
        assert_eq!(error("--json --seed"), "--seed needs a value");
        assert_eq!(error("--seed junk"), "bad value 'junk' for --seed");
        assert_eq!(
            error("--seed 18446744073709551616"),
            "bad value '18446744073709551616' for --seed"
        );
        assert_eq!(error("--devices 0"), "bad value '0' for --devices");
        assert_eq!(
            error("--devices 10000001"),
            "bad value '10000001' for --devices"
        );
        assert_eq!(error("--model junk"), "bad value 'junk' for --model");
        assert_eq!(error("--sync Fast"), "bad value 'Fast' for --sync");
        // Help wins over an error anywhere on the line.
        assert_eq!(
            parse_argv(&table(), &argv("--seed junk --help")),
            Err(Usage::Help)
        );
        assert_eq!(parse_argv(&[], &argv("-h")), Err(Usage::Help));
        assert_eq!(
            parse_argv(&[], &argv("--jobs 2")),
            Err(Usage::Error("unexpected argument '--jobs'".into()))
        );
    }

    #[test]
    fn help_lists_defaults_ranges_and_names() {
        let text = help("bin", "what it does", &table());
        assert!(text.starts_with("bin: what it does\n\nusage: "));
        assert!(text
            .contains("  --seed N           seed (default 42, range 0..=18446744073709551615)\n"));
        assert!(text.contains("fleet size (default 256, range 1..=10000000)"));
        assert!(text.contains("  --json             print JSON\n"));
        assert!(text.contains("(default fast, one of: fast, driver)"));
        assert!(text.contains("one of: llama-8b, llama-7b"));
        assert!(text.contains("  --analyze  "));
        assert!(text.ends_with("  --help, -h         print this help and exit\n"));
    }

    #[test]
    fn choice_names_parse_back() {
        fn check<T: Choice>() {
            let names = T::names();
            assert!(!names.is_empty());
            for name in names {
                assert!(T::parse(&name).is_some(), "{name}");
            }
        }
        check::<ModelConfig>();
        check::<EngineKind>();
        check::<SyncMechanism>();
    }
}
