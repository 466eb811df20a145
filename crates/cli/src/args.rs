//! The `sdbp` option vocabulary. Every option is declared once in
//! [`VOCABULARY`]; each command lists the ones it takes, and
//! [`Args::parse`] reads argv against that list. `sdbp help` renders both.

use crate::error::CliError;
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Every option a command may take: its name, the placeholder of its value
/// (empty for a flag), and its help line, which for a spec field names the
/// default `sdbp check`'s spec parser gives it.
#[rustfmt::skip]
pub const VOCABULARY: &[(&str, &str, &str)] = &[
    ("benchmark", "BENCHMARK", "the workload (default gcc)"),
    ("predictor", "PREDICTOR", "the dynamic predictor (default gshare)"),
    ("size", "BYTES", "the predictor's table budget (default 8192)"),
    ("scheme", "SCHEME", "the static selection scheme (default none)"),
    ("shift", "", "shift statically predicted outcomes into the global history"),
    ("training", "self|cross|merged|cross-merged", "the profiling regime (default self)"),
    ("input", "train|ref", "the input set measured (default ref)"),
    ("seed", "N", "the workload seed (default 2000)"),
    ("instructions", "N", "each phase's budget (default: the workload's); check also \
        profiles this many for --aliasing or --index-analysis without --profile (500000)"),
    ("profile_instructions", "N", "the profiling budget alone"),
    ("measure_instructions", "N", "the measurement budget alone"),
    ("warmup", "N", "measured instructions left out of the counts (default 0)"),
    ("history", "BITS", "the history length the predictor must derive"),
    ("out", "FILE", "the file to write (bench: instead of the word's own output)"),
    ("text", "", "write sdbp text (also for an --out ending in .txt)"),
    ("trace", "FILE", "a trace: ingest admits it; stats, sim and grid run it, not a workload"),
    ("hints", "FILE", "a hint database: sim --trace applies it, check lints it"),
    ("profile", "FILE", "a bias profile: select selects from it, check cross-checks it"),
    ("family", "FAMILY", "grid every benchmark of a workload family"),
    ("schemes", "SCHEME,...", "the scheme columns; the first is the Δ baseline"),
    ("threads", "N", "worker threads; 0 takes SDBP_THREADS, then all cores"),
    ("store", "DIR", "an artifact store; grid keeps profiles and manifest.jsonl there"),
    ("resume", "", "with --store: replay the cells its manifest records"),
    ("max-cells", "N", "with --store: stop after N executed cells; 0 runs them all"),
    ("top", "N", "how many branches (check: hotspots and proven pairs) to report"),
    ("spec", "FILE", "lint this spec file instead of the spec-field options"),
    ("suite", "", "also lint every spec the `sdbp bench` experiments run"),
    ("manifest", "FILE", "lint this grid run manifest"),
    ("aliasing", "", "forecast destructive-aliasing hotspots"),
    ("index-analysis", "", "prove the index function's collision structure"),
    ("format", "text|json", "rustc-style text or JSON diagnostics"),
    ("deny-warnings", "", "fail on warnings too"),
    ("digest", "HEX", "the key of a store entry, as `artifact ls` lists it"),
    ("quick", "", "the CI smoke budget, each suite in under a second"),
];

/// One option a command takes, from the [`VOCABULARY`].
#[derive(Debug, Clone, Copy)]
pub struct Declared {
    pub name: &'static str,
    /// Empty for a flag.
    pub placeholder: &'static str,
    pub required: bool,
    pub default: Option<&'static str>,
}

/// Reads a command's option list: vocabulary names separated by spaces,
/// `name!` for a required option and `name=value` for a default.
pub fn declared(options: &'static str) -> impl Iterator<Item = Declared> {
    options.split_whitespace().map(|item| {
        let (item, default) = match item.split_once('=') {
            Some((item, default)) => (item, Some(default)),
            None => (item, None),
        };
        let name = item.trim_end_matches('!');
        let (name, placeholder, _) = *VOCABULARY
            .iter()
            .find(|(known, ..)| *known == name)
            .unwrap_or_else(|| panic!("--{name} is not in the option vocabulary"));
        let required = item.ends_with('!');
        Declared {
            name,
            placeholder,
            required,
            default,
        }
    })
}

/// A command's words (`artifact ls`, `bench table3`) and their option lists.
pub type Words = Vec<(&'static str, &'static str)>;

/// A command line read against its option list; a flag's value is its name.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: String,
    options: Vec<Declared>,
    values: HashMap<&'static str, String>,
}

impl Args {
    /// Parses `argv`: the command (and its word), then `--name value`,
    /// `--name=value` (the only form for a value starting with `--`) or
    /// `--flag`, each named in `options`; a repeated option keeps its last
    /// value.
    ///
    /// # Errors
    ///
    /// A usage error for a stray argument, an undeclared name (with the
    /// closest declared one), a value option without a value, a flag given a
    /// value, or a missing required option.
    pub fn parse<I: IntoIterator<Item = String>>(
        options: &'static str,
        argv: I,
    ) -> Result<Self, CliError> {
        let mut argv = argv.into_iter().peekable();
        let mut args = Self {
            command: argv.next().unwrap_or_default(),
            options: declared(options).collect(),
            ..Self::default()
        };
        let usage = |message: String| Err(CliError::Usage(message));
        while let Some(token) = argv.next() {
            let Some(body) = token
                .strip_prefix("--")
                .filter(|b| !b.is_empty() && !b.starts_with('='))
            else {
                return usage(format!("unexpected argument '{token}' (expected --option)"));
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (body, None),
            };
            let Some(opt) = args.options.iter().find(|o| o.name == name) else {
                let names: Vec<&str> = args.options.iter().map(|o| o.name).collect();
                let hint = sdbp_check::spec::closest(name, &names)
                    .map(|near| format!("; did you mean '--{near}'?"))
                    .unwrap_or_default();
                return usage(format!(
                    "unknown option '--{name}' for `sdbp {}`{hint}",
                    args.command
                ));
            };
            let value = match (
                opt.placeholder,
                inline.or_else(|| argv.next_if(|t| !t.starts_with("--"))),
            ) {
                ("", None) => name.to_string(),
                ("", Some(value)) => {
                    return usage(format!("flag '--{name}' takes no value, got '{value}'"))
                }
                (_, Some(value)) if !value.is_empty() => value,
                (placeholder, _) => {
                    return usage(format!("option '--{name}' needs a value ({placeholder})"))
                }
            };
            args.values.insert(opt.name, value);
        }
        match args
            .options
            .iter()
            .find(|o| o.required && !args.values.contains_key(o.name))
        {
            Some(o) => usage(format!(
                "`sdbp {}` requires --{} {}",
                args.command, o.name, o.placeholder
            )),
            None => Ok(args),
        }
    }

    /// The command, with its word if it takes one.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// The declaration of `name`. Reading an option the command does not
    /// take is a bug in the command, so it panics.
    fn opt(&self, name: &str) -> &Declared {
        let found = self.options.iter().find(|o| o.name == name);
        found.unwrap_or_else(|| panic!("`sdbp {}` reads undeclared --{name}", self.command))
    }

    /// Whether `name` was given (a default does not count).
    pub fn given(&self, name: &str) -> bool {
        self.values.contains_key(self.opt(name).name)
    }

    /// A value option: the value given, else the declared default.
    pub fn get(&self, name: &str) -> Option<&str> {
        let default = self.opt(name).default;
        self.values.get(name).map(String::as_str).or(default)
    }

    /// A required or defaulted option's value.
    pub fn value(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| panic!("--{name} is neither required nor defaulted"))
    }

    /// A required or defaulted option's value, parsed (a usage error if not).
    pub fn parsed<T: FromStr<Err: Display>>(&self, name: &str) -> Result<T, CliError> {
        let value = self.value(name);
        value
            .parse()
            .map_err(|e| CliError::Usage(format!("invalid --{name} '{value}': {e}")))
    }

    /// Every option given or defaulted, with its value, in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, &str)> {
        self.options
            .iter()
            .filter_map(|o| Some((o.name, self.get(o.name)?)))
    }

    /// Fails when `name` was given together with any of the space-separated
    /// `others`, which the mode `name` selects does not read.
    pub fn conflicts(&self, name: &str, others: &str) -> Result<(), CliError> {
        match others
            .split_whitespace()
            .find(|o| self.given(name) && self.given(o))
        {
            Some(other) => Err(CliError::Usage(format!(
                "--{other} cannot be combined with --{name}"
            ))),
            None => Ok(()),
        }
    }

    /// Fails when `name` was given without `needed`.
    pub fn requires(&self, name: &str, needed: &str) -> Result<(), CliError> {
        if self.given(name) && !self.given(needed) {
            return Err(CliError::Usage(format!("--{name} requires --{needed}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTIONS: &str = "benchmark input=ref size=8192 seed scheme trace hints out! shift text";

    fn try_parse(tokens: &[&str]) -> Result<Args, CliError> {
        Args::parse(OPTIONS, tokens.iter().map(|s| s.to_string()))
    }

    fn parse(tokens: &[&str]) -> Args {
        let mut argv = tokens.to_vec();
        argv.extend(["--out", "o"]);
        try_parse(&argv).unwrap()
    }

    fn usage_error(tokens: &[&str]) -> String {
        let err = try_parse(tokens).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{tokens:?}: {err}");
        err.to_string()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["sim", "--benchmark", "gcc", "--shift", "--size", "4096"]);
        assert_eq!(a.command(), "sim");
        assert_eq!(a.get("benchmark"), Some("gcc"));
        assert_eq!(a.get("input"), Some("ref"), "the declared default");
        assert_eq!(a.get("seed"), None);
        assert_eq!(a.parsed::<usize>("size").unwrap(), 4096);
        assert!(a.given("shift"));
        assert!(!a.given("text"));
        assert!(a.given("size") && !a.given("input"));
    }

    #[test]
    fn empty_argv_is_empty_command() {
        let a = Args::parse("", Vec::new()).unwrap();
        assert_eq!(a.command(), "");
    }

    #[test]
    fn rejects_stray_positional() {
        assert!(usage_error(&["sim", "gcc"]).contains("gcc"));
    }

    #[test]
    fn reports_bad_values() {
        let a = parse(&["sim", "--size", "zz"]);
        let err = a.parsed::<usize>("size").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--size 'zz'"), "{err}");
    }

    #[test]
    fn trailing_flag_works() {
        let a = parse(&["gen", "--text"]);
        assert!(a.given("text"));
    }

    #[test]
    fn equals_syntax_parses_values() {
        let a = parse(&["sim", "--benchmark=gcc", "--size=1024"]);
        assert_eq!(a.get("benchmark"), Some("gcc"));
        assert_eq!(a.parsed::<usize>("size").unwrap(), 1024);
    }

    #[test]
    fn equals_syntax_allows_dashed_values() {
        let a = parse(&["sim", "--scheme=--weird", "--seed=-42"]);
        assert_eq!(a.get("scheme"), Some("--weird"));
        assert_eq!(a.get("seed"), Some("-42"));
    }

    #[test]
    fn equals_value_may_contain_equals() {
        let a = parse(&["sim", "--hints=key=value"]);
        assert_eq!(a.get("hints"), Some("key=value"));
    }

    #[test]
    fn rejects_empty_equals_forms() {
        usage_error(&["sim", "--=x"]);
        usage_error(&["sim", "--seed="]);
        usage_error(&["sim", "--"]);
    }

    #[test]
    fn space_form_still_swallows_next_nonoption() {
        let a = parse(&["sim", "--seed", "7", "--shift", "--trace", "-3"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.given("shift"));
        assert_eq!(a.get("trace"), Some("-3"));
    }

    #[test]
    fn an_unknown_name_is_rejected_with_the_nearest_declared_one() {
        let message = usage_error(&["sim", "--out", "o", "--sheme", "static_95"]);
        assert!(message.contains("'--sheme'"), "{message}");
        assert!(message.contains("did you mean '--scheme'?"), "{message}");
        let message = usage_error(&["sim", "--out", "o", "--zzzzzz", "1"]);
        assert!(!message.contains("did you mean"), "{message}");
        let message = usage_error(&["sim", "--out", "o", "--threads", "1"]);
        assert!(message.contains("'--threads'"), "known, but not taken here");
    }

    #[test]
    fn a_value_option_without_a_value_is_rejected() {
        for argv in [
            &["sim", "--out", "o", "--seed"][..],
            &["sim", "--out", "o", "--size", "--seed", "7"],
        ] {
            let message = usage_error(argv);
            assert!(message.contains("needs a value"), "{argv:?}: {message}");
        }
    }

    #[test]
    fn a_flag_given_a_value_is_rejected() {
        for argv in [
            &["sim", "--out", "o", "--shift", "yes"][..],
            &["sim", "--out", "o", "--shift=1"],
        ] {
            let message = usage_error(argv);
            assert!(message.contains("takes no value"), "{argv:?}: {message}");
        }
    }

    #[test]
    fn a_missing_required_option_is_rejected() {
        let message = usage_error(&["gen", "--benchmark", "gcc"]);
        assert!(message.contains("requires --out FILE"), "{message}");
    }

    #[test]
    #[should_panic(expected = "undeclared --threads")]
    fn reading_an_undeclared_option_panics() {
        parse(&["sim"]).get("threads");
    }

    #[test]
    #[should_panic(expected = "not in the option vocabulary")]
    fn declaring_an_unknown_option_panics() {
        declared("benchmark frobnicate").for_each(drop);
    }

    #[test]
    fn fields_follow_declaration_order_with_defaults() {
        let a = parse(&["sim", "--shift", "--seed", "3", "--benchmark", "go"]);
        let fields: Vec<(&str, &str)> = a.fields().collect();
        assert_eq!(
            fields,
            [
                ("benchmark", "go"),
                ("input", "ref"),
                ("size", "8192"),
                ("seed", "3"),
                ("out", "o"),
                ("shift", "shift"),
            ]
        );
    }

    #[test]
    fn conflicts_and_requirements_name_both_options() {
        let a = parse(&["sim", "--seed", "3", "--benchmark", "go"]);
        let err = a.conflicts("seed", "scheme benchmark").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert_eq!(
            err.to_string(),
            "--benchmark cannot be combined with --seed"
        );
        assert!(a.conflicts("scheme", "seed").is_ok(), "--scheme not given");
        assert!(a.requires("seed", "benchmark").is_ok());
        let err = a.requires("seed", "hints").unwrap_err();
        assert_eq!(err.to_string(), "--seed requires --hints");
    }

    #[test]
    fn spec_field_defaults_in_help_are_the_parsers() {
        // A spec field's help names the default `sdbp check`'s spec parser
        // gives it, so parsing that value must change nothing.
        let parse = |fields: Vec<(&str, &str, Option<usize>)>| {
            sdbp_check::spec::parse_spec_fields(fields, "<args>").0.spec
        };
        let defaults = parse(Vec::new());
        let mut checked = 0;
        for &(name, _, help) in VOCABULARY {
            let Some(value) = help.split("(default ").nth(1) else {
                continue;
            };
            let value = value.trim_end_matches(')');
            assert!(sdbp_check::SPEC_KEYS.contains(&name), "--{name}");
            assert_eq!(
                parse(vec![(name, value, None)]),
                defaults,
                "--{name} {value}"
            );
            checked += 1;
        }
        assert_eq!(checked, 8);
    }
}
