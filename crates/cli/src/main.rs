//! `sdbp` — command-line driver for the static+dynamic branch prediction
//! simulator (Patil & Emer, HPCA 2000 reproduction).
//!
//! Run `sdbp help` for the full usage text; typical sessions:
//!
//! ```text
//! sdbp sim --benchmark gcc --predictor gshare --size 16384 --scheme static_acc
//! sdbp sweep --benchmark m88ksim --predictor 2bcgskew --scheme static_95
//! sdbp gen --benchmark compress --out compress.sdbt --instructions 1000000
//! sdbp sim --trace compress.sdbt --predictor bimodal --size 2048
//! ```

#![forbid(unsafe_code)]

mod args;
mod bench;
mod commands;
mod error;

use args::{declared, Args, Words, VOCABULARY};
use error::CliError;
use sdbp_predictors::PredictorKind;
use sdbp_profiles::SCHEME_NAMES;
use sdbp_workloads::{Benchmark, WorkloadFamily};
use Takes::{Options, Word};

type CmdResult = Result<(), CliError>;

/// What a command takes after its name: an option list (see
/// [`args::declared`]) and its runner, or a word (`artifact ls`, `bench
/// table3`) with each word's option list, and the runner of a word.
enum Takes {
    Options(&'static str, fn(&Args) -> CmdResult),
    Word(fn() -> Words, fn(&str, &Args) -> CmdResult),
}

/// A command: its name, what it does, and what it takes.
struct Command {
    name: &'static str,
    about: &'static str,
    takes: Takes,
}

/// Every command, in `sdbp help` order. Dispatch and `sdbp help` both read
/// this table.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", about: "benchmarks, predictors, schemes",
        takes: Options("", commands::list) },
    Command { name: "gen", about: "generate a branch trace file from a workload",
        takes: Options("out! text benchmark input seed instructions", commands::gen) },
    Command { name: "ingest", about: "lint an external trace (SDBP070-075) and admit it as a \
        benchmark; sdbt, sdbp text and `perf script` formats are autodetected",
        takes: Options("trace! format=text deny-warnings", commands::ingest) },
    Command { name: "stats", about: "characterize a trace or a workload",
        takes: Options("trace benchmark input seed instructions", commands::stats) },
    Command { name: "profile", about: "collect a per-branch bias profile",
        takes: Options("out! benchmark input seed instructions", commands::profile) },
    Command { name: "select", about: "select static hints from a profile or a fresh run",
        takes: Options("out! profile scheme predictor size benchmark input seed instructions",
            commands::select) },
    Command { name: "sim", about: "the two-phase experiment, or a replay of a --trace file",
        takes: Options("predictor size shift trace hints benchmark input seed instructions \
            scheme training", commands::sim) },
    Command { name: "sweep", about: "parallel predictor size sweep (1KB..64KB)",
        takes: Options("predictor scheme benchmark input seed instructions threads=0",
            commands::sweep) },
    Command { name: "grid", about: "parallel Figure 7-style grid of the paper predictors x \
        --schemes at --size, over a benchmark, a whole --family or a --trace",
        takes: Options("benchmark family trace size input seed instructions \
            schemes=none,static_95,static_acc threads=0 store resume max-cells=0",
            commands::grid) },
    Command { name: "hotspots", about: "top misprediction contributors",
        takes: Options("predictor size top=15 benchmark input seed instructions",
            commands::hotspots) },
    // The spec fields last, in `SPEC_KEYS` order: `instructions` sets both
    // budgets, so it must come before the two it sets alone.
    Command { name: "check", about: "static diagnostics: lint a spec file or the spec \
        fields without running anything",
        takes: Options("spec suite profile hints manifest aliasing index-analysis top=10 \
            format=text deny-warnings benchmark predictor size scheme shift training input \
            seed instructions profile_instructions measure_instructions warmup history",
            commands::check) },
    Command { name: "artifact", about: "inspect a durable artifact store: list its entries, \
        show one, or prune corrupt entries and stale temp files",
        takes: Word(|| commands::ARTIFACT.to_vec(), commands::artifact) },
    Command { name: "bench", about: "regenerate one harness result (docs/experiments.md maps \
        every word): the record suites write BENCH_<word>.json, all_experiments \
        results_full.txt, the rest print a table or diagnostic",
        takes: Word(bench::usages, bench::run) },
    Command { name: "help", about: "print this text",
        takes: Options("", |_| { print!("{}", help()); Ok(()) }) },
];

/// Finds the command `argv` names (none, `-h` and `--help` mean `help`)
/// and reads the rest against its declarations: the word it takes, if it
/// takes one, then the options.
fn parse(mut argv: Vec<String>) -> Result<(&'static Command, String, Args), CliError> {
    let name = match argv.first().map(String::as_str) {
        None | Some("-h" | "--help") => "help",
        Some(name) => name,
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command '{name}'")))?;
    match &command.takes {
        Options(options, _) => Ok((command, String::new(), Args::parse(options, argv)?)),
        Word(words, _) => {
            let word = match argv.get(1) {
                Some(token) if !token.starts_with('-') => argv.remove(1),
                _ => String::new(),
            };
            let words = words();
            let Some(&(_, options)) = words.iter().find(|(name, _)| *name == word) else {
                let names: Vec<&str> = words.iter().map(|(name, _)| *name).collect();
                let names = names.join("|");
                let message = format!("{} needs a word ({names}), got '{word}'", command.name);
                return Err(CliError::Usage(message));
            };
            argv[0] = format!("{} {word}", command.name);
            Ok((command, word, Args::parse(options, argv)?))
        }
    }
}

fn main() {
    let result = parse(std::env::args().skip(1).collect()).and_then(|(command, word, args)| {
        match command.takes {
            Options(_, run) => run(&args),
            Word(_, run) => run(&word, &args),
        }
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        if e.exit_code() == 2 {
            eprintln!("\nrun `sdbp help` for usage");
        }
        std::process::exit(e.exit_code());
    }
}

/// The width `sdbp help` wraps at.
const WIDTH: usize = 79;

/// Appends `head` padded to `column`, then `text` word-wrapped with its
/// continuation lines indented to `column`.
fn entry(out: &mut String, head: &str, text: &str, column: usize) {
    let mut line = format!("{head:column$}");
    for word in text.split_whitespace() {
        if line.len() > column && line.len() + 1 + word.len() > WIDTH {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(column);
        }
        if !line.ends_with(' ') {
            line.push(' ');
        }
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

/// A command's or word's options: required ones bare, the rest in
/// brackets, with their default.
fn synopsis(options: &'static str) -> String {
    let options: Vec<String> = declared(options)
        .map(|o| match (o.required, o.default) {
            (true, _) => format!("--{}", o.name),
            (false, Some(default)) => format!("[--{}={default}]", o.name),
            (false, None) => format!("[--{}]", o.name),
        })
        .collect();
    options.join(" ")
}

/// `sdbp help`: the commands and the option vocabulary, rendered from the
/// declarations [`Args::parse`] reads, then value lists, exit codes, examples.
fn help() -> String {
    let mut out = String::from(
        "sdbp - static+dynamic branch prediction simulator (Patil & Emer, HPCA 2000)\n\n\
         usage: sdbp <command> [<word>] [--option value] [--flag]\n\ncommands:\n",
    );
    for command in COMMANDS {
        match &command.takes {
            Options(options, _) => {
                entry(&mut out, &format!("  {}", command.name), command.about, 22);
                if !options.is_empty() {
                    entry(&mut out, "", &synopsis(options), 22);
                }
            }
            Word(words, _) => {
                let head = format!("  {} <word>", command.name);
                entry(&mut out, &head, command.about, 22);
                // Neighbouring words with the same options share a line.
                for group in words().chunk_by(|a, b| a.1 == b.1) {
                    let names: Vec<&str> = group.iter().map(|(name, _)| *name).collect();
                    let mut head = format!("    {}", names.join(", "));
                    if head.len() >= 22 {
                        entry(&mut out, "", &head, 4);
                        head.clear();
                    }
                    entry(&mut out, &head, &synopsis(group[0].1), 22);
                }
            }
        }
    }
    out.push_str("\noptions:\n");
    for &(name, placeholder, help) in VOCABULARY {
        entry(&mut out, &format!("  --{name} {placeholder}"), help, 28);
    }
    out.push_str("\nvalues:\n");
    let benchmarks = Benchmark::SYNTHETIC.map(Benchmark::name).join(", ");
    let predictors = PredictorKind::ALL.map(PredictorKind::name).join(", ");
    let families = WorkloadFamily::ALL.map(|f| f.to_string()).join(", ");
    let benchmarks = format!("{benchmarks}, or a name `sdbp ingest` admitted");
    entry(&mut out, "  BENCHMARK", &benchmarks, 14);
    entry(&mut out, "  PREDICTOR", &predictors, 14);
    entry(&mut out, "  SCHEME", SCHEME_NAMES, 14);
    entry(&mut out, "  FAMILY", &families, 14);
    out.push_str(PROSE);
    out
}

/// The prose after the generated sections; README.md and docs/ say more.
const PROSE: &str = "
exit codes:
  0 success; 1 command failure (simulation error, failed check, I/O);
  2 usage error (unknown command, word or option, missing or bad option
  value, missing required option); 3 artifact-store or manifest corruption
  (see docs/artifacts.md).

examples:
  sdbp sim --benchmark gcc --predictor gshare --size 16384 --scheme static_acc
  sdbp sweep --benchmark m88ksim --predictor 2bcgskew --scheme static_95
  # Figure 7 of the paper (go, 8 KB predictors) on 4 threads:
  sdbp grid --benchmark go --size 8192 --threads 4
  sdbp gen --benchmark compress --out compress.sdbt --instructions 1000000
  sdbp sim --trace compress.sdbt --predictor bimodal --size 2048
  # sweep the whole server family in one run (one table per benchmark):
  sdbp grid --family server --size 8192
  # admit an external trace (perf script output works too), then grid it:
  sdbp ingest --trace capture.sdbt
  sdbp grid --trace capture.sdbt --instructions 1000000
  # lint a spec file and forecast aliasing hotspots, machine-readable:
  sdbp check --spec run.spec --aliasing --format json
  # prove the index function's collision structure instead of sampling it:
  sdbp check --predictor gshare --size 1024 --index-analysis
  # durable grid: run once, interrupt at will, resume without recomputing:
  sdbp grid --benchmark gcc --store runs/gcc
  sdbp grid --benchmark gcc --store runs/gcc --resume
  sdbp artifact ls --store runs/gcc
  # regenerate a checked-in record (BENCH_passes.json), then the paper's
  # Table 3 alone, then every table into results_full.txt:
  sdbp bench passes
  sdbp bench table3
  sdbp bench all_experiments
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Every option list a command declares: its own, or each word's.
    fn declarations(command: &Command) -> Vec<&'static str> {
        match &command.takes {
            Options(options, _) => vec![options],
            Word(words, _) => words().iter().map(|(_, options)| *options).collect(),
        }
    }

    #[test]
    fn help_names_every_command_and_option_and_its_examples_parse() {
        let text = help();
        let (commands, rest) = text.split_once("\noptions").unwrap();
        for command in COMMANDS {
            assert!(commands.contains(&format!("\n  {} ", command.name)));
            for options in declarations(command) {
                for opt in declared(options) {
                    let named = [" ", "]", "=", "\n"].map(|end| format!("--{}{end}", opt.name));
                    assert!(
                        named.iter().any(|n| commands.contains(n)),
                        "{}: --{}",
                        command.name,
                        opt.name
                    );
                }
            }
        }
        for (name, ..) in VOCABULARY {
            assert!(rest.contains(&format!("\n  --{name} ")), "--{name}");
        }
        let examples = text.split("\nexamples:\n").nth(1).unwrap();
        let lines: Vec<&str> = examples
            .lines()
            .map(str::trim)
            .filter(|line| !line.starts_with('#'))
            .collect();
        assert!(lines.len() >= 15, "{lines:?}");
        for line in lines {
            let tokens = argv(line);
            assert_eq!(tokens[0], "sdbp", "{line}");
            if let Err(e) = parse(tokens[1..].to_vec()) {
                panic!("{line}: {e}");
            }
        }
    }

    #[test]
    fn help_lines_fit_the_terminal() {
        for line in help().lines() {
            assert!(line.chars().count() <= WIDTH, "{line}");
        }
    }

    #[test]
    fn every_option_is_taken_once_and_the_vocabulary_has_no_stragglers() {
        let mut used = Vec::new();
        for command in COMMANDS {
            for options in declarations(command) {
                let mut names: Vec<&str> = declared(options).map(|o| o.name).collect();
                used.extend(names.iter().copied());
                names.sort_unstable();
                let count = names.len();
                names.dedup();
                assert_eq!(names.len(), count, "{}: {options}", command.name);
            }
        }
        for (name, ..) in VOCABULARY {
            assert!(used.contains(name), "no command takes --{name}");
        }
    }

    #[test]
    fn dispatch_rejects_unknown_commands_and_words() {
        for line in [
            "simulate",
            "artifact",
            "artifact prune --store d",
            "bench nope",
        ] {
            let err = parse(argv(line)).err().expect(line);
            assert_eq!(err.exit_code(), 2, "{line}");
        }
        assert!(parse(Vec::new()).is_ok(), "no command prints help");
        let (_, word, args) = parse(argv("artifact inspect --store d --digest ab")).unwrap();
        assert_eq!(
            (word.as_str(), args.command()),
            ("inspect", "artifact inspect")
        );
    }
}
