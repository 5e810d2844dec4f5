//! The experiment driver: regenerates every table and figure of the
//! paper, and runs the flag-driven scenarios that sit outside `all`.
//!
//! One subcommand per invocation. Each subcommand's usage string sits
//! next to its parser below and is printed on any argument error —
//! before anything runs. Every JSON export goes through one
//! [`finish`] step: render, check against its row of
//! [`hns_bench::export::SCHEMAS`], write `--out`.

use std::str::FromStr;

use hns_bench::experiments as exp;
use hns_bench::export;

// The conformance fuzzer's allocation-budget property only bites when a
// counting allocator is installed; the negligible bookkeeping cost does
// not affect the virtual-time experiment outputs.
#[global_allocator]
static ALLOC: conformance::alloc::CountingAlloc = conformance::alloc::CountingAlloc;

/// The arguments after the subcommand name. A parser takes the flags it
/// knows; [`Args::done`] refuses whatever is left, so an unknown flag, a
/// repeated one or another subcommand's is an error, not a no-op.
struct Args {
    usage: &'static str,
    rest: Vec<String>,
}

impl Args {
    fn err(&self, msg: String) -> String {
        format!("{msg}\nusage: experiments {}", self.usage)
    }

    fn require(&self, ok: bool, msg: &str) -> Result<(), String> {
        ok.then_some(()).ok_or_else(|| self.err(msg.to_string()))
    }

    /// Takes a bare `flag`; true if it was given.
    fn switch(&mut self, flag: &str) -> bool {
        let at = self.rest.iter().position(|a| a == flag);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Takes `flag VALUE`, parsed; `None` if the flag was not given.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        self.rest.remove(i);
        if self.rest.get(i).is_none_or(|v| v.starts_with("--")) {
            return Err(self.err(format!("{flag} requires a value")));
        }
        let raw = self.rest.remove(i);
        let parsed = raw.parse().map(Some);
        parsed.map_err(|_| self.err(format!("{flag}: cannot parse `{raw}`")))
    }

    /// Takes `flag VALUE` into `slot`, leaving the default if absent.
    fn set<T: FromStr>(&mut self, flag: &str, slot: &mut T) -> Result<(), String> {
        if let Some(v) = self.value(flag)? {
            *slot = v;
        }
        Ok(())
    }

    /// Takes `flag A,B,..` into `slot`, leaving the default if absent.
    fn set_list<T: FromStr>(&mut self, flag: &str, slot: &mut Vec<T>) -> Result<(), String> {
        if let Some(csv) = self.value::<String>(flag)? {
            let parsed: Result<_, _> = csv.split(',').map(|item| item.trim().parse()).collect();
            *slot = parsed.map_err(|_| self.err(format!("{flag}: cannot parse `{csv}`")))?;
        }
        Ok(())
    }

    /// Refuses any flag no parser took; takes the positional operands.
    fn operands(&mut self) -> Result<Vec<String>, String> {
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(self.err(format!("unknown or repeated flag `{flag}`"))),
            None => Ok(std::mem::take(&mut self.rest)),
        }
    }

    /// [`Args::operands`] for a subcommand that takes none.
    fn done(mut self) -> Result<(), String> {
        let Some(extra) = self.operands()?.into_iter().next() else {
            return Ok(());
        };
        let refusal = format!("unexpected argument `{extra}` (one subcommand per invocation)");
        Err(self.err(refusal))
    }
}

/// The one finish step of every exporting subcommand: print the report,
/// check the JSON against its schema row, then write `--out`.
fn finish(what: &str, report: &str, json: &str, out: Option<&str>) -> Result<(), String> {
    println!("{report}");
    let tag = export::check(json).map_err(|e| format!("{what} export invalid: {e}"))?;
    if let Some(path) = out {
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("{what} JSON ({tag}) written to {path}");
    }
    Ok(())
}

type Table = (&'static str, fn() -> String);

/// The deterministic virtual-time tables, in the order `all` prints them.
const TABLES: &[Table] = &[
    ("table31", || exp::table31::run().render()),
    ("table32", || {
        let standard = exp::table32::run_standard_routines().render();
        format!("{}\n{standard}", exp::table32::run().render())
    }),
    ("overhead", || exp::overhead::run().render()),
    ("comparison", || exp::comparison::run().render()),
    ("preload", || {
        let results = exp::preload::run();
        format!(
            "{}\n{}\nbreak-even (paper accounting): {:?} calls\n\
             break-even (measured, shared entries): {:?} calls\n",
            results.headline.render(),
            results.sweep.render(),
            results.break_even_paper_model,
            results.break_even_measured
        )
    }),
    ("eq1", || {
        let results = exp::eq1::run();
        let sweep = results.sweep.render();
        format!("{}\n{sweep}", results.thresholds.render())
    }),
    ("figure21", exp::figure21::run),
    ("hit-ratios", || exp::hit_ratios::run().table.render()),
    ("mappings", || exp::mappings::run().render()),
    ("ablate-batching", || exp::ablate_batching::run().render()),
    ("ablate-mappings", || exp::ablate_mappings::run().render()),
    ("ablate-ttl", || exp::ablate_ttl::run().render()),
    ("scalability", || exp::scalability::run().render()),
    ("ablate-rereg", || exp::ablate_rereg::run().render()),
    ("traced", || exp::traced::run().render()),
];

const TABLES_USAGE: &str = "[all | ID...]   deterministic virtual-time tables; no arguments = all";

fn tables(mut args: Args) -> Result<(), String> {
    let ids = args.operands()?;
    let lookup = |id: &String| TABLES.iter().find(|(name, _)| name == id);
    if let Some(unknown) = ids.iter().find(|id| *id != "all" && lookup(id).is_none()) {
        let known: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
        return Err(args.err(format!(
            "unknown experiment `{unknown}` (one subcommand per invocation)\n\
             known experiments: {}",
            known.join(" ")
        )));
    }
    let chosen: Vec<_> = if ids.is_empty() || ids.iter().any(|id| id == "all") {
        TABLES.iter().collect()
    } else {
        ids.iter().filter_map(lookup).collect()
    };
    for (name, run) in chosen {
        println!("=== experiment: {name} ===\n{}", run());
    }
    Ok(())
}

const TRACED_USAGE: &str = "traced [--out PATH]   the traced Table 3.1 row (E-T); hns-trace-v1";

fn traced(mut args: Args) -> Result<(), String> {
    let out: Option<String> = args.value("--out")?;
    args.done()?;
    println!("=== experiment: traced ===");
    let run = exp::traced::run();
    finish("trace", &run.render(), &run.to_json(), out.as_deref())
}

const CHAOS_USAGE: &str =
    "chaos [--crash] [--partition] [--latency-spike] [--seed N] [--out PATH] \
    [--timeline-out PATH] [--timeline-window-ms MS]   fault injection (E-C); hns-chaos-v1. \
    No selector = all three faults; --timeline-out also runs the windowed scenario (E-TL) \
    with the same faults and writes its hns-timeline-v1";

fn chaos(mut args: Args) -> Result<(), String> {
    let mut config = exp::chaos::ChaosConfig::default();
    let picked = [
        args.switch("--crash"),
        args.switch("--partition"),
        args.switch("--latency-spike"),
    ];
    if picked.contains(&true) {
        [config.crash, config.partition, config.latency_spike] = picked;
    }
    args.set("--seed", &mut config.seed)?;
    let out: Option<String> = args.value("--out")?;
    let timeline_out: Option<String> = args.value("--timeline-out")?;
    let mut window_ms = exp::timeline::DEFAULT_WINDOW_MS;
    args.set("--timeline-window-ms", &mut window_ms)?;
    args.require(window_ms > 0, "--timeline-window-ms must be positive")?;
    args.done()?;

    println!("=== experiment: chaos ===");
    let run = exp::chaos::run(&config);
    finish("chaos", &run.render(), &run.to_json(), out.as_deref())?;
    if let Some(path) = timeline_out {
        println!("=== experiment: chaos timeline ===");
        let tl = exp::timeline::run(&exp::timeline::TimelineConfig {
            chaos: config,
            window_ms,
        });
        finish("timeline", &tl.render(), &tl.to_json(), Some(&path))?;
    }
    Ok(())
}

const REGISTER_USAGE: &str = "register [--names N] [--max-depth D] [--warm-resolves W] \
    [--staleness-rounds R] [--seed N] [--out PATH]   the regd write path (E-R); hns-reg-v1";

fn register(mut args: Args) -> Result<(), String> {
    let mut config = exp::register::RegisterConfig::default();
    args.set("--names", &mut config.names)?;
    args.set("--max-depth", &mut config.max_depth)?;
    args.set("--warm-resolves", &mut config.warm_resolves)?;
    args.set("--staleness-rounds", &mut config.staleness_rounds)?;
    args.set("--seed", &mut config.seed)?;
    let out: Option<String> = args.value("--out")?;
    args.require(config.names > 0, "--names must be positive")?;
    args.done()?;

    println!("=== experiment: register ===");
    let run = exp::register::run(&config);
    finish("register", &run.render(), &run.to_json(), out.as_deref())
}

const SCALE_USAGE: &str = "scale [--scale-names A,B,..] [--scale-queries N] [--scale-updates K] \
    [--seed N] [--out PATH]   the million-name sweep (E-S); hns-scale-v1";

fn scale(mut args: Args) -> Result<(), String> {
    let mut config = exp::scale::ScaleConfig::default();
    args.set_list("--scale-names", &mut config.names)?;
    args.set("--scale-queries", &mut config.queries)?;
    args.set("--scale-updates", &mut config.updates)?;
    args.set("--seed", &mut config.seed)?;
    let out: Option<String> = args.value("--out")?;
    let positive = config.names.iter().all(|&n| n > 0) && config.queries > 0 && config.updates > 0;
    args.require(
        positive,
        "--scale-names, --scale-queries and --scale-updates must be positive",
    )?;
    args.done()?;

    println!("=== experiment: scale ===");
    let run = exp::scale::run(&config);
    finish("scale", &run.render(), &run.to_json(), out.as_deref())
}

const FUZZ_USAGE: &str = "fuzz [--iters N] [--seed N] [--regen-corpus]   verify the golden wire \
    corpus, then run the seeded mutation fuzzer (TESTING.md); --regen-corpus first rewrites \
    crates/conformance/corpus/ from the encoders";

fn fuzz(mut args: Args) -> Result<(), String> {
    let mut config = conformance::fuzz::FuzzConfig {
        iters: 5_000,
        seed: 0,
    };
    args.set("--iters", &mut config.iters)?;
    args.set("--seed", &mut config.seed)?;
    let regen_corpus = args.switch("--regen-corpus");
    args.require(config.iters > 0, "--iters must be positive")?;
    args.done()?;

    println!("=== conformance: fuzz ===");
    if regen_corpus {
        let changed = conformance::corpus::regenerate()
            .map_err(|e| format!("corpus regeneration failed: {e}"))?;
        println!("corpus regenerated; {} file(s) changed", changed.len());
        for f in changed {
            println!("  {f}");
        }
    }
    let corpus = conformance::corpus::check().map_err(|problems| problems.join("\nerror: "));
    if corpus.is_ok() {
        println!("golden corpus: canonical");
    }
    let report = conformance::fuzz::run(config);
    println!("{}", report.render());
    corpus?;
    if !report.alloc_tracked {
        return Err("fuzz: no counting allocator installed, so no budget was enforced".into());
    }
    let violations = "fuzz: property violations (see the report above)";
    report.ok().then_some(()).ok_or_else(|| violations.into())
}

const WORK_USAGE: &str = "work   allocations, bytes and remote calls an op of the warm and cold \
    query mixes, by pair kind and FindNSM outcome (E-W); committed as WORK_exact.txt";

fn work(args: Args) -> Result<(), String> {
    args.done()?;
    println!("=== experiment: work ===");
    print!("{}", exp::work::run());
    Ok(())
}

const MUTANTS_USAGE: &str = "mutants   apply each patch of crates/conformance/mutants/ to a \
    scratch copy under target/, run the test its header names, and count it killed, survived \
    or unbuildable; fails unless every patch is killed";

fn mutants(args: Args) -> Result<(), String> {
    args.done()?;
    println!("=== conformance: mutants ===");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (report, outcomes) = hns_bench::mutants::run(&root)?;
    print!("{report}");
    let killed = |outcome| outcome == hns_bench::mutants::Outcome::Killed;
    let unkilled = "mutants: a patch was not killed (see the report above)";
    outcomes
        .into_iter()
        .all(killed)
        .then_some(())
        .ok_or_else(|| unkilled.into())
}

const VALIDATE_USAGE: &str =
    "validate FILE...   check JSON exports against their schema rows (tag auto-detected)";

fn check_files(mut args: Args) -> Result<(), String> {
    let files = args.operands()?;
    args.require(!files.is_empty(), "validate requires at least one file")?;
    let mut invalid = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"));
        match text.and_then(|text| export::check(&text)) {
            Ok(tag) => println!("{path}: valid {tag} export"),
            Err(err) => {
                eprintln!("error: {path}: {err}");
                invalid += 1;
            }
        }
    }
    if invalid > 0 {
        return Err(format!("{invalid} of {} file(s) invalid", files.len()));
    }
    Ok(())
}

type Subcommand = (&'static str, &'static str, fn(Args) -> Result<(), String>);

const SUBCOMMANDS: &[Subcommand] = &[
    ("traced", TRACED_USAGE, traced),
    ("chaos", CHAOS_USAGE, chaos),
    ("register", REGISTER_USAGE, register),
    ("scale", SCALE_USAGE, scale),
    ("fuzz", FUZZ_USAGE, fuzz),
    ("work", WORK_USAGE, work),
    ("mutants", MUTANTS_USAGE, mutants),
    ("validate", VALIDATE_USAGE, check_files),
];

fn main() {
    let mut rest: Vec<String> = std::env::args().skip(1).collect();
    let named = rest
        .first()
        .and_then(|first| SUBCOMMANDS.iter().find(|(name, ..)| name == first));
    let result = match named {
        Some(&(_, usage, run)) => {
            rest.remove(0);
            run(Args { usage, rest })
        }
        // Anything else must be a list of table ids; the error for what is
        // not one also lists the subcommands.
        None => {
            let usage = TABLES_USAGE;
            tables(Args { usage, rest }).map_err(|err| {
                let more = SUBCOMMANDS.iter().map(|(_, usage, _)| *usage);
                more.fold(err, |err, usage| {
                    format!("{err}\n       experiments {usage}")
                })
            })
        }
    };
    if let Err(err) = result {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
}
