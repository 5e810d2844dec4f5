//! The `experiments` binary's argument shape, end to end: exactly one
//! subcommand per invocation, every argument error reported before
//! anything runs, every export checked before it is written, every
//! command the docs show accepted; and the committed bench files hold.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use hns_bench::obs::json;

/// The start of `register`'s one-line usage, as every refusal prints it.
const REGISTER_USAGE: &str = "usage: experiments register [--names N]";

/// The documents whose fenced `experiments …` commands must parse.
const DOCS: &[&str] = &[
    "README.md",
    "EXPERIMENTS.md",
    "TESTING.md",
    "OBSERVABILITY.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(file: &str) -> String {
    std::fs::read_to_string(repo_root().join(file)).expect(file)
}

fn parse(file: &str) -> json::Value {
    json::parse(&read(file)).unwrap_or_else(|e| panic!("{file}: {e:?}"))
}

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("hns-cli-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn files(&self) -> Vec<String> {
        let entries = std::fs::read_dir(&self.0).expect("scratch dir");
        let mut names: Vec<String> = entries
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        names.sort();
        names
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn experiments(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("experiments runs")
}

/// `args` is refused with exit 1 and a message holding every `expected`
/// fragment, before anything ran: nothing on stdout, no file written.
fn refused(test: &str, args: &[&str], expected: &[&str]) {
    let scratch = Scratch::new(test);
    let out = experiments(&scratch.0, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    for fragment in expected {
        assert!(
            stderr.contains(fragment),
            "{args:?}: no `{fragment}` in:\n{stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    assert_eq!(
        scratch.files(),
        Vec::<String>::new(),
        "{args:?} wrote a file"
    );
}

#[test]
fn two_subcommands_in_one_invocation_are_refused() {
    // Two exporting subcommands share one `--out`: running both would let
    // the second export overwrite the first.
    refused(
        "two-subcommands",
        &["chaos", "register", "--out", "x.json"],
        &["unexpected argument `register`", "usage: experiments chaos"],
    );
    refused(
        "table-and-subcommand",
        &["table31", "chaos"],
        &["unknown experiment `chaos`", "known experiments: table31"],
    );
}

#[test]
fn a_bad_flag_is_refused_before_anything_runs() {
    // A misspelt flag must not cost a full default sweep before it is named.
    refused(
        "unknown-flag",
        &["register", "--name", "4", "--out", "r.json"],
        &["`--name`", REGISTER_USAGE],
    );
    refused(
        "other-subcommands-flag",
        &["scale", "--names", "2", "--out", "s.json"],
        &[
            "`--names`",
            "usage: experiments scale [--scale-names A,B,..]",
        ],
    );
    refused(
        "missing-value",
        &["chaos", "--seed", "7", "--out"],
        &["--out requires a value", "usage: experiments chaos"],
    );
    refused(
        "value-is-a-flag",
        &["register", "--names", "--seed", "3"],
        &["--names requires a value", "usage: experiments register"],
    );
    refused(
        "repeated-flag",
        &["chaos", "--seed", "1", "--seed", "2"],
        &["repeated flag `--seed`", "usage: experiments chaos"],
    );
    refused(
        "unparsable-value",
        &["fuzz", "--iters", "many"],
        &["--iters: cannot parse `many`", "usage: experiments fuzz"],
    );
    refused(
        "flag-of-a-flagless-subcommand",
        &["work", "--seed", "1"],
        &[
            "unknown or repeated flag `--seed`",
            "usage: experiments work",
        ],
    );
}

#[test]
fn bad_values_and_deleted_flags_are_refused_with_the_usage_line() {
    let cases: [(&str, &[&str], &[&str]); 7] = [
        (
            "zero-names",
            &["register", "--names", "0", "--out", "r.json"],
            &["--names must be positive", REGISTER_USAGE],
        ),
        (
            "zero-scale",
            &["scale", "--scale-names", "1000,0", "--out", "s.json"],
            &["must be positive", "usage: experiments scale"],
        ),
        (
            "zero-iters",
            &["fuzz", "--iters", "0"],
            &["--iters must be positive", "usage: experiments fuzz"],
        ),
        (
            "zero-window",
            &["chaos", "--timeline-window-ms", "0", "--out", "c.json"],
            &[
                "--timeline-window-ms must be positive",
                "usage: experiments chaos",
            ],
        ),
        // The open-loop load engine is gone (open-loop load is
        // `benchmark/`'s `open_mixed`); its name and its flags are
        // unknown, not ignored.
        (
            "deleted-subcommand",
            &["loadgen"],
            &["unknown experiment `loadgen`", "known experiments: table31"],
        ),
        (
            "deleted-switch",
            &["chaos", "--faults", "--out", "c.json"],
            &[
                "unknown or repeated flag `--faults`",
                "usage: experiments chaos",
            ],
        ),
        (
            "deleted-value-flag",
            &["register", "--write-frac", "0.3", "--out", "r.json"],
            &["unknown or repeated flag `--write-frac`", REGISTER_USAGE],
        ),
    ];
    for (test, args, expected) in cases {
        refused(test, args, expected);
    }
}

/// The table ids and every subcommand's usage line, by name, as the
/// refusal of an unknown experiment lists them — nothing runs.
fn cli_surface() -> (Vec<String>, Vec<(String, String)>) {
    let out = experiments(&repo_root(), &["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let (mut ids, mut usages) = (Vec::new(), Vec::new());
    for line in stderr.lines() {
        if let Some(known) = line.strip_prefix("known experiments: ") {
            ids = known.split_whitespace().map(str::to_string).collect();
        } else if let Some((_, usage)) = line.split_once("experiments ") {
            let name = usage.split_whitespace().next().unwrap_or_default();
            usages.push((name.to_string(), usage.to_string()));
        }
    }
    ids.push("all".to_string());
    (ids, usages)
}

/// The `--flag`s a usage line names.
fn flags_of(usage: &str) -> BTreeSet<&str> {
    let words = usage
        .split_whitespace()
        .map(|w| w.trim_matches(['[', ']', '.', ',']));
    words.filter(|w| w.starts_with("--")).collect()
}

/// The argument words of every `experiments …` command in a fenced block
/// of `doc`: a command is `experiments` first on its line or after
/// `--bin`, continued over trailing `\`, up to a shell operator or a
/// comment.
fn documented_commands(doc: &str) -> Vec<Vec<String>> {
    let (mut fenced, mut commands, mut pending) = (false, Vec::new(), String::new());
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            continue;
        }
        pending.push_str(line.trim_end_matches('\\'));
        pending.push(' ');
        if line.ends_with('\\') {
            continue;
        }
        let joined = std::mem::take(&mut pending);
        let words: Vec<&str> = joined.split_whitespace().collect();
        let at = words
            .iter()
            .enumerate()
            .position(|(i, w)| *w == "experiments" && (i == 0 || words[i - 1] == "--bin"));
        let Some(at) = at else { continue };
        let args = words[at + 1..].iter().skip_while(|w| **w == "--");
        let args =
            args.take_while(|w| !["|", ">", "&&", "||", ";"].contains(w) && !w.starts_with('#'));
        commands.push(args.map(|w| w.to_string()).collect());
    }
    commands
}

/// Every `experiments …` command the docs show in a fenced block names a
/// known subcommand (or table ids), and only flags its usage line lists —
/// checked against the binary's own usage lines, without running
/// anything. A documented command for a deleted subcommand or flag fails
/// here.
#[test]
fn every_documented_command_parses() {
    let (table_ids, usages) = cli_surface();
    let mut checked = 0;
    for doc in DOCS {
        for args in documented_commands(&read(doc)) {
            let shown = format!("{doc}: `experiments {}`", args.join(" "));
            let sub = args.first().map_or("all", String::as_str);
            checked += 1;
            let Some((_, usage)) = usages.iter().find(|(name, _)| name == sub) else {
                let unknown = args.iter().find(|a| !table_ids.contains(a));
                assert!(unknown.is_none(), "{shown}: unknown experiment {unknown:?}");
                continue;
            };
            let known = flags_of(usage);
            for flag in args.iter().filter(|a| a.starts_with("--")) {
                assert!(
                    known.contains(flag.as_str()),
                    "{shown}: `{flag}` is not in `{usage}`"
                );
            }
        }
    }
    assert!(checked >= 20, "only {checked} documented commands found");

    // The whole CLI surface, as the usage lines state it.
    let all_flags: BTreeSet<&str> = usages
        .iter()
        .flat_map(|(_, usage)| flags_of(usage))
        .collect();
    assert_eq!(all_flags.len(), 16, "{all_flags:?}");
}

#[test]
fn all_prints_the_committed_tables_byte_for_byte() {
    let committed = read("experiments_output.txt").into_bytes();
    let out = experiments(&repo_root(), &["all"]);
    assert!(out.status.success());
    assert!(
        out.stdout == committed,
        "`experiments all` differs from experiments_output.txt:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `experiments work` prints the committed work record byte for byte.
/// Every count in it is deterministic, so a moved line is moved work:
/// re-run it and commit the output only for an intended change, saying
/// which lines moved and why.
#[test]
fn work_prints_the_committed_record_byte_for_byte() {
    let committed = read("WORK_exact.txt");
    let out = experiments(&repo_root(), &["work"]);
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout);
    let moved: Vec<String> = committed
        .lines()
        .zip(printed.lines())
        .filter(|(was, now)| was != now)
        .map(|(was, now)| format!("- {was}\n+ {now}"))
        .collect();
    assert!(
        printed == committed,
        "`experiments work` differs from WORK_exact.txt ({} lines against {}):\n{}",
        printed.lines().count(),
        committed.lines().count(),
        moved.join("\n")
    );
}

#[test]
fn chaos_writes_both_exports_and_validate_accepts_them() {
    let scratch = Scratch::new("chaos-exports");
    let args = ["chaos", "--out", "c.json", "--timeline-out", "t.json"];
    let run = experiments(&scratch.0, &args);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(scratch.files(), ["c.json", "t.json"]);
    let checked = experiments(&scratch.0, &["validate", "c.json", "t.json"]);
    let stdout = String::from_utf8_lossy(&checked.stdout);
    assert!(checked.status.success(), "{stdout}");
    assert!(
        stdout.contains("c.json: valid hns-chaos-v1 export"),
        "{stdout}"
    );
    assert!(
        stdout.contains("t.json: valid hns-timeline-v1 export"),
        "{stdout}"
    );
}

#[test]
fn validate_names_the_failing_path_and_exits_1() {
    let scratch = Scratch::new("validate-bad");
    let bad = "{\"schema\": \"hns-scale-v1\", \"config\": {}, \"points\": []}";
    std::fs::write(scratch.0.join("bad.json"), bad).expect("write");
    // 120 KB of nested arrays: named like any other bad file, not a
    // stack overflow.
    let deep = "[".repeat(60_000) + &"]".repeat(60_000);
    std::fs::write(scratch.0.join("deep.json"), deep).expect("write");
    let args = ["validate", "bad.json", "absent.json", "deep.json"];
    let out = experiments(&scratch.0, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("bad.json: config.names: missing"),
        "{stderr}"
    );
    assert!(stderr.contains("absent.json: read:"), "{stderr}");
    assert!(
        stderr.contains(
            "deep.json: JSON parse error at byte 128: arrays and objects nest too deeply"
        ),
        "{stderr}"
    );
    assert!(stderr.contains("3 of 3 file(s) invalid"), "{stderr}");
}

#[test]
fn the_committed_bench_files_validate_unedited() {
    let out = experiments(&repo_root(), &["validate", "BENCH_scale.json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("BENCH_scale.json: valid hns-scale-v1 export"),
        "{stdout}"
    );
}

/// `BENCH_trajectory.json` is the committed record of every claimed
/// gain: one row per claimed PR, in PR order, each about an end-to-end
/// metric of a workload `BENCHMARK.json` declares — and no PR whose
/// CHANGES.md line says `perf_opt` is missing from it.
#[test]
fn the_committed_trajectory_has_a_row_for_every_claimed_pr() {
    let (trajectory, benchmark) = (parse("BENCH_trajectory.json"), parse("BENCHMARK.json"));
    let declared = |list: &str| -> Vec<(String, Option<String>)> {
        let entries = benchmark.get(list).and_then(json::Value::as_array);
        let text = |entry: &json::Value, key: &str| {
            let value = entry.get(key).and_then(json::Value::as_str);
            value.map(str::to_string)
        };
        let named = |entry| (text(entry, "name").expect("a name"), text(entry, "unit"));
        entries.expect(list).iter().map(named).collect()
    };
    let (workloads, metrics) = (declared("workloads"), declared("end_to_end"));

    let rows = trajectory.get("rows").and_then(json::Value::as_array);
    let mut prs = Vec::new();
    for row in rows.expect("rows") {
        let text = |key: &str| row.get(key).and_then(json::Value::as_str);
        let count = |key: &str| row.get(key).and_then(json::Value::as_u64);
        let pr = count("pr").expect("pr");
        let workload = text("workload").expect("workload");
        assert!(
            workloads.iter().any(|(w, _)| w == workload),
            "PR {pr}: {workload}"
        );
        let (metric, unit) = (text("metric").expect("metric"), text("unit"));
        assert!(
            metrics
                .iter()
                .any(|(m, u)| m == metric && u.as_deref() == unit),
            "PR {pr}: {metric}"
        );
        for median in ["parent_median", "change_median"] {
            let read = row.get(median).and_then(json::Value::as_f64);
            assert!(read.is_some_and(|v| v > 0.0), "PR {pr}: {median}");
        }
        let (won, pairs) = (count("pairs_won"), count("pairs"));
        assert!(
            won.is_some() && won <= pairs,
            "PR {pr}: {won:?} of {pairs:?}"
        );
        assert!(text("seeds").is_some(), "PR {pr}: seeds");
        assert!(count("run_seconds").is_some() && count("host_cores").is_some());
        prs.push(pr);
    }
    assert!(prs.windows(2).all(|w| w[0] < w[1]), "PR order: {prs:?}");

    for line in read("CHANGES.md")
        .lines()
        .filter(|l| l.contains("perf_opt"))
    {
        let entry = line.trim_start_matches("- ").strip_prefix("PR ");
        let digits = entry.map(|e| e.split(|c: char| !c.is_ascii_digit()).next());
        let pr: u64 = digits.flatten().and_then(|d| d.parse().ok()).expect(line);
        assert!(prs.contains(&pr), "PR {pr} claims a gain and has no row");
    }
}

/// The trajectory table of EXPERIMENTS.md, rendered from
/// `BENCH_trajectory.json`: one line per claimed gain.
fn trajectory_table(trajectory: &json::Value) -> String {
    let mut out = String::from(
        "| PR | workload | metric | parent → change (medians) | change / parent | pairs won | seeds |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let rows = trajectory.get("rows").and_then(json::Value::as_array);
    for row in rows.expect("rows") {
        let text = |key| row.get(key).and_then(json::Value::as_str).expect(key);
        let number = |key| row.get(key).and_then(json::Value::as_f64).expect(key);
        let (parent, change) = (number("parent_median"), number("change_median"));
        out.push_str(&format!(
            "| {} | `{}` | `{}` | {parent} → {change} {} | {:.2}× | {}/{} | {} |\n",
            number("pr"),
            text("workload"),
            text("metric"),
            text("unit"),
            change / parent,
            number("pairs_won"),
            number("pairs"),
            text("seeds"),
        ));
    }
    out
}

/// EXPERIMENTS.md carries the table [`trajectory_table`] renders from the
/// committed file, byte for byte, so the two cannot drift.
#[test]
fn the_trajectory_table_in_the_docs_matches_the_committed_file() {
    let table = trajectory_table(&parse("BENCH_trajectory.json"));
    assert!(
        read("EXPERIMENTS.md").contains(&table),
        "EXPERIMENTS.md's trajectory table differs from BENCH_trajectory.json; it should read:\n{table}"
    );
}
