//! The `experiments` binary's argument shape, end to end: exactly one
//! subcommand per invocation, every argument error reported before
//! anything runs, every export checked before it is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The start of `loadgen`'s one-line usage, as every refusal prints it.
const LOADGEN_USAGE: &str = "usage: experiments loadgen [--offered-qps Q1,Q2,..]";

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
        &["loadgen", "--open-thread", "4"],
        &["`--open-thread`", LOADGEN_USAGE],
    );
    refused(
        "other-subcommands-flag",
        &["scale", "--open-threads", "2", "--out", "s.json"],
        &[
            "`--open-threads`",
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
}

#[test]
fn loadgen_refuses_bad_load_arguments_and_the_deleted_flags() {
    let cases = [
        ("--open-threads", "0", "--open-threads must be positive"),
        (
            "--open-duration-ms",
            "0",
            "--open-duration-ms must be positive",
        ),
        ("--open-window-ms", "0", "--open-window-ms must be positive"),
        ("--offered-qps", "5000,0", "--offered-qps must be positive"),
        ("--offered-qps", "nan", "--offered-qps must be positive"),
        ("--cold", "1.5", "--cold must be within [0, 1]"),
        ("--cold", "nan", "--cold must be within [0, 1]"),
        ("--bind", "-1", "--bind must be within [0, 1]"),
        ("--write-frac", "2", "--write-frac must be within [0, 1]"),
        (
            "--transfer-frac",
            "-0.1",
            "--transfer-frac must be within [0, 1]",
        ),
        // The closed-loop sweep and its baseline guard are gone; their
        // flags are unknown, not ignored.
        ("--threads", "1,2", "unknown or repeated flag `--threads`"),
        ("--ops", "500", "unknown or repeated flag `--ops`"),
        (
            "--duration-ms",
            "50",
            "unknown or repeated flag `--duration-ms`",
        ),
        (
            "--baseline",
            "b.json",
            "unknown or repeated flag `--baseline`",
        ),
        ("--regress", "0.5", "unknown or repeated flag `--regress`"),
    ];
    for (flag, value, complaint) in cases {
        let args = ["loadgen", "--out", "l.json", flag, value];
        refused(flag, &args, &[complaint, LOADGEN_USAGE]);
    }
}

#[test]
fn all_prints_the_committed_tables_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read(root.join("experiments_output.txt")).expect("committed output");
    let out = experiments(&root, &["all"]);
    assert!(out.status.success());
    assert!(
        out.stdout == committed,
        "`experiments all` differs from experiments_output.txt:\n{}",
        String::from_utf8_lossy(&out.stdout)
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
    let out = experiments(&scratch.0, &["validate", "bad.json", "absent.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr.contains("bad.json: config.names: missing"),
        "{stderr}"
    );
    assert!(stderr.contains("absent.json: read:"), "{stderr}");
    assert!(stderr.contains("2 of 2 file(s) invalid"), "{stderr}");
}

#[test]
fn the_committed_bench_files_validate_unedited() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = experiments(
        &root,
        &["validate", "BENCH_throughput.json", "BENCH_scale.json"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("BENCH_throughput.json: valid hns-load-v3 export"),
        "{stdout}"
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
    use hns_bench::obs::json;

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |file: &str| std::fs::read_to_string(root.join(file)).expect(file);
    let parse = |file: &str| json::parse(&read(file)).unwrap_or_else(|e| panic!("{file}: {e:?}"));
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
