//! The per-op bookkeeping inlines into every crate that calls it.
//!
//! A query charges virtual time, reads the clock, adds to counters and
//! records into histograms dozens of times (DESIGN.md "Bookkeeping costs
//! no call"). Those functions live in `simnet` and `obs`, and a call from
//! another crate to a non-generic function is out of line unless the
//! function is marked `#[inline]`. So each fast path named below must
//! carry `#[inline]` (`CostModel::price`, a `match` on the term its
//! caller names, `#[inline(always)]`), and each slow path split off it —
//! first-use registration, the by-name registry forms, the work done only
//! while tracing is on — must carry `#[cold]`. This fails, naming the function,
//! when one has lost its attribute. The search is grep-level, like
//! `tests/pinned.rs`.

use std::path::PathBuf;

/// A function, where it is defined, and the attribute it must carry.
struct Marked {
    file: &'static str,
    /// The type, or the trait and type, whose `impl` block holds it, as
    /// that block's opening line spells it; `""` for a free function.
    owner: &'static str,
    function: &'static str,
    /// The attribute, as written on its own line.
    attribute: &'static str,
}

const fn inline(file: &'static str, owner: &'static str, function: &'static str) -> Marked {
    let attribute = "#[inline]";
    Marked {
        file,
        owner,
        function,
        attribute,
    }
}

/// A function whose body is a large `match` on an argument every caller
/// passes as a constant: the hint is not enough, since the inliner costs
/// the whole `match` before it sees the constant.
const fn always(file: &'static str, owner: &'static str, function: &'static str) -> Marked {
    let attribute = "#[inline(always)]";
    Marked {
        file,
        owner,
        function,
        attribute,
    }
}

const fn cold(file: &'static str, owner: &'static str, function: &'static str) -> Marked {
    let attribute = "#[cold]";
    Marked {
        file,
        owner,
        function,
        attribute,
    }
}

const WORLD: &str = "crates/simnet/src/world.rs";
const COSTS: &str = "crates/simnet/src/costs.rs";
const CLOCK: &str = "crates/simnet/src/clock.rs";
const TIME: &str = "crates/simnet/src/time.rs";
const METRICS: &str = "crates/obs/src/metrics.rs";
const TRACE: &str = "crates/obs/src/trace.rs";

const MARKED: &[Marked] = &[
    inline(WORLD, "World", "now"),
    inline(WORLD, "World", "charge"),
    inline(WORLD, "World", "wait"),
    always(COSTS, "CostModel", "price"),
    inline(WORLD, "World", "trace"),
    inline(WORLD, "World", "span_lazy"),
    inline(WORLD, "World", "cache_outcome"),
    inline(WORLD, "World", "count_remote_call"),
    inline(WORLD, "World", "count_local_call"),
    inline(WORLD, "World", "count_ns_lookup"),
    inline(WORLD, "World", "faults"),
    inline(WORLD, "WorldSpan<'_>", "add_round_trips"),
    inline(WORLD, "Drop for WorldSpan<'_>", "drop"),
    cold(WORLD, "World", "record"),
    cold(WORLD, "World", "open_span"),
    cold(WORLD, "World", "installed_faults"),
    inline(CLOCK, "VirtualClock", "now"),
    inline(CLOCK, "VirtualClock", "advance"),
    inline(TIME, "SimTime", "from_us"),
    inline(TIME, "SimTime", "as_us"),
    inline(TIME, "SimTime", "since"),
    inline(TIME, "SimDuration", "from_us"),
    inline(TIME, "SimDuration", "from_ms"),
    inline(TIME, "SimDuration", "from_ms_f64"),
    inline(TIME, "SimDuration", "as_us"),
    inline(TIME, "Add<SimDuration> for SimTime", "add"),
    inline(TIME, "Add for SimDuration", "add"),
    inline(TIME, "Sub for SimDuration", "sub"),
    inline(METRICS, "", "ms_to_us"),
    inline(METRICS, "", "bucket_of"),
    inline(METRICS, "Counter", "inc"),
    inline(METRICS, "Counter", "add"),
    inline(METRICS, "Counter", "value"),
    inline(METRICS, "LazyCounter", "get"),
    inline(METRICS, "LazyCounter", "value"),
    inline(METRICS, "LazyHistogram", "get"),
    inline(METRICS, "Histogram", "record"),
    inline(METRICS, "Cells", "record_owned"),
    cold(METRICS, "LazyCounter", "register"),
    cold(METRICS, "LazyHistogram", "register"),
    cold(METRICS, "Cells", "record_shared"),
    cold(METRICS, "MetricsRegistry", "inc"),
    cold(METRICS, "MetricsRegistry", "add"),
    cold(METRICS, "MetricsRegistry", "record"),
    inline(TRACE, "Tracer", "is_enabled"),
    inline(TRACE, "Tracer", "annotate_cache"),
    cold(TRACE, "Tracer", "annotate_current"),
];

/// The lines of `text` that can hold `owner`'s items: its `impl` block,
/// from `impl {owner} {` at column 0 to the closing `}` at column 0, or
/// for `""` every line before the test module.
fn block_lines<'a>(text: &'a str, owner: &str) -> Option<Vec<&'a str>> {
    let lines = text.lines();
    if owner.is_empty() {
        return Some(
            lines
                .take_while(|l| !l.starts_with("#[cfg(test)]"))
                .collect(),
        );
    }
    let block = format!("impl {owner} {{");
    let mut lines = lines.skip_while(|l| *l != block);
    lines.next()?;
    Some(lines.take_while(|l| *l != "}").collect())
}

/// The attributes and doc lines heading the definition of `function` in
/// `lines`, or `None` when `lines` defines no such function.
fn heading<'a>(lines: &[&'a str], function: &str) -> Option<Vec<&'a str>> {
    let defines = |line: &str| {
        let line = line.trim_start();
        let line = line.strip_prefix("pub ").unwrap_or(line);
        let line = line.strip_prefix("const ").unwrap_or(line);
        line.strip_prefix("fn ")
            .and_then(|rest| rest.strip_prefix(function))
            .is_some_and(|rest| rest.starts_with('(') || rest.starts_with('<'))
    };
    let at = lines.iter().position(|line| defines(line))?;
    // Back to the end of the item before: an attribute's or a comment's
    // lines are the heading, whatever they end with.
    let start = lines[..at]
        .iter()
        .rposition(|line| {
            let line = line.trim();
            let heading = line.starts_with("#[") || line.starts_with("//");
            line.is_empty() || (!heading && (line.ends_with(['{', '}', ';'])))
        })
        .map_or(0, |before| before + 1);
    Some(lines[start..at].to_vec())
}

#[test]
fn every_bookkeeping_fast_path_is_inline_and_its_slow_path_cold() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut faults = Vec::new();
    for marked in MARKED {
        let text = std::fs::read_to_string(root.join(marked.file)).expect("a source");
        let form = match marked.owner {
            "" => marked.function.to_string(),
            owner => format!("{owner}::{}", marked.function),
        };
        let Some(lines) = block_lines(&text, marked.owner) else {
            faults.push(format!(
                "{}: no `impl {} {{` block",
                marked.file, marked.owner
            ));
            continue;
        };
        match heading(&lines, marked.function) {
            None => faults.push(format!("`{form}`: not defined in {}", marked.file)),
            Some(heading) if !heading.iter().any(|l| l.trim() == marked.attribute) => {
                let (file, attribute) = (marked.file, marked.attribute);
                faults.push(format!("`{form}` ({file}) has lost its `{attribute}`"));
            }
            Some(_) => {}
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}

/// The search finds what it is asked about, and only there.
#[test]
fn the_search_reads_the_heading_of_the_named_function() {
    let text = "impl A {\n    /// Doc.\n    #[inline]\n    pub fn f(&self) {}\n\n    fn g(&self) {}\n}\n\nimpl B {\n    #[expect(\n        x,\n        reason = \"y\"\n    )]\n    #[cold]\n    pub const fn f<T>() {}\n}\n";
    let a = block_lines(text, "A").expect("block A");
    assert_eq!(
        heading(&a, "f"),
        Some(vec!["    /// Doc.", "    #[inline]"])
    );
    assert_eq!(heading(&a, "g"), Some(vec![]));
    assert_eq!(heading(&a, "h"), None);
    let b = block_lines(text, "B").expect("block B");
    let f = heading(&b, "f").expect("f in B");
    assert!(
        f.iter().any(|l| l.trim() == "#[cold]") && f.len() == 5,
        "{f:?}"
    );
    assert!(block_lines(text, "C").is_none());
}
