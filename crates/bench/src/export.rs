//! The one export path: a table with one row per JSON export schema and
//! one checker that walks any document against its row.
//!
//! A row describes its document declaratively, in a notation shaped like
//! the JSON it describes:
//!
//! ```text
//! b u n s          bool, unsigned integer, finite number, string
//! {a,b:u c?:s}     object: `a` and `b` unsigned, `c` a string that may be
//!                  absent or null; members not named are ignored
//! [T]  [+T]  <T>   array of T; non-empty array; object whose keys are data
//! @name            a shape several rows share (`shared` below)
//! ```
//!
//! Beside the shape a row carries the few cross-field invariants that
//! are not shape. [`check`] auto-detects the `schema` tag, so a new
//! export is one more row here, not one more validator in every caller.
//! The `experiments` driver checks every export it writes against its
//! row before the file is written; `experiments validate FILE...` is the
//! same function over files.

use std::fmt::Write as _;

use crate::obs::json::{self, Value};

/// One row of the table: an export schema.
pub struct Schema {
    /// The document's `schema` tag.
    pub tag: &'static str,
    /// The `experiments` invocation that writes it.
    pub written_by: &'static str,
    /// The document's shape, in the notation above. A field is optional
    /// only where a committed producer omits it.
    pub shape: &'static str,
    /// Cross-field invariants, run on a document of the right shape.
    invariants: fn(&Value) -> Result<(), String>,
}

/// Every export schema the driver writes, one row each.
pub static SCHEMAS: [Schema; 6] = [
    Schema {
        tag: "hns-trace-v1",
        written_by: "traced --out",
        shape: "{schema:s queries:[+{label,flame:s remote_round_trips,duration_us:u}] \
                metrics:@metrics}",
        invariants: |_| Ok(()),
    },
    Schema {
        tag: "hns-load-v3",
        written_by: "loadgen --out",
        // Every `*_ns` field is wall-clock nanoseconds.
        shape: "{schema:s host:{cores:u os,arch:s} \
                config:{seed,open_threads,open_duration_ms:u \
                  zipf_s,cold_frac,bind_frac,write_frac,transfer_frac:n \
                  faults:b offered_qps:[+n]} \
                open_runs:[+{offered_qps,wall_secs,achieved_qps:n latency_ns,lateness_ns:@stats \
                  threads,duration_ms,scheduled,ops,errors,warm_ops,cold_ops,bind_ops,write_ops,\
                  transfer_ops,late_ops,backlog_max,window_ms:u \
                  windows:[+{index,ops,errors,late_ops,backlog_max,lateness_max_ns,sojourn_max_ns:u \
                    lateness_mean_ns,sojourn_mean_ns:n}]}]}",
        invariants: load_invariants,
    },
    Schema {
        tag: "hns-chaos-v1",
        written_by: "chaos --out",
        shape: "{schema:s config:{crash,partition,latency_spike:b seed:u} events:@events \
                outcomes:{stale_served,host_unreachable,nsm_failovers:u recovered:b} \
                metrics:@metrics}",
        invariants: |doc| labelled(doc, "events", "phase", &["baseline", "fault", "recovery"]),
    },
    Schema {
        tag: "hns-timeline-v1",
        written_by: "chaos --timeline-out",
        // `obs::Timeline::to_json` writes the bare sampler fields; the
        // chaos scenario adds the optional ones.
        shape: "{schema:s scenario?:s \
                config?:{crash,partition,latency_spike:b seed,window_ms:u} \
                interval_us,origin_us:u \
                windows:[{index,start_us,end_us:u counters:[{component,name:s delta:u}] \
                  histograms:[{component,name:s count,sum,p50,p95,p99:u}]}] \
                marks:[{at_us,window:u label:s}] series?:<[n]> \
                phases?:[{label:s from_us,until_us:u}] \
                recovery?:{fault_start_us,fault_clear_us,time_to_first_success_us,\
                  windows_to_baseline,mttr_us:u recovered:b}}",
        invariants: timeline_invariants,
    },
    Schema {
        tag: "hns-reg-v1",
        written_by: "register --out",
        shape: "{schema:s config:{names,max_depth,warm_resolves,staleness_rounds,seed:u} \
                events:@events \
                outcomes:{write_ops,chain_walks,collapse_hits,resolves,write_unreachable:u \
                  write_qps,hit_ratio:n chain_depth:{count,min,max,p50,p95,p99:u} \
                  staleness:{rounds,stale_reads:u mean_ms,max_ms:n} recovered:b} \
                metrics:@metrics}",
        invariants: |doc| {
            let phases = ["register", "transfer", "resolve", "staleness", "partition"];
            labelled(doc, "events", "phase", &phases)
        },
    },
    Schema {
        tag: "hns-scale-v1",
        written_by: "scale --out",
        shape: "{schema:s config:{names:[+u] queries,sample,hot,updates,seed:u} \
                points:[+{names,cells,contexts,records,resident_bytes,naive_bytes,queries,\
                  cache_hits,cache_misses:u \
                  resident_bytes_per_name,naive_bytes_per_name,virtual_secs,qps,hit_ratio:n \
                  preload:{full_bytes,full_records,full_serial,updates,incremental_bytes,\
                    incremental_records,incremental_serial:u incremental_mode:s}}]}",
        invariants: scale_invariants,
    },
];

/// The shapes more than one row embeds.
fn shared(name: &str) -> &'static str {
    match name {
        // A `HistogramStats` summary.
        "stats" => "{count,min,max,p50,p95,p99:u mean:n}",
        // `MetricsSnapshot::to_json`.
        "metrics" => {
            "{counters:[{component,name:s value:u}] \
              histograms:[{component,name:s count,sum,min,max,p50,p95,p99:u mean:n}]}"
        }
        // The phase/operation/outcome rows of the chaos and register runs.
        "events" => "[+{phase,label,outcome:s took_us:u}]",
        other => panic!("schema table: no shared shape `{other}`"),
    }
}

/// A parsed shape.
#[derive(Debug)]
enum Ty {
    Bool,
    Uint,
    Num,
    Str,
    Obj(Vec<Fields>),
    Arr { of: Box<Ty>, non_empty: bool },
    Map(Box<Ty>),
}

/// Same-typed members of one object.
#[derive(Debug)]
struct Fields {
    names: Vec<&'static str>,
    optional: bool,
    ty: Ty,
}

/// Recursive-descent parser over the unread rest of a shape. The table
/// is static, so a malformed shape is a bug: it panics, and the test
/// that checks a real export against every row trips over it.
struct Shape(&'static str);

impl Shape {
    fn eat(&mut self, c: char) -> bool {
        self.0 = self.0.trim_start();
        let rest = self.0.strip_prefix(c);
        self.0 = rest.unwrap_or(self.0);
        rest.is_some()
    }

    fn word(&mut self) -> &'static str {
        let text = self.0.trim_start();
        let end = text.find(|c: char| c != '_' && !c.is_ascii_alphanumeric());
        let (word, rest) = text.split_at(end.unwrap_or(text.len()));
        self.0 = rest;
        word
    }

    fn expect(&mut self, c: char) {
        assert!(self.eat(c), "schema table: `{c}` expected at `{}`", self.0);
    }

    fn ty(&mut self) -> Ty {
        if self.eat('{') {
            let mut fields = Vec::new();
            while !self.eat('}') {
                let mut names = vec![self.word()];
                while self.eat(',') {
                    names.push(self.word());
                }
                let optional = self.eat('?');
                self.expect(':');
                let ty = self.ty();
                fields.push(Fields {
                    names,
                    optional,
                    ty,
                });
            }
            Ty::Obj(fields)
        } else if self.eat('[') {
            let non_empty = self.eat('+');
            let of = Box::new(self.ty());
            self.expect(']');
            Ty::Arr { of, non_empty }
        } else if self.eat('<') {
            let of = Box::new(self.ty());
            self.expect('>');
            Ty::Map(of)
        } else if self.eat('@') {
            Shape(shared(self.word())).ty()
        } else {
            match self.word() {
                "b" => Ty::Bool,
                "u" => Ty::Uint,
                "n" => Ty::Num,
                "s" => Ty::Str,
                other => panic!("schema table: no type `{other}` before `{}`", self.0),
            }
        }
    }
}

/// Checks `v` against `ty`; `path` names `v` and is restored on return.
fn walk(v: &Value, ty: &Ty, path: &mut String) -> Result<(), String> {
    let (ok, expected) = match ty {
        Ty::Bool => (v.as_bool().is_some(), "bool"),
        Ty::Uint => (v.as_u64().is_some(), "unsigned integer"),
        Ty::Num => (v.as_f64().is_some_and(f64::is_finite), "number"),
        Ty::Str => (v.as_str().is_some(), "string"),
        Ty::Obj(_) | Ty::Map(_) => (matches!(v, Value::Object(_)), "object"),
        Ty::Arr { non_empty, .. } => match v.as_array() {
            Some(items) if *non_empty => (!items.is_empty(), "non-empty array"),
            items => (items.is_some(), "array"),
        },
    };
    if !ok {
        return Err(format!("{path}: expected {expected}"));
    }
    let len = path.len();
    let child = |path: &mut String, v: &Value, ty: &Ty| {
        let result = walk(v, ty, path);
        path.truncate(len);
        result
    };
    match ty {
        Ty::Obj(fields) => {
            for f in fields {
                for name in &f.names {
                    path.push_str(if len > 0 { "." } else { "" });
                    path.push_str(name);
                    match v.get(name) {
                        None | Some(Value::Null) if f.optional => path.truncate(len),
                        None => return Err(format!("{path}: missing")),
                        Some(member) => child(path, member, &f.ty)?,
                    }
                }
            }
        }
        Ty::Map(of) => {
            for key in v.keys() {
                let _ = write!(path, "[{key:?}]");
                child(path, v.get(key).expect("own key"), of)?;
            }
        }
        Ty::Arr { of, .. } => {
            for (i, item) in v.as_array().expect("checked").iter().enumerate() {
                let _ = write!(path, "[{i}]");
                child(path, item, of)?;
            }
        }
        Ty::Bool | Ty::Uint | Ty::Num | Ty::Str => {}
    }
    Ok(())
}

/// Checks a parsed document against the row its `schema` tag names.
/// Returns the tag.
fn check_doc(doc: &Value) -> Result<&'static str, String> {
    let tag = match doc.get("schema") {
        Some(Value::String(tag)) => tag,
        Some(_) => return Err("schema: expected string".into()),
        None => return Err("schema: missing".into()),
    };
    let row = SCHEMAS
        .iter()
        .find(|row| row.tag == tag)
        .ok_or_else(|| format!("schema: unknown tag `{tag}`"))?;
    walk(doc, &Shape(row.shape).ty(), &mut String::new())?;
    (row.invariants)(doc)?;
    Ok(row.tag)
}

/// Parses `text` and checks it against the row its `schema` tag names —
/// the one function that decides whether an export is well-formed.
/// Returns the tag; the error names the failing path
/// (`points[3].preload.full_bytes: expected unsigned integer`).
pub fn check(text: &str) -> Result<&'static str, String> {
    check_doc(&json::parse(text).map_err(|e| e.to_string())?)
}

// Invariant helpers. They run after `walk`, so every field they read is
// present and of its declared type.

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or(&[])
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Every label in `required` is the `key` of some item of `list`.
fn labelled(doc: &Value, list: &str, key: &str, required: &[&str]) -> Result<(), String> {
    let present = |label| {
        let has = |item: &Value| item.get(key).and_then(Value::as_str) == Some(label);
        items(doc, list).iter().any(has)
    };
    match required.iter().find(|label| !present(label)) {
        Some(label) => Err(format!("{list}: no item with {key} `{label}`")),
        None => Ok(()),
    }
}

/// `windows[i].index == i`; `at` prefixes the path in the message.
fn contiguous(at: &str, parent: &Value) -> Result<(), String> {
    for (i, w) in items(parent, "windows").iter().enumerate() {
        if num(w, "index") != i as f64 {
            return Err(format!("{at}windows[{i}].index: expected {i} (contiguous)"));
        }
    }
    Ok(())
}

fn load_invariants(doc: &Value) -> Result<(), String> {
    for (i, run) in items(doc, "open_runs").iter().enumerate() {
        contiguous(&format!("open_runs[{i}]."), run)?;
    }
    Ok(())
}

fn timeline_invariants(doc: &Value) -> Result<(), String> {
    if num(doc, "interval_us") == 0.0 {
        return Err("interval_us: expected a positive width".into());
    }
    contiguous("", doc)?;
    let windows = items(doc, "windows");
    for (i, w) in windows.iter().enumerate() {
        if num(w, "end_us") < num(w, "start_us") {
            return Err(format!("windows[{i}].end_us: before start_us"));
        }
    }
    if let Some(series) = doc.get("series") {
        for name in series.keys() {
            let (len, want) = (items(series, name).len(), windows.len());
            if len != want {
                return Err(format!("series[{name:?}]: {len} values for {want} windows"));
            }
        }
    }
    if doc.get("phases").is_some() {
        labelled(doc, "phases", "label", &["baseline", "fault", "recovery"])?;
    }
    Ok(())
}

/// The two scale-out claims: compact storage beats the naive per-copy
/// accounting, and a warm client's incremental preload ships strictly
/// fewer bytes than the cold full transfer.
fn scale_invariants(doc: &Value) -> Result<(), String> {
    for (i, p) in items(doc, "points").iter().enumerate() {
        let preload = p.get("preload").expect("checked");
        let complaint = if num(p, "resident_bytes_per_name") >= num(p, "naive_bytes_per_name") {
            "resident_bytes_per_name: not below naive_bytes_per_name"
        } else if num(preload, "incremental_bytes") >= num(preload, "full_bytes") {
            "preload.incremental_bytes: not below full_bytes"
        } else if preload.get("incremental_mode").and_then(Value::as_str) != Some("incremental") {
            "preload.incremental_mode: expected `incremental`"
        } else {
            continue;
        };
        return Err(format!("points[{i}].{complaint}"));
    }
    Ok(())
}

/// The "Exports" table of EXPERIMENTS.md, rendered from [`SCHEMAS`]
/// (a test diffs the two): tag, writer, top-level fields — `[]` marks an
/// array, `{}` an object, `?` an optional field.
pub fn markdown_table() -> String {
    let mut out = String::from(
        "| Schema tag | Written by `experiments …` | Top-level fields |\n|---|---|---|\n",
    );
    for row in &SCHEMAS {
        let Ty::Obj(fields) = Shape(row.shape).ty() else {
            panic!("{}: a document is an object", row.tag);
        };
        let mut cells = Vec::new();
        for f in &fields {
            let kind = match f.ty {
                Ty::Arr { .. } => "[]",
                Ty::Obj(_) | Ty::Map(_) => "{}",
                Ty::Bool | Ty::Uint | Ty::Num | Ty::Str => "",
            };
            let optional = if f.optional { "?" } else { "" };
            cells.extend(
                f.names
                    .iter()
                    .map(|name| format!("`{name}{kind}{optional}`")),
            );
        }
        let _ = writeln!(
            out,
            "| `{}` | `{}` | {} |",
            row.tag,
            row.written_by,
            cells.join(" ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    use super::*;
    use crate::experiments::{chaos, register, scale, timeline, traced};
    use crate::loadgen;

    /// One real export per row, each from a small run of its producer.
    fn samples() -> &'static [Value] {
        static SAMPLES: OnceLock<Vec<Value>> = OnceLock::new();
        SAMPLES.get_or_init(|| {
            let load = loadgen::LoadConfig {
                offered_qps: vec![2_000.0],
                open_duration_ms: 50,
                open_window_ms: 10,
                ..loadgen::LoadConfig::default()
            };
            let scale_config = scale::ScaleConfig {
                names: vec![2000],
                queries: 64,
                sample: 16,
                hot: 4,
                updates: 2,
                seed: 3,
            };
            let texts = [
                traced::run().to_json(),
                loadgen::run(&load).to_json(),
                chaos::run(&chaos::ChaosConfig::default()).to_json(),
                timeline::run(&timeline::TimelineConfig::default()).to_json(),
                register::run(&register::RegisterConfig::default()).to_json(),
                scale::run(&scale_config).to_json(),
            ];
            texts
                .iter()
                .map(|text| json::parse(text).expect("export parses"))
                .collect()
        })
    }

    fn sample(tag: &str) -> Value {
        let found = samples().iter().find(|doc| check_doc(doc) == Ok(tag));
        found
            .unwrap_or_else(|| panic!("no sample for {tag}"))
            .clone()
    }

    /// The member of `v` at a `/`-separated path; digits index arrays.
    fn at<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
        path.split('/').fold(v, |v, seg| match v {
            Value::Object(map) => map.get_mut(seg).expect("member"),
            Value::Array(items) => &mut items[seg.parse::<usize>().expect("index")],
            _ => panic!("{seg}: not a container"),
        })
    }

    fn members(v: &mut Value) -> &mut BTreeMap<String, Value> {
        match v {
            Value::Object(map) => map,
            _ => panic!("not an object"),
        }
    }

    fn elements(v: &mut Value) -> &mut Vec<Value> {
        match v {
            Value::Array(items) => items,
            _ => panic!("not an array"),
        }
    }

    #[derive(Clone, Copy)]
    enum Edit {
        /// Remove a required field.
        Delete,
        /// Replace a number by a string.
        Stringify,
    }

    /// Applies `edit` to the `n`-th field of `v` it applies to — in the
    /// walker's order, first element of each array — and returns that
    /// field's path; `None` once `n` runs past the last one.
    fn edit_nth(v: &mut Value, ty: &Ty, n: &mut usize, path: &str, edit: Edit) -> Option<String> {
        match (ty, v) {
            (Ty::Obj(fields), Value::Object(map)) => {
                for f in fields {
                    for &name in &f.names {
                        if !map.contains_key(name) {
                            continue; // an absent optional field
                        }
                        let dot = if path.is_empty() { "" } else { "." };
                        let here = format!("{path}{dot}{name}");
                        let applies = match edit {
                            Edit::Delete => !f.optional,
                            Edit::Stringify => matches!(f.ty, Ty::Num | Ty::Uint),
                        };
                        if applies && *n == 0 {
                            match edit {
                                Edit::Delete => map.remove(name),
                                Edit::Stringify => {
                                    map.insert(name.to_string(), Value::String("fast".into()))
                                }
                            };
                            return Some(here);
                        }
                        *n -= usize::from(applies);
                        let field = map.get_mut(name).expect("present");
                        if let Some(hit) = edit_nth(field, &f.ty, n, &here, edit) {
                            return Some(hit);
                        }
                    }
                }
                None
            }
            (Ty::Arr { of, .. }, Value::Array(items)) => {
                edit_nth(items.first_mut()?, of, n, &format!("{path}[0]"), edit)
            }
            (Ty::Map(of), Value::Object(map)) => {
                let (key, first) = map.iter_mut().next()?;
                edit_nth(first, of, n, &format!("{path}[{key:?}]"), edit)
            }
            _ => None,
        }
    }

    /// Every single-field `edit` of every sample is refused at the edited
    /// path with `complaint`. Returns how many edits were tried.
    fn every_edit_is_refused(edit: Edit, complaint: &str) -> usize {
        let mut tried = 0;
        for (row, original) in SCHEMAS.iter().zip(samples()) {
            let shape = Shape(row.shape).ty();
            for nth in 0.. {
                let mut doc = original.clone();
                let mut n = nth;
                let Some(path) = edit_nth(&mut doc, &shape, &mut n, "", edit) else {
                    break;
                };
                let err = check_doc(&doc).expect_err(&path);
                let named = err
                    .strip_prefix(&path)
                    .is_some_and(|rest| rest.starts_with(": "));
                assert!(
                    named && err.contains(complaint),
                    "{}: {path}: {err}",
                    row.tag
                );
                tried += 1;
            }
        }
        tried
    }

    #[test]
    fn a_real_export_of_every_row_passes() {
        let tags: Vec<&str> = samples()
            .iter()
            .map(|doc| check_doc(doc).expect("real export passes"))
            .collect();
        let rows: Vec<&str> = SCHEMAS.iter().map(|row| row.tag).collect();
        assert_eq!(tags, rows, "one sample per row, in table order");
    }

    #[test]
    fn deleting_any_required_field_is_refused_at_its_path() {
        let tried = every_edit_is_refused(Edit::Delete, "missing");
        assert!(tried > 150, "only {tried} fields deleted");
    }

    #[test]
    fn a_string_where_a_number_belongs_is_refused_at_its_path() {
        // A presence-only check would accept `"qps": "fast"`.
        let tried = every_edit_is_refused(Edit::Stringify, "expected");
        assert!(tried > 100, "only {tried} numbers replaced");
    }

    #[test]
    fn every_cross_field_invariant_has_a_violating_document() {
        let drop_phase = |list: &'static str, key: &'static str, label: &'static str| {
            move |doc: &mut Value| {
                elements(at(doc, list))
                    .retain(|e| e.get(key).and_then(Value::as_str) != Some(label))
            }
        };
        let set = |path: &'static str, value: Value| {
            move |doc: &mut Value| *at(doc, path) = value.clone()
        };
        type Break = Box<dyn Fn(&mut Value)>;
        let cases: Vec<(&str, Break, &str)> = vec![
            (
                "hns-load-v3",
                Box::new(set("open_runs/0/windows/1/index", Value::Number(5.0))),
                "open_runs[0].windows[1].index: expected 1",
            ),
            (
                "hns-chaos-v1",
                Box::new(drop_phase("events", "phase", "fault")),
                "events: no item with phase `fault`",
            ),
            (
                "hns-timeline-v1",
                Box::new(set("interval_us", Value::Number(0.0))),
                "interval_us: expected a positive width",
            ),
            (
                "hns-timeline-v1",
                Box::new(set("windows/2/index", Value::Number(7.0))),
                "windows[2].index: expected 2",
            ),
            (
                "hns-timeline-v1",
                Box::new(set("windows/1/end_us", Value::Number(0.0))),
                "windows[1].end_us: before start_us",
            ),
            (
                "hns-timeline-v1",
                Box::new(|doc| {
                    let series = members(at(doc, "series"));
                    elements(series.values_mut().next().expect("a series")).pop();
                }),
                "series[\"faults/nsm_failovers\"]: ",
            ),
            (
                "hns-timeline-v1",
                Box::new(drop_phase("phases", "label", "recovery")),
                "phases: no item with label `recovery`",
            ),
            (
                "hns-reg-v1",
                Box::new(drop_phase("events", "phase", "partition")),
                "events: no item with phase `partition`",
            ),
            (
                "hns-scale-v1",
                Box::new(set("points/0/resident_bytes_per_name", Value::Number(1e9))),
                "points[0].resident_bytes_per_name: not below naive_bytes_per_name",
            ),
            (
                "hns-scale-v1",
                Box::new(set(
                    "points/0/preload/incremental_bytes",
                    Value::Number(1e12),
                )),
                "points[0].preload.incremental_bytes: not below full_bytes",
            ),
            (
                "hns-scale-v1",
                Box::new(set(
                    "points/0/preload/incremental_mode",
                    Value::String("full".into()),
                )),
                "points[0].preload.incremental_mode: expected `incremental`",
            ),
        ];
        for (tag, violate, complaint) in cases {
            let mut doc = sample(tag);
            violate(&mut doc);
            let err = check_doc(&doc).expect_err(complaint);
            assert!(err.contains(complaint), "{tag}: {err}");
        }
    }

    #[test]
    fn emptiness_is_refused_only_where_the_row_says_non_empty() {
        let mut load = sample("hns-load-v3");
        elements(at(&mut load, "open_runs/0/windows")).clear();
        let err = check_doc(&load).expect_err("empty window series");
        assert_eq!(err, "open_runs[0].windows: expected non-empty array");
        elements(at(&mut load, "open_runs")).clear();
        let err = check_doc(&load).expect_err("a sweep with no runs");
        assert_eq!(err, "open_runs: expected non-empty array");
        let mut chaos = sample("hns-chaos-v1");
        elements(at(&mut chaos, "events")).clear();
        assert!(check_doc(&chaos).is_err());
        // The sampler's own `Timeline::to_json` has no windows yet and
        // none of the scenario's optional fields.
        let bare = "{\"schema\": \"hns-timeline-v1\", \"interval_us\": 1000, \
                    \"origin_us\": 0, \"windows\": [], \"marks\": []}";
        assert_eq!(check(bare), Ok("hns-timeline-v1"));
    }

    #[test]
    fn a_wrong_or_missing_schema_tag_is_refused() {
        for original in samples() {
            let mut doc = original.clone();
            *at(&mut doc, "schema") = Value::String("hns-nope-v9".into());
            assert_eq!(
                check_doc(&doc),
                Err("schema: unknown tag `hns-nope-v9`".to_string())
            );
            members(&mut doc).remove("schema");
            assert_eq!(check_doc(&doc), Err("schema: missing".to_string()));
        }
        // Another row's tag is checked against that row's fields.
        let mut doc = sample("hns-chaos-v1");
        *at(&mut doc, "schema") = Value::String("hns-scale-v1".into());
        let err = check_doc(&doc).expect_err("chaos fields under the scale tag");
        assert_eq!(err, "config.names: missing");
        assert!(check("{\"schema\": 1}").is_err());
        assert!(check("not json").is_err());
    }

    /// The catalogue cannot drift: EXPERIMENTS.md carries the table
    /// [`markdown_table`] renders from [`SCHEMAS`], byte for byte.
    #[test]
    fn exports_table_in_the_docs_matches_the_schema_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
        let table = markdown_table();
        assert!(
            doc.contains(&table),
            "EXPERIMENTS.md's Exports table differs from export::SCHEMAS; it should read:\n{table}"
        );
    }
}
