//! The forms kept only for `benchmark/` are listed here, and nothing in the
//! workspace uses them.
//!
//! `benchmark/` is its own workspace and calls a list of public names
//! (its README's "Public surface the benchmark calls"). Some of those are
//! forms the workspace has replaced; each stays as a thin wrapper, its doc
//! saying "Pinned by `benchmark/`; goes in ROADMAP item 1(c).", until the
//! benchmark lets go of it. This fails when a source under `crates/`,
//! `src/`, `tests/` or `examples/`, other than the file that defines a
//! form, uses one, when a form is not on the benchmark's surface list
//! (then nothing pins it and it can go now), or when its definition does
//! not say it is pinned. The search is grep-level, like `tests/docs.rs`.

use std::path::{Path, PathBuf};

/// A form kept only for `benchmark/`, and where it is defined.
struct Pinned {
    /// As the surface list names it: a type, or `Owner::item`.
    form: &'static str,
    defined_in: &'static str,
    /// The start of its definition, which its doc comment heads.
    defined_by: &'static str,
    /// Whether a source's text uses the form.
    used_in: fn(&str) -> bool,
}

const PINNED: [Pinned; 3] = [
    Pinned {
        form: "MetaKey",
        defined_in: "crates/core/src/cache.rs",
        defined_by: "pub struct MetaKey(",
        used_in: |text| has_word(text, "MetaKey"),
    },
    Pinned {
        form: "VirtualClock::set_batched",
        defined_in: "crates/simnet/src/clock.rs",
        defined_by: "pub fn set_batched(",
        used_in: |text| has_word(text, "set_batched"),
    },
    Pinned {
        form: "BindingCache::insert",
        defined_in: "crates/core/src/binding_cache.rs",
        defined_by:
            "pub fn insert(&self, world: &World, qc: &str, ctx: &str, b: HrpcBinding, ttl_secs",
        used_in: calls_binding_cache_insert,
    },
];

/// What each pinned form's doc says.
const SAYS: &str = "Pinned by `benchmark/`; goes in ROADMAP item 1(c).";

/// Where workspace sources are read from.
const SOURCE_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Where `word` stands in `text` as a whole identifier, each with the
/// text after it.
fn occurrences<'a>(text: &'a str, word: &str) -> Vec<&'a str> {
    text.match_indices(word)
        .filter(|&(at, _)| !text[..at].ends_with(is_ident_char))
        .map(|(at, _)| &text[at + word.len()..])
        .filter(|after| !after.starts_with(is_ident_char))
        .collect()
}

fn has_word(text: &str, word: &str) -> bool {
    !occurrences(text, word).is_empty()
}

/// Whether `text` calls `BindingCache::insert` by its path, or `insert`
/// on what is plainly a binding cache: a `binding_cache` field, or a
/// local bound to `BindingCache::new()`, up to the end of its block.
fn calls_binding_cache_insert(text: &str) -> bool {
    let mut locals: Vec<(String, usize)> = Vec::new();
    for line in text.lines() {
        let indent = line.len() - line.trim_start().len();
        let trimmed = line.trim_start();
        if trimmed.starts_with('}') {
            locals.retain(|(_, at)| *at <= indent);
        }
        if let Some(rest) = trimmed.strip_prefix("let ") {
            if line.contains("BindingCache::new()") {
                let name = rest.split(|c: char| !is_ident_char(c)).next();
                locals.extend(name.map(|name| (name.to_string(), indent)));
            }
        }
        let on = |receiver: &str| {
            occurrences(line, receiver)
                .iter()
                .any(|after| after.starts_with(".insert("))
        };
        let by_path = occurrences(line, "BindingCache").iter().any(|after| {
            after
                .strip_prefix("::insert")
                .is_some_and(|rest| !rest.starts_with(is_ident_char))
        });
        if by_path || on("binding_cache") || locals.iter().any(|(name, _)| on(name)) {
            return true;
        }
    }
    false
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
        return;
    };
    for entry in entries.flatten() {
        let path = dir.join(entry.file_name());
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            if entry.file_name() != "target" {
                walk(root, &path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether a line of `source` starting `defined_by` follows a doc
/// comment (and any attributes) holding [`SAYS`].
fn says_pinned(source: &str, defined_by: &str) -> bool {
    let mut doc = String::new();
    for line in source.lines().map(str::trim_start) {
        if let Some(text) = line.strip_prefix("///") {
            doc.push_str(text.trim());
            doc.push(' ');
        } else if line.starts_with("#[") {
            continue;
        } else if line.starts_with(defined_by) && doc.contains(SAYS) {
            return true;
        } else {
            doc.clear();
        }
    }
    false
}

/// The benchmark README's list of the names it calls.
fn surface() -> String {
    let readme = std::fs::read_to_string(repo_root().join("benchmark/README.md"))
        .expect("benchmark/README.md");
    let start = readme
        .find("## Public surface the benchmark calls")
        .expect("the surface section");
    let section = &readme[start..];
    let end = section[3..]
        .find("\n## ")
        .map_or(section.len(), |at| at + 3);
    section[..end].to_string()
}

/// Whether `surface` lists `form`: the type itself, or `Owner::item`
/// spelt out or inside an `Owner::{…}` group.
fn lists(surface: &str, form: &str) -> bool {
    let (owner, item) = match form.split_once("::") {
        Some((owner, item)) => (owner, Some(item)),
        None => (form, None),
    };
    occurrences(surface, owner).iter().any(|after| {
        let Some(item) = item else {
            return true;
        };
        if let Some(group) = after.strip_prefix("::{") {
            let group = group.split('}').next().unwrap_or("");
            return group.split(',').any(|name| name.trim() == item);
        }
        after.strip_prefix("::").is_some_and(|rest| {
            rest.strip_prefix(item)
                .is_some_and(|rest| !rest.starts_with(is_ident_char))
        })
    })
}

#[test]
fn pinned_forms_are_listed_and_unused() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in SOURCE_ROOTS {
        walk(&root, Path::new(dir), &mut files);
    }
    files.sort();
    let this = Path::new("tests/pinned.rs");
    let surface = surface();
    let mut faults = Vec::new();
    for pinned in &PINNED {
        let definition = std::fs::read_to_string(root.join(pinned.defined_in))
            .unwrap_or_else(|e| panic!("{}: {e}", pinned.defined_in));
        if !says_pinned(&definition, pinned.defined_by) {
            faults.push(format!(
                "{}: no `{}` under a doc that says {SAYS:?}",
                pinned.defined_in, pinned.defined_by
            ));
        }
        if !lists(&surface, pinned.form) {
            faults.push(format!(
                "{} is not on benchmark/README.md's surface list",
                pinned.form
            ));
        }
        for file in &files {
            if file == this || file == Path::new(pinned.defined_in) {
                continue;
            }
            let text = std::fs::read_to_string(root.join(file)).expect("a source");
            if (pinned.used_in)(&text) {
                faults.push(format!("{} uses {}", file.display(), pinned.form));
            }
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}

/// The detector finds each way the workspace has called the seconds
/// form, and none of its siblings.
#[test]
fn the_binding_cache_detector_sees_calls_and_only_calls() {
    let uses = [
        "let c = BindingCache::new();\nc.insert(&w, \"qc\", \"ctx\", b, 600);",
        "self.binding_cache.insert(world, qc, ctx, b, 600);",
        "BindingCache::insert(&c, world, qc, ctx, b, 600);",
    ];
    let others = [
        "let c = BindingCache::new();\nc.insert_until(&w, \"qc\", \"ctx\", b, at);",
        "fn a() {\n    let c = BindingCache::new();\n}\nfn b() {\n    c.insert(&w, k, &v, 1, 600);\n}",
        "let c = HnsCache::new(mode);\nc.insert(&w, k, &v, 1, 600);",
        "BindingCache::insert_service(&c, world, qc, ns, b, at);",
    ];
    assert!(uses.iter().all(|text| calls_binding_cache_insert(text)));
    assert!(!others.iter().any(|text| calls_binding_cache_insert(text)));
    assert!(lists(
        "`BindingCache::{new, lookup, insert}`",
        "BindingCache::insert"
    ));
    assert!(!lists(
        "`BindingCache::{new, insert_until}`",
        "BindingCache::insert"
    ));
    assert!(lists(
        "`VirtualClock::set_batched`",
        "VirtualClock::set_batched"
    ));
    assert!(lists("`MetaKey::host_addr`", "MetaKey"));
}
