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

const PINNED: [Pinned; 8] = [
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
        used_in: |text| calls(text, &BINDING_CACHE, "insert"),
    },
    Pinned {
        form: "Hns::set_binding_cache",
        defined_in: "crates/core/src/service.rs",
        defined_by: "pub fn set_binding_cache(",
        used_in: |text| has_word(text, "set_binding_cache"),
    },
    Pinned {
        form: "BindingCache::set_enabled",
        defined_in: "crates/core/src/binding_cache.rs",
        defined_by: "pub fn set_enabled(",
        used_in: |text| calls(text, &BINDING_CACHE, "set_enabled"),
    },
    Pinned {
        form: "RecursiveResolver::query",
        defined_in: "crates/bindns/src/recursive.rs",
        defined_by: "pub fn query(&self, name: &DomainName, rtype: RType) -> RpcResult<Arc<",
        used_in: |text| calls(text, &RECURSIVE_RESOLVER, "query"),
    },
    Pinned {
        form: "StdResolver::query",
        defined_in: "crates/bindns/src/resolver.rs",
        defined_by: "pub fn query(&self, name: &DomainName, rtype: RType) -> RpcResult<Arc<",
        used_in: |text| calls(text, &STD_RESOLVER, "query"),
    },
    Pinned {
        form: "World::charge_ms",
        defined_in: "crates/simnet/src/world.rs",
        defined_by: "pub fn charge_ms(",
        used_in: |text| has_word(text, "charge_ms"),
    },
];

/// How a source names a value of one type: by the type's path, by a
/// field that holds one, or by a local bound to one, by a constructor or
/// by a type annotation.
struct Receiver {
    ty: &'static str,
    fields: &'static [&'static str],
    made_by: &'static [&'static str],
}

const BINDING_CACHE: Receiver = Receiver {
    ty: "BindingCache",
    fields: &["binding_cache"],
    made_by: &[
        "BindingCache::new()",
        "BindingCache::of(",
        "BindingCache::default()",
    ],
};

const RECURSIVE_RESOLVER: Receiver = Receiver {
    ty: "RecursiveResolver",
    fields: &[],
    made_by: &["RecursiveResolver::new("],
};

const STD_RESOLVER: Receiver = Receiver {
    ty: "StdResolver",
    fields: &[],
    made_by: &["StdResolver::new(", ".std_resolver("],
};

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

/// `text` with each line that continues a method chain (it starts with
/// `.`) joined to the line before it, so a call split over lines reads
/// as one.
fn chained(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with('.') && out.ends_with('\n') {
            out.pop();
            out.push_str(trimmed);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The name `line` annotates with a type naming `ty`, as a parameter, a
/// field or a `let` is (`resolver: &StdResolver`, `r: Arc<StdResolver>`).
fn annotated<'a>(line: &'a str, ty: &str) -> Option<&'a str> {
    occurrences(line, ty).into_iter().find_map(|after| {
        let at = line.len() - after.len() - ty.len();
        let head = line[..at].trim_end_matches(|c: char| is_ident_char(c) || "&<:' ".contains(c));
        let typed = &line[head.len()..at];
        let colon = typed.find(": ").filter(|&i| !typed[..i].ends_with(':'))?;
        let name = typed[..colon].rsplit(|c: char| !is_ident_char(c)).next()?;
        (!name.is_empty()).then_some(name)
    })
}

/// Whether `text` calls `method` on a value of `receiver`'s type: by
/// path, on one of its fields, or on a local bound to one, up to the end
/// of the block that binds it (a later `let` of the name unbinds it).
fn calls(text: &str, receiver: &Receiver, method: &str) -> bool {
    let call = format!(".{method}(");
    let mut locals: Vec<(String, usize)> = Vec::new();
    for line in chained(text).lines() {
        let indent = line.len() - line.trim_start().len();
        let trimmed = line.trim_start();
        if trimmed.starts_with('}') {
            locals.retain(|(_, at)| *at <= indent);
        }
        let mut bound = None;
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name = rest.split(|c: char| !is_ident_char(c)).next().unwrap_or("");
            locals.retain(|(local, _)| local != name);
            if receiver.made_by.iter().any(|made| line.contains(made)) {
                bound = Some(name);
            }
        }
        if let Some(name) = bound.or_else(|| annotated(line, receiver.ty)) {
            locals.push((name.to_string(), indent));
        }
        let on = |name: &str| {
            occurrences(line, name)
                .iter()
                .any(|after| after.starts_with(&call))
        };
        let by_path = occurrences(line, receiver.ty).iter().any(|after| {
            after
                .strip_prefix("::")
                .and_then(|rest| rest.strip_prefix(method))
                .is_some_and(|rest| !rest.starts_with(is_ident_char))
        });
        if by_path
            || receiver.fields.iter().any(|field| on(field))
            || locals.iter().any(|(name, _)| on(name))
        {
            return true;
        }
    }
    false
}

/// `source` without the bodies of the pinned forms it defines: a pinned
/// wrapper may call another pinned form.
fn outside_pinned_wrappers(source: &str, file: &Path) -> String {
    let mut out = String::new();
    let mut skipping: Option<String> = None;
    for line in source.lines() {
        if let Some(close) = &skipping {
            if line == close {
                skipping = None;
            }
            continue;
        }
        let trimmed = line.trim_start();
        let wraps = PINNED.iter().any(|pinned| {
            Path::new(pinned.defined_in) == file && trimmed.starts_with(pinned.defined_by)
        });
        if wraps && trimmed.ends_with('{') {
            let indent = line.len() - trimmed.len();
            skipping = Some(format!("{}}}", " ".repeat(indent)));
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
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
    let sources: Vec<(PathBuf, String)> = (files.into_iter())
        .filter(|file| file != this)
        .map(|file| {
            let text = std::fs::read_to_string(root.join(&file)).expect("a source");
            let text = outside_pinned_wrappers(&text, &file);
            (file, text)
        })
        .collect();
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
        for (file, text) in &sources {
            if file != Path::new(pinned.defined_in) && (pinned.used_in)(text) {
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
    let detects = |text: &&str| calls(text, &BINDING_CACHE, "insert");
    assert!(uses.iter().all(detects));
    assert!(!others.iter().any(detects));
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

/// The detectors of the composed-cache switch and the resolvers' `Arc`
/// forms find their calls, and not a same-named method of another type,
/// the replacement, or a pinned wrapper calling another pinned form.
#[test]
fn the_detectors_tell_each_pinned_form_from_its_siblings() {
    let set_enabled = |text: &str| calls(text, &BINDING_CACHE, "set_enabled");
    let recursive = |text: &str| calls(text, &RECURSIVE_RESOLVER, "query");
    let std = |text: &str| calls(text, &STD_RESOLVER, "query");
    for text in [
        "let c = BindingCache::new();\nc.set_enabled(true);",
        "let composed = BindingCache::of(false);\ncomposed.set_enabled(true);",
        "self.binding_cache.set_enabled(enabled);",
        "BindingCache::set_enabled(&c, true);",
    ] {
        assert!(set_enabled(text), "{text}");
    }
    for text in [
        "world.tracer.set_enabled(true);",
        "let t = Tracer::new();\nt.set_enabled(true);",
        "let c = BindingCache::of(true);\nhns.set_batching(true);",
    ] {
        assert!(!set_enabled(text), "{text}");
    }
    assert!(has_word(
        "hns.set_binding_cache(true);",
        "set_binding_cache"
    ));
    assert!(!has_word("hns.set_batching(true);", "set_binding_cache"));
    for text in [
        "let r = RecursiveResolver::new(net, host, root);\nr.query(&n, RType::A)",
        "let walker = bindns::RecursiveResolver::new(\n    net,\n);\nwalker\n    .query(&n, RType::A)",
        "RecursiveResolver::query(&r, &n, RType::A)",
        "fn f(resolver: &RecursiveResolver) {\n    resolver.query(&n, RType::A);\n}",
    ] {
        assert!(recursive(text) && !std(text), "{text}");
    }
    for text in [
        "let std = StdResolver::new(net, host, server);\nstd.query(&n, RType::A)",
        "let resolver = tb.std_resolver(host);\nresolver\n    .query(&n, RType::A)",
        "let r: Arc<StdResolver> = make();\nr.query(&n, RType::A)",
    ] {
        assert!(std(text) && !recursive(text), "{text}");
    }
    for text in [
        "let r = RecursiveResolver::new(net, host, root);\nr.resolve(&n, RType::A)",
        "let std = StdResolver::new(net, host, server);\nstd.query_first(\"fiji\", RType::A)",
        "let hrpc = HrpcResolver::new(net, host, server);\nhrpc.query(&n, RType::A)",
        "let r = StdResolver::new(n, h, s);\nlet r = HrpcResolver::new(n, h, s);\nr.query(&n, RType::A)",
        "client.query(&qc, &name, vec![])",
        "agent\n    .query(&qc, &name, vec![])",
        "fn a() {\n    let r = StdResolver::new(n, h, s);\n}\nfn b() {\n    r.query(&n, RType::A);\n}",
    ] {
        assert!(!recursive(text) && !std(text), "{text}");
    }
    let service = Path::new("crates/core/src/service.rs");
    let wrapper = "    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).\n    \
                   pub fn set_binding_cache(&self, enabled: bool) {\n        \
                   self.binding_cache.set_enabled(enabled);\n    }\n";
    assert!(set_enabled(wrapper));
    assert!(!set_enabled(&outside_pinned_wrappers(wrapper, service)));
    let outside = "    fn f(&self) {\n        self.binding_cache.set_enabled(false);\n    }\n";
    let both = format!("{wrapper}{outside}");
    assert!(set_enabled(&outside_pinned_wrappers(&both, service)));
    assert!(lists(
        "`Hns::{new, set_binding_cache,\nset_batching}`",
        "Hns::set_binding_cache"
    ));
    assert!(lists(
        "`StdResolver::{new, query, query_uncached}`",
        "StdResolver::query"
    ));
    assert!(lists(
        "`simnet::{World::{paper, add_host, now, charge_ms, counters}`",
        "World::charge_ms"
    ));
    assert!(!has_word("world.charge(Term::CacheProbe);", "charge_ms"));
}
