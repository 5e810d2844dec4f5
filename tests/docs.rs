//! The docs name only what exists. Every backticked Rust path
//! (`crate::module::Item`, `Type::method`), repo path (`crates/…`,
//! `tests/…`, `examples/…`, `src/…`, `.github/…`, `benchmark/…`) and
//! bare `snake_case` name in the six docs below must resolve against the
//! tree. The resolver is grep-level: it reads what the sources define
//! (`fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod`,
//! macros, fields, variants, re-exports) and which types each file
//! declares or implements, and asks of a path `…::Owner::item` that
//! some file of `Owner` (its declaring or `impl` file, or its module's
//! file) defines `item`, and that every other segment is a crate, a
//! module or a defined name. A rename or a move the docs did not follow
//! fails here, naming the doc and the reference.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The documents held to the tree.
const DOCS: [&str; 6] = [
    "README.md",
    "DESIGN.md",
    "TESTING.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
    ".claude/skills/verify/SKILL.md",
];

/// A backticked span starting with one of these is a repo path.
const REPO_PATHS: [&str; 6] = [
    "crates/",
    "tests/",
    "examples/",
    "src/",
    ".github/",
    "benchmark/",
];

/// Where Rust sources are read from.
const SOURCE_ROOTS: [&str; 6] = ["crates", "src", "tests", "examples", "benchmark", "vendor"];

/// Paths starting here name the standard library or a lint, not the tree.
const EXTERNAL: [&str; 4] = ["std", "core", "alloc", "clippy"];

/// Keywords whose next word a file defines.
const DEFINING: [&str; 10] = [
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "union",
    "macro_rules",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_ident(word: &str) -> bool {
    let mut chars = word.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(is_ident_char)
}

/// The identifiers of `line` in order, each with the text after it.
fn words(line: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find(is_ident_char) {
        let from = &rest[start..];
        let end = from.find(|c| !is_ident_char(c)).unwrap_or(from.len());
        // A run led by a digit is a number, not a name.
        if !from.starts_with(|c: char| c.is_ascii_digit()) {
            out.push((&from[..end], &from[end..]));
        }
        rest = &from[end..];
    }
    out
}

/// One Rust source file, read for what it defines.
struct Source {
    path: PathBuf,
    /// Names defined here: items, fields, variants, re-exports.
    defined: BTreeSet<String>,
    /// Types declared or implemented here.
    types: BTreeSet<String>,
    /// Inline `mod` blocks.
    modules: BTreeSet<String>,
}

impl Source {
    fn parse(path: PathBuf, text: &str) -> Source {
        let mut source = Source {
            path,
            defined: BTreeSet::new(),
            types: BTreeSet::new(),
            modules: BTreeSet::new(),
        };
        for line in text.lines() {
            source.scan(line);
        }
        source
    }

    fn stem(&self) -> &str {
        self.path.file_stem().and_then(|s| s.to_str()).unwrap_or("")
    }

    /// Notes what one line defines.
    fn scan(&mut self, line: &str) {
        let (defined, types, modules) = (&mut self.defined, &mut self.types, &mut self.modules);
        let trimmed = line.trim_start();
        let ws = words(trimmed);
        // A re-export defines what it names.
        if trimmed.starts_with("pub use") || trimmed.starts_with("pub(crate) use") {
            defined.extend(ws.iter().map(|(w, _)| w.to_string()));
            return;
        }
        if trimmed.starts_with("impl") || trimmed.starts_with("unsafe impl") {
            let header = trimmed.split('{').next().unwrap_or(trimmed);
            let camel = words(header).into_iter().map(|(w, _)| w);
            types.extend(
                camel
                    .filter(|w| w.starts_with(char::is_uppercase))
                    .map(str::to_string),
            );
        }
        for pair in ws.windows(2) {
            let ((keyword, _), (name, _)) = (pair[0], pair[1]);
            if DEFINING.contains(&keyword) {
                defined.insert(name.to_string());
                match keyword {
                    "struct" | "enum" | "trait" | "union" | "type" => {
                        types.insert(name.to_string());
                    }
                    "mod" => {
                        modules.insert(name.to_string());
                    }
                    _ => {}
                }
            }
        }
        // A field or a variant: a line led by a name, or by `pub` and a
        // name, followed by `:`, `(`, `{`, `,`, `=` or nothing.
        let first = ws
            .iter()
            .find(|(w, _)| *w != "pub" && *w != "crate" && *w != "super");
        if let Some((name, after)) = first {
            let after = after.trim_start_matches(')').trim_start();
            let field = after.starts_with(':') && !after.starts_with("::");
            let variant = after.is_empty() || after.starts_with(['(', '{', ',', '=']);
            let leads = trimmed.starts_with(name) || trimmed.starts_with("pub");
            if leads && (field || variant) {
                defined.insert(name.to_string());
            }
        }
    }

    /// Whether this file is module `module`'s: `module.rs`, a file under
    /// a `module/` directory, or one holding an inline `mod module`.
    fn in_module(&self, module: &str) -> bool {
        self.stem() == module
            || self.modules.contains(module)
            || self.path.parent().and_then(Path::file_name) == Some(module.as_ref())
    }
}

/// The tree, as far as the docs can name it.
struct Tree {
    root: PathBuf,
    sources: Vec<Source>,
    /// Crate names (`-` as `_`) with the directory of each package.
    crates: Vec<(String, PathBuf)>,
    /// Every word of every non-doc file, for bare names.
    words: BTreeSet<String>,
}

impl Tree {
    fn load() -> Tree {
        let root = repo_root();
        let mut files = Vec::new();
        for dir in SOURCE_ROOTS {
            walk(&root, Path::new(dir), &mut files);
        }
        for file in [
            "Cargo.toml",
            "BENCHMARK.json",
            "experiments_output.txt",
            "examples_output.txt",
        ] {
            files.push(PathBuf::from(file));
        }
        let mut words_seen = BTreeSet::new();
        let (mut sources, mut crates) = (Vec::new(), Vec::new());
        for path in files {
            let text = std::fs::read_to_string(root.join(&path)).unwrap_or_default();
            for line in text.lines() {
                words_seen.extend(words(line).into_iter().map(|(w, _)| w.to_string()));
            }
            match path.extension().and_then(|e| e.to_str()) {
                Some("rs") => sources.push(Source::parse(path, &text)),
                Some("toml") if path.file_name() == Some("Cargo.toml".as_ref()) => {
                    let package = text.split("[package]").nth(1).unwrap_or("");
                    let name = package
                        .lines()
                        .find_map(|l| l.trim().strip_prefix("name = \""))
                        .map(|n| n.trim_end_matches('"').replace('-', "_"));
                    if let Some(name) = name {
                        crates.push((name, path.parent().unwrap_or(Path::new("")).to_path_buf()));
                    }
                }
                _ => {}
            }
        }
        Tree {
            root,
            sources,
            crates,
            words: words_seen,
        }
    }

    fn crate_dir(&self, name: &str) -> Option<&Path> {
        let found = self.crates.iter().find(|(n, _)| n == name);
        found.map(|(_, dir)| dir.as_path())
    }

    /// Whether `segment` is something a path can pass through.
    fn known(&self, segment: &str) -> bool {
        self.crate_dir(segment).is_some()
            || self.sources.iter().any(|s| {
                s.defined.contains(segment) || s.types.contains(segment) || s.in_module(segment)
            })
    }

    /// The files `owner` (a type, a module or a crate) keeps its names in.
    fn owned_by<'a>(&'a self, owner: &'a str) -> impl Iterator<Item = &'a Source> + 'a {
        let dir = self.crate_dir(owner);
        self.sources.iter().filter(move |s| {
            if owner.starts_with(char::is_uppercase) {
                s.types.contains(owner)
            } else {
                s.in_module(owner) || dir.is_some_and(|d| s.path.starts_with(d))
            }
        })
    }

    /// Why `path` (`a::b::c`, the last segment possibly `prefix*`) names
    /// nothing, if it does not resolve.
    fn rust_path(&self, path: &str) -> Option<String> {
        let segments: Vec<&str> = path.split("::").collect();
        if EXTERNAL.contains(&segments[0]) {
            return None;
        }
        let (last, owners) = segments.split_last()?;
        for segment in owners {
            if !["crate", "self", "super"].contains(segment) && !self.known(segment) {
                return Some(format!("`{segment}` is no crate, module or item"));
            }
        }
        let owner = owners.last()?;
        let prefix = last.strip_suffix('*');
        let defines = |s: &Source| match prefix {
            Some(prefix) => s.defined.iter().any(|d| d.starts_with(prefix)),
            None => s.defined.contains(*last),
        };
        if ["crate", "self", "super"].contains(owner) {
            return (!self.sources.iter().any(defines))
                .then(|| format!("nothing defines `{last}`"));
        }
        let found = self.owned_by(owner).any(defines);
        (!found).then(|| format!("no file of `{owner}` defines `{last}`"))
    }

    /// Why `file.rs::item`, a file named by its last components, names
    /// nothing: some source whose path ends so must define `item`.
    fn file_item(&self, reference: &str) -> Option<String> {
        let (file, item) = reference.split_once("::")?;
        let item = item.trim_end_matches("()");
        let named: Vec<&Source> = self
            .sources
            .iter()
            .filter(|s| s.path.ends_with(file))
            .collect();
        if named.is_empty() {
            return Some(format!("no source file `{file}`"));
        }
        let defined = named.iter().any(|s| s.defined.contains(item));
        (!defined).then(|| format!("no `{file}` defines `{item}`"))
    }

    /// Why repo path `path` names nothing, if it does not exist. A
    /// `file.rs::item` suffix must be defined in that file; `:line` is
    /// dropped; one `{a,b}` group expands; a `*` or `…` stands for any
    /// rest of a name in the directory before it.
    fn repo_path(&self, path: &str) -> Option<String> {
        let path = path.trim_end_matches(['.', ',', ')']);
        let (file, item) = match path.split_once("::") {
            Some((file, item)) => (file, Some(item)),
            None => (path, None),
        };
        let file = file.split(':').next().unwrap_or(file);
        if let (Some(open), Some(close)) = (file.find('{'), file.find('}')) {
            let (head, tail) = (&file[..open], &file[close + 1..]);
            let expanded = file[open + 1..close]
                .split(',')
                .map(|alt| format!("{head}{alt}{tail}"));
            return expanded.into_iter().find_map(|p| self.repo_path(&p));
        }
        if let Some(wild) = file.find(['*', '…']) {
            let (dir, stem) = file[..wild].rsplit_once('/').unwrap_or(("", &file[..wild]));
            let entries = std::fs::read_dir(self.root.join(dir)).ok();
            let any = entries
                .into_iter()
                .flatten()
                .flatten()
                .any(|e| e.file_name().to_str().is_some_and(|n| n.starts_with(stem)));
            return (!any).then(|| format!("nothing in `{dir}/` starts `{stem}`"));
        }
        if !self.root.join(file).exists() {
            return Some("no such file or directory".to_string());
        }
        let item = item?.trim_end_matches("()");
        let source = self.sources.iter().find(|s| s.path == Path::new(file));
        let defined = source.is_some_and(|s| s.defined.contains(item));
        (!defined).then(|| format!("`{file}` defines no `{item}`"))
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let path = dir.join(&name);
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            if name != "target" {
                walk(root, &path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// The inline code spans of `doc`, outside fenced blocks.
fn spans(doc: &str) -> Vec<&str> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            out.extend(line.split('`').skip(1).step_by(2));
        }
    }
    out
}

/// The Rust paths in a span: runs of `ident::ident…`, generic
/// arguments (`::<T>`) dropped, the last segment possibly `prefix*`.
fn rust_paths(span: &str) -> Vec<String> {
    let mut out = Vec::new();
    let cleaned = strip_generics(span);
    let mut rest = cleaned.as_str();
    while let Some(at) = rest.find("::") {
        let head_start = rest[..at]
            .rfind(|c: char| !is_ident_char(c))
            .map_or(0, |i| i + 1);
        let mut end = at;
        while rest[end..].starts_with("::") {
            let seg = &rest[end + 2..];
            let len = seg.find(|c: char| !is_ident_char(c)).unwrap_or(seg.len());
            if len == 0 {
                break;
            }
            end += 2 + len;
        }
        if rest[end..].starts_with('*') {
            end += 1;
        }
        let path = &rest[head_start..end];
        // `zone.rs::test` is a file's item, read by `Tree::file_item`.
        let after_dot = rest[..head_start].ends_with('.');
        let segments = path.trim_end_matches('*').split("::");
        if end > at && !after_dot && segments.clone().all(is_ident) {
            out.push(path.to_string());
        }
        rest = &rest[end.max(at + 2)..];
    }
    out
}

/// `span` without its turbofish arguments: `f::<T>()` reads `f()`.
fn strip_generics(span: &str) -> String {
    let mut out = String::new();
    let mut depth = 0;
    for c in span.chars() {
        match c {
            '<' if out.ends_with("::") => {
                out.truncate(out.len() - 2);
                depth += 1;
            }
            '<' if depth > 0 => depth += 1,
            '>' if depth > 0 => depth -= 1,
            _ if depth > 0 => {}
            _ => out.push(c),
        }
    }
    out
}

/// Every reference in `doc` that names nothing, with why.
fn unresolved(tree: &Tree, name: &str, doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    for span in spans(doc) {
        let mut fail = |reference: &str, why: String| {
            out.push(format!("{name}: `{reference}`: {why}"));
        };
        for word in span.split_whitespace() {
            let word = word.trim_start_matches(['(', '"', '\'']);
            if REPO_PATHS.iter().any(|p| word.starts_with(p)) {
                if let Some(why) = tree.repo_path(word) {
                    fail(word, why);
                }
            } else if word.contains(".rs::") {
                let word = word.trim_end_matches(['.', ',', ')']);
                if let Some(why) = tree.file_item(word) {
                    fail(word, why);
                }
            }
        }
        if REPO_PATHS.iter().any(|p| span.starts_with(p)) {
            continue;
        }
        for path in rust_paths(span) {
            if let Some(why) = tree.rust_path(&path) {
                fail(&path, why);
            }
        }
        // A bare `snake_case` name: a function, a test, a field, a
        // metric — it appears somewhere outside the docs.
        let bare = span.trim_end_matches("()");
        if bare.contains('_')
            && is_ident(bare)
            && bare.starts_with(char::is_lowercase)
            && !tree.words.contains(bare)
        {
            fail(bare, "appears nowhere in the tree".to_string());
        }
    }
    out
}

#[test]
fn every_name_the_docs_cite_exists() {
    let tree = Tree::load();
    let mut failures = Vec::new();
    let mut checked = 0;
    for name in DOCS {
        let doc = std::fs::read_to_string(tree.root.join(name)).expect(name);
        checked += spans(&doc).len();
        failures.extend(unresolved(&tree, name, &doc));
    }
    assert!(checked > 500, "only {checked} spans read");
    assert!(
        failures.is_empty(),
        "{} reference(s) name nothing:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn the_resolver_refuses_what_is_not_there() {
    let tree = Tree::load();
    for (path, resolves) in [
        ("ReplySlot::fill", true),
        ("ReplySlot::fill_slot", false),
        ("hns_core::service::Hns", true),
        ("hns_core::service::Hsn", false),
        ("obs::json::parse", true),
        ("obs::json::MAX_DEPTH", true),
        ("obs::trace::parse", false),
        ("WireError::TooDeep", true),
        ("FindNsmReport::stale_served", true),
        ("Hns::stale_serves", false),
        ("simnet::des", false),
        ("Hns::make_*", false),
    ] {
        assert_eq!(tree.rust_path(path).is_none(), resolves, "{path}");
    }
    for (path, resolves) in [
        ("crates/wire/src/codec.rs", true),
        ("crates/wire/src/codec.rs:120", true),
        (
            "tests/observability.rs::cache_counter_catalogue_matches_what_the_caches_emit",
            true,
        ),
        ("tests/observability.rs::no_such_test", false),
        ("crates/conformance/tests/{zone_model,zone_store}.rs", true),
        ("crates/bench/tests/{cold,world}_alloc.rs", false),
        ("crates/bench/tests/{warm,hot}_alloc.rs", false),
        ("tests/differential.rs", false),
        ("crates/bench/benches/", false),
        ("crates/conformance/tests/*.rs", true),
    ] {
        assert_eq!(tree.repo_path(path).is_none(), resolves, "{path}");
    }
    assert_eq!(
        rust_paths("`ReplySlot::fill::<T>(..)`"),
        ["ReplySlot::fill"]
    );
    assert_eq!(rust_paths("a Hns::make_* b"), ["Hns::make_*"]);
    assert_eq!(rust_paths("x.y"), Vec::<String>::new());
}
