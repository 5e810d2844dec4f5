//! The mutant corpus and its runner, `experiments mutants`.
//!
//! Each `crates/conformance/mutants/NNN-name.patch` undoes a fix, and its
//! header names the test that must fail for it:
//!
//! ```text
//! Breaks: what the patch undoes
//! Killed-by: path/to/source.rs::test_name
//! Origin: the change whose fix it undoes
//! ```
//!
//! The diff follows; `git apply` reads past the header. The runner syncs
//! the workspace into one scratch copy, `target/mutants/tree` (a file
//! whose bytes did not change keeps its time stamp, so a rerun rebuilds
//! only what changed), and runs each killer there unpatched, where it
//! must pass. Then, for each patch: apply it, build the killer's test
//! target (a failed build is *unbuildable*, not killed), run the killer
//! (a failure is *killed*, a pass *survived*), and reverse the patch.

use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where the corpus lies, from the repository root.
pub const DIR: &str = "crates/conformance/mutants";

/// One patch of the corpus and the test that must fail under it.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The patch, from the repository root.
    pub patch: PathBuf,
    /// The test that must fail under it.
    pub killer: Killer,
}

/// A test, as a patch header names it: a source and a test function in
/// it (`path/to/source.rs::test_name`).
#[derive(Debug, Clone)]
pub struct Killer {
    /// The source, from the repository root.
    pub file: String,
    /// The test function.
    pub test: String,
}

impl Mutant {
    /// The patch's file name.
    pub fn name(&self) -> String {
        let name = self.patch.file_name().unwrap_or_default();
        name.to_string_lossy().into_owned()
    }
}

impl Killer {
    /// Whether the source under `root` defines the test function.
    pub fn exists(&self, root: &Path) -> bool {
        let source = std::fs::read_to_string(root.join(&self.file)).unwrap_or_default();
        source.contains(&format!("fn {}(", self.test))
    }

    /// The `cargo test` arguments that select the killer's test target:
    /// the root package's integration test, a crate's integration test,
    /// or a crate's unit tests.
    pub fn target(&self, root: &Path) -> Result<Vec<String>, String> {
        let stem = |file: &str| file.trim_end_matches(".rs").to_string();
        let package = |dir: &str| {
            let manifest = root.join("crates").join(dir).join("Cargo.toml");
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            let name = text.lines().find_map(|line| line.strip_prefix("name = "));
            let name = name.map(|name| name.trim_matches('"').to_string());
            name.ok_or_else(|| format!("{}: no package name", manifest.display()))
        };
        let parts: Vec<&str> = self.file.split('/').collect();
        Ok(match parts[..] {
            ["tests", file] => vec!["--test".into(), stem(file)],
            ["crates", dir, "tests", file] => {
                vec!["-p".into(), package(dir)?, "--test".into(), stem(file)]
            }
            ["crates", dir, "src", ..] => vec!["-p".into(), package(dir)?, "--lib".into()],
            _ => return Err(format!("{}: not a test source", self.file)),
        })
    }
}

/// Reads the corpus under `root`, in file-name order.
pub fn corpus(root: &Path) -> Result<Vec<Mutant>, String> {
    let entries = std::fs::read_dir(root.join(DIR)).map_err(|e| format!("{DIR}: {e}"))?;
    let mut patches: Vec<PathBuf> = entries
        .flatten()
        .map(|entry| Path::new(DIR).join(entry.file_name()))
        .filter(|path| path.extension().is_some_and(|e| e == "patch"))
        .collect();
    patches.sort();
    patches
        .into_iter()
        .map(|patch| parse(root, patch))
        .collect()
}

/// A patch's header: its `Key: value` lines before the diff, of which
/// `Breaks:` and `Origin:` are for the reader and must be there.
fn parse(root: &Path, patch: PathBuf) -> Result<Mutant, String> {
    let text = std::fs::read_to_string(root.join(&patch))
        .map_err(|e| format!("{}: {e}", patch.display()))?;
    let header = text
        .lines()
        .take_while(|line| !line.starts_with("--- ") && !line.starts_with("diff "));
    let mut fields: Vec<(&str, &str)> = header.filter_map(|l| l.split_once(": ")).collect();
    let mut field = |key: &str| {
        let at = fields.iter().position(|(k, _)| *k == key);
        let value = at.map(|at| fields.remove(at).1.trim().to_string());
        value.ok_or_else(|| format!("{}: no `{key}:` line", patch.display()))
    };
    field("Breaks")?;
    field("Origin")?;
    let killed_by = field("Killed-by")?;
    let (file, test) = killed_by
        .split_once("::")
        .ok_or_else(|| format!("{}: `Killed-by: FILE::TEST`", patch.display()))?;
    let killer = Killer {
        file: file.to_string(),
        test: test.to_string(),
    };
    Ok(Mutant { patch, killer })
}

/// What a patch came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Its killer failed.
    Killed,
    /// Its killer passed.
    Survived,
    /// The killer's test target did not build under it.
    Unbuildable,
}

/// Runs the corpus under `root` (see the module docs) and renders what
/// each patch came to, then the counts. `Err` if the corpus does not
/// parse, the copy cannot be made, a killer fails unpatched, or a patch
/// does not apply or reverse.
pub fn run(root: &Path) -> Result<(String, Vec<Outcome>), String> {
    let corpus = corpus(root)?;
    let tree = root.join("target/mutants/tree");
    sync(root, &tree).map_err(|e| format!("copying the workspace: {e}"))?;
    let mut out = String::new();
    let mut outcomes = Vec::new();
    for mutant in &corpus {
        let target = mutant.killer.target(root)?;
        if !cargo(&tree, &target, &[&mutant.killer.test]) {
            return Err(format!("{}: fails unpatched", mutant.killer.test));
        }
    }
    for mutant in &corpus {
        let target = mutant.killer.target(root)?;
        let patch = root.join(&mutant.patch);
        if !git_apply(&tree, &patch, false) {
            return Err(format!("{}: does not apply", mutant.name()));
        }
        let outcome = if !cargo(&tree, &target, &["--no-run"]) {
            Outcome::Unbuildable
        } else if cargo(&tree, &target, &[&mutant.killer.test]) {
            Outcome::Survived
        } else {
            Outcome::Killed
        };
        if !git_apply(&tree, &patch, true) {
            return Err(format!("{}: does not reverse", mutant.name()));
        }
        let killer = format!("{}::{}", mutant.killer.file, mutant.killer.test);
        let _ = writeln!(out, "{}: {outcome:?} ({killer})", mutant.name());
        outcomes.push(outcome);
    }
    let count = |o| outcomes.iter().filter(|&&seen| seen == o).count();
    let _ = writeln!(
        out,
        "mutants: {} patches, {} killed, {} survived, {} unbuildable",
        outcomes.len(),
        count(Outcome::Killed),
        count(Outcome::Survived),
        count(Outcome::Unbuildable),
    );
    Ok((out, outcomes))
}

/// Whether `git apply` (`-R` if `reverse`) of `patch` succeeds in `tree`,
/// which git is kept from taking for part of the repository around it.
fn git_apply(tree: &Path, patch: &Path, reverse: bool) -> bool {
    let mut git = Command::new("git");
    git.arg("apply").args(reverse.then_some("-R")).arg(patch);
    let ceiling = tree.parent().unwrap_or(tree);
    git.current_dir(tree)
        .env("GIT_CEILING_DIRECTORIES", ceiling);
    git.stdout(Stdio::null()).stderr(Stdio::null());
    git.status().is_ok_and(|status| status.success())
}

/// Whether `cargo test -q` with `target` and `extra` succeeds in `tree`.
fn cargo(tree: &Path, target: &[String], extra: &[&str]) -> bool {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args(["test", "-q"]).args(target).args(extra);
    cmd.current_dir(tree)
        .env("CARGO_TARGET_DIR", tree.join("target"));
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd.status().is_ok_and(|status| status.success())
}

/// Makes `to` hold what `from` holds, but for build outputs and hidden
/// entries: a file is written only if its bytes differ, and what `from`
/// no longer holds is removed.
fn sync(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    let kept = |name: &str| name != "target" && !name.starts_with('.');
    let mut names = Vec::new();
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        if !kept(&name.to_string_lossy()) {
            continue;
        }
        let (source, copy) = (entry.path(), to.join(&name));
        if entry.file_type()?.is_dir() {
            sync(&source, &copy)?;
        } else {
            let bytes = std::fs::read(&source)?;
            if std::fs::read(&copy).ok().as_ref() != Some(&bytes) {
                std::fs::write(&copy, bytes)?;
            }
        }
        names.push(name);
    }
    for entry in std::fs::read_dir(to)? {
        let entry = entry?;
        let name = entry.file_name();
        if kept(&name.to_string_lossy()) && !names.contains(&name) {
            match entry.file_type()?.is_dir() {
                true => std::fs::remove_dir_all(entry.path())?,
                false => std::fs::remove_file(entry.path())?,
            }
        }
    }
    Ok(())
}
