//! The mutant corpus stays runnable: every patch under
//! `crates/conformance/mutants/` applies to the tree as it is, names a
//! test that exists in a source `experiments mutants` can build, and has
//! a row in TESTING.md's map. Whether each patch is killed is the
//! runner's to say (`experiments mutants`, its own CI job).

use std::path::PathBuf;
use std::process::Command;

use hns_repro::hns_bench::mutants;

#[test]
fn every_mutant_applies_and_names_a_test_that_exists() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let corpus = mutants::corpus(&root).expect("the corpus parses");
    assert!(corpus.len() >= 2, "{} patches", corpus.len());
    let testing = std::fs::read_to_string(root.join("TESTING.md")).expect("TESTING.md");
    let mut faults = Vec::new();
    for mutant in &corpus {
        let name = mutant.name();
        let applies = Command::new("git")
            .args(["apply", "--check"])
            .arg(&mutant.patch)
            .current_dir(&root)
            .status()
            .is_ok_and(|status| status.success());
        if !applies {
            faults.push(format!("{name}: does not apply (`git apply --check`)"));
        }
        let killer = &mutant.killer;
        if !killer.exists(&root) {
            faults.push(format!(
                "{name}: no `fn {}(` in {}",
                killer.test, killer.file
            ));
        }
        if let Err(why) = killer.target(&root) {
            faults.push(format!("{name}: {why}"));
        }
        if !testing.contains(&format!("`{name}`")) {
            faults.push(format!("{name}: no row in TESTING.md's mutants map"));
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
