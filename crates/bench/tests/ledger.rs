//! An op's ledger is its time: the rows `World::measure` returns sum to
//! the microseconds the op measured, in every cell of Table 3.1 and in
//! every other figure `experiments all` takes through `World::measure`.

use hns_bench::experiments as exp;
use hns_bench::scenario::{deploy, Arrangement, CacheState};
use hns_core::cache::CacheMode;
use nsms::nsm_cache::NsmCacheForm;
use simnet::{Kind, Ledger};

/// The rows' microseconds.
fn rows_us(ledger: &Ledger) -> u64 {
    ledger.rows().map(|(_, row)| row.us).sum()
}

/// Table 3.1's fifteen cells, row-major, each with its ledger.
fn table_3_1() -> Vec<(Arrangement, CacheState, Ledger)> {
    let states = [CacheState::Miss, CacheState::HnsHit, CacheState::BothHit];
    let mut cells = Vec::new();
    for arrangement in Arrangement::all() {
        let deployed = deploy(arrangement, NsmCacheForm::Marshalled, CacheMode::Marshalled);
        for state in states {
            cells.push((arrangement, state, deployed.measure(state)));
        }
    }
    cells
}

/// Every cell's rows sum exactly to the microseconds it measured, and
/// the cell is the figure `experiments table31` prints.
#[test]
fn every_table_3_1_cell_is_the_sum_of_its_ledger() {
    let cells = table_3_1();
    assert_eq!(cells.len(), 15);
    let table = exp::table31::run();
    for (i, (arrangement, state, ledger)) in cells.iter().enumerate() {
        let took = ledger.total();
        assert_eq!(
            rows_us(ledger),
            took.as_us(),
            "{} {state:?}: the rows do not sum to the cell\n{ledger:?}",
            arrangement.label()
        );
        let printed = table.rows[i / 3].1[i % 3].measured;
        assert_eq!(printed, took.as_ms_f64(), "{}", arrangement.label());
    }
}

/// Row 2 against row 1 in column B, the table's −9.5 % cell: the terms
/// the agent arrangement adds, as EXPERIMENTS.md E1 prints them. The
/// differences sum to the difference of the two cells.
#[test]
fn row_2_against_row_1_in_column_b_is_a_term_diff() {
    let cells = table_3_1();
    let cell = |arrangement| {
        let found = cells
            .iter()
            .find(|(a, s, _)| *a == arrangement && *s == CacheState::HnsHit);
        found
            .map(|(_, _, ledger)| *ledger)
            .expect("a column B cell")
    };
    let (row1, row2) = (cell(Arrangement::AllLinked), cell(Arrangement::Agent));
    let mut diff = Vec::new();
    let mut sum = 0i64;
    for (kind, two) in row2.rows() {
        let one = row1.row(kind);
        let us = two.us as i64 - one.us as i64;
        if us != 0 || two.count != one.count {
            let count = two.count as i64 - one.count as i64;
            diff.push(format!(
                "{:<18} {count:+3} {:+9.3} ms",
                kind.label(),
                us as f64 / 1000.0
            ));
        }
        sum += us;
    }
    let cells_ms = (row2.total().as_us() as i64 - row1.total().as_us() as i64) as f64 / 1000.0;
    println!(
        "row 2 - row 1, column B ({:.1} - {:.1} ms):\n{}\n{:<22} {:+9.3} ms",
        row2.total().as_ms_f64(),
        row1.total().as_ms_f64(),
        diff.join("\n"),
        "total",
        sum as f64 / 1000.0
    );
    assert_eq!(sum as f64 / 1000.0, cells_ms);
    assert!(
        row2.row(Kind::AgentArgMarshal).count > 0,
        "the agent hop marshals"
    );
}

/// Every table `experiments all` prints, run: each op it measures goes
/// through `World::measure`, which in this (debug) build checks that
/// every charge was filed in a row, so that the op's rows sum to its
/// time.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "`World::measure` makes the check this test reads in a debug build"
)]
fn every_figure_of_experiments_all_is_the_sum_of_its_ledger() {
    for (name, table) in exp::TABLES {
        assert!(!table().is_empty(), "{name} printed nothing");
    }
}
