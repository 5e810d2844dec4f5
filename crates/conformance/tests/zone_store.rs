//! The zone store at the size it reports.
//!
//! `Zone::resident_bytes` is what `experiments scale` exports as
//! `resident_bytes` and the benchmark as `zone_resident_bytes_per_name`.
//! This holds it to the bytes the counting allocator sees a zone keep
//! while it is built, holds a zone a server has taken to a per-name
//! ceiling, and holds the store to its size under churn and after every
//! name is gone. Print the gauge against the count with
//!
//! ```text
//! cargo test -p conformance --test zone_store -- --nocapture
//! ```

use std::sync::Arc;

use bindns::rr::{RData, RType, ResourceRecord, Soa};
use bindns::zone::{Zone, DELTA_LOG_CAP};
use bindns::{DomainName, ZoneDb};
use conformance::alloc::{measure_live, CountingAlloc};
use simnet::rng::DetRng;
use simnet::topology::{HostId, NetAddr};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn origin() -> DomainName {
    DomainName::parse("cell0.hns").expect("origin")
}

fn owner(i: usize) -> DomainName {
    DomainName::parse(&format!("n{i}.cell0.hns")).expect("owner")
}

/// The `UNSPEC` binding record of one of a pool of NSMs, sized as the
/// scale world's are.
fn binding(name: DomainName, slot: usize) -> ResourceRecord {
    let payload = format!(
        "nsm=nsm-cell0-{slot};host=ns.cell0.hns;context=cell0;\
         program=30000{slot};port=102{slot};suite=sun;version=1;owner=admin-cell0"
    );
    ResourceRecord::unspec(name, 600, payload.into_bytes())
}

/// A zone of `names` names: each a binding out of a pool of `pool`, and
/// with `extra` an `A` record too.
fn build(names: usize, pool: usize, extra: bool) -> Zone {
    let mut zone = Zone::new(origin(), 600);
    for i in 0..names {
        zone.add(binding(owner(i), i % pool)).expect("binding");
        if extra {
            let addr = ResourceRecord::a(owner(i), 600, NetAddr::of(HostId(i as u32)));
            zone.add(addr).expect("address");
        }
    }
    zone
}

#[test]
fn resident_bytes_is_within_a_tenth_of_what_the_allocator_counts() {
    for names in [4096, 65_536] {
        for (shape, pool, extra) in [
            ("16 shared bindings", 16, false),
            ("a binding each", names, false),
            ("a shared binding and an address each", 16, true),
        ] {
            let (zone, live) = measure_live(|| build(names, pool, extra));
            let live = live.expect("the counting allocator is installed");
            let gauge = zone.resident_bytes() as i64;
            println!(
                "{names} names, {shape}: gauge {gauge} B, allocator {live} B ({:.1} vs {:.1} B/name)",
                gauge as f64 / names as f64,
                live as f64 / names as f64
            );
            assert!(
                (gauge - live).abs() * 10 <= live,
                "{names} names, {shape}: gauge {gauge} B against {live} B live"
            );
        }
    }
}

/// A zone shaped like one cell of the scale world — 4,096 names, a pool
/// of 8 bindings — once a server has taken it: at most 21 B a name by the
/// allocator's count (owner names kept below the origin, 8-byte rows,
/// an owner index three quarters full, the store trimmed to fit, and the
/// database one slot for its one zone, where a B-tree leaf of eleven
/// held it for 21.3 B a name), and the gauge within a tenth of that
/// count.
#[test]
fn a_served_cell_holds_at_most_twenty_one_bytes_a_name() {
    let names = 4096;
    let (db, live) = measure_live(|| {
        let mut db = ZoneDb::new();
        db.add_zone(build(names, 8, false));
        db
    });
    let live = live.expect("the counting allocator is installed");
    let gauge = db.zone(&origin()).expect("served").resident_bytes() as i64;
    let per_name = live as f64 / names as f64;
    println!("served cell: gauge {gauge} B, allocator {live} B ({per_name:.1} B/name)");
    assert!(per_name <= 21.0, "{per_name:.1} B/name");
    assert!(
        (gauge - live).abs() * 10 <= live,
        "gauge {gauge} B against {live} B live"
    );
}

/// One name rebound 10^4 times, each time to a payload no other record
/// holds, then given back its first: every binding it let go of left the
/// body table, whose length never passed where it started — each new body
/// took the id the last one freed.
#[test]
fn a_name_rebound_ten_thousand_times_leaves_the_body_table_as_it_was() {
    let mut zone = build(4096, 16, false);
    let churn = DomainName::parse("churn.cell0.hns").expect("name");
    let first = binding(churn.clone(), 99);
    zone.add(first.clone()).expect("its own binding");
    let start = (zone.distinct_bodies(), zone.body_table_len());
    assert_eq!(start, (17, 17));
    for k in 0..10_000 {
        let record = binding(churn.clone(), 1000 + k);
        zone.replace(&churn, RType::Unspec, vec![record])
            .expect("replace");
        assert_eq!(zone.distinct_bodies(), start.0, "rebinding {k}");
        assert_eq!(zone.body_table_len(), start.1, "rebinding {k}");
    }
    zone.replace(&churn, RType::Unspec, vec![first.clone()])
        .expect("given back");
    assert_eq!((zone.distinct_bodies(), zone.body_table_len()), start);
    let records = zone
        .records_at(&churn)
        .map(|r| r.whole().collect::<Vec<_>>());
    assert_eq!(records, Some(vec![first]));
}

fn pick(rng: &mut DetRng, bound: usize) -> usize {
    rng.next_below(bound as u64) as usize
}

/// 10^5 cycles of replace one name's binding, delete another's, and put
/// a deleted one back: the store stays within half again of one built
/// fresh with what the churned zone holds.
#[test]
fn churn_keeps_the_store_within_half_again_of_a_fresh_one() {
    let names = 4096;
    let mut zone = build(names, 16, false);
    let mut rng = DetRng::new(27);
    let mut deleted: Vec<usize> = Vec::new();
    let rebind = |zone: &mut Zone, rng: &mut DetRng, i: usize| {
        let record = binding(owner(i), pick(rng, 64));
        zone.replace(&owner(i), RType::Unspec, vec![record])
            .expect("replace");
    };
    for _ in 0..100_000 {
        let changed = pick(&mut rng, names);
        rebind(&mut zone, &mut rng, changed);
        let doomed = pick(&mut rng, names);
        if zone.remove(&owner(doomed), RType::Unspec) > 0 {
            deleted.push(doomed);
        }
        if !deleted.is_empty() {
            let back = deleted.swap_remove(pick(&mut rng, deleted.len()));
            rebind(&mut zone, &mut rng, back);
        }
    }
    let mut fresh = Zone::new(origin(), 600);
    for record in zone.all_records() {
        fresh.add(record).expect("copy");
    }
    assert_eq!(fresh.record_count(), zone.record_count());
    let (churned, built) = (zone.resident_bytes(), fresh.resident_bytes());
    println!("churned {churned} B, fresh {built} B");
    assert!(
        2 * churned <= 3 * built,
        "churned {churned} B, fresh {built} B"
    );
}

/// Once the log has moved past them, the names of a zone whose every
/// name was deleted leave no trace: it holds no more than an empty zone
/// that logged the same changes since.
#[test]
fn a_zone_whose_every_name_is_deleted_shrinks_to_an_empty_zones_size() {
    let mut zone = build(4096, 16, false);
    for i in 0..4096 {
        assert_eq!(zone.remove(&owner(i), RType::Unspec), 1);
    }
    let mut empty = Zone::new(origin(), 600);
    let churn = DomainName::parse("churn.cell0.hns").expect("name");
    for z in [&mut zone, &mut empty] {
        for _ in 0..DELTA_LOG_CAP / 2 {
            z.add(binding(churn.clone(), 0)).expect("add");
            assert_eq!(z.remove(&churn, RType::Unspec), 1);
        }
    }
    assert_eq!((zone.record_count(), zone.distinct_bodies()), (0, 0));
    let (emptied, fresh) = (zone.resident_bytes(), empty.resident_bytes());
    assert!(emptied <= fresh, "emptied {emptied} B, empty {fresh} B");
}

/// The gauge counts what a body's rdata points at, whatever its kind.
#[test]
fn every_kind_of_rdata_is_counted() {
    let (zone, live) = measure_live(|| {
        let mut zone = Zone::new(origin(), 600);
        let at = |i: usize, rdata: RData, rtype: RType| ResourceRecord {
            name: owner(i),
            rtype,
            ttl: 600,
            rdata,
        };
        for i in 0..512 {
            let target = DomainName::parse(&format!("host{i}.cell0.hns")).expect("target");
            zone.add(at(i, RData::Domain(target.clone()), RType::Ns))
                .expect("ns");
            zone.add(at(i, RData::Text(format!("text {i}").into()), RType::Txt))
                .expect("txt");
            let soa = RData::Soa(Arc::new(Soa {
                primary: target,
                serial: i as u32,
                default_ttl: 600,
            }));
            zone.add(at(i, soa, RType::Soa)).expect("soa");
        }
        zone
    });
    let live = live.expect("the counting allocator is installed");
    let gauge = zone.resident_bytes() as i64;
    assert!(
        (gauge - live).abs() * 10 <= live,
        "gauge {gauge} B against {live} B live"
    );
}
