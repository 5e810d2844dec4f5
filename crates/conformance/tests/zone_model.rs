//! The `bindns` zone against its model (`conformance::model::zone`).
//!
//! Seeded sequences of add, remove, whole-name delete and replace —
//! refused ones included — floods of changes at one name that push the
//! delta log past everything before them, and trims of the store
//! (`Zone::shrink_to_fit`), run against a `Zone` and a `ZoneModel` side
//! by side, once under the origin `z` and once under the root (the zone
//! keeps owner names below its origin, so both the empty origin and the
//! apex are edge cases). After every step the two must agree on
//! `serial`, `all_records`, `record_count`, `size_bytes`, and, at every
//! name of the pool, `records_at`, `find_delegation` and `lookup` of
//! every type, and on `deltas_since` a sample of the serials seen.
//!
//! `Zone::load` is held to the zone it stands for — `Zone::new`, `add`
//! of each record in turn, `shrink_to_fit` — on the same seeded records,
//! refused ones included, and, by the counting allocator, to sizing its
//! rows, owner index and delta log once.

use bindns::rr::{RData, RType, ResourceRecord, MAX_RDATA};
use bindns::zone::{Zone, DELTA_LOG_CAP};
use bindns::DomainName;
use conformance::alloc::{measure_calls, CountingAlloc};
use conformance::model::zone::ZoneModel;
use proptest::prelude::*;
use simnet::topology::{HostId, NetAddr};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Apex, a chain of cuts-to-be, siblings, one name of another zone, and
/// one that ends in the text of the origin `z` but not at a label.
const POOL: [&str; 15] = [
    "z", "a.z", "b.z", "c.b.z", "d.c.b.z", "ns.b.z", "e.z", "f.e.z", "k.f.e.z", "g.z", "h.z",
    "i.z", "j.z", "x.y", "yz",
];

const TYPES: [RType; 5] = [RType::A, RType::Ns, RType::Cname, RType::Txt, RType::Unspec];

fn dn(s: &str) -> DomainName {
    DomainName::parse(s).expect("name")
}

/// A zone and its model, the names both are asked about, and the serial
/// after each step.
struct Pair {
    zone: Zone,
    model: ZoneModel,
    names: Vec<DomainName>,
    serials: Vec<u32>,
}

impl Pair {
    fn new(origin: DomainName, names: Vec<DomainName>) -> Pair {
        Pair {
            zone: Zone::new(origin.clone(), 60),
            model: ZoneModel::new(origin),
            names,
            serials: vec![1],
        }
    }

    /// A record of `rtype` at name `n`, its data chosen by `d`; one TXT
    /// in eight does not fit.
    fn record(&self, n: usize, rtype: RType, d: usize) -> ResourceRecord {
        let rdata = match rtype {
            RType::A => RData::Addr(NetAddr::of(HostId(d as u32 % 4))),
            RType::Ns | RType::Cname => RData::Domain(self.names[d % self.names.len()].clone()),
            RType::Txt if d % 8 == 7 => RData::Text("x".repeat(MAX_RDATA)),
            RType::Txt => RData::Text(format!("t{}", d % 4)),
            _ => RData::Opaque(vec![d as u8 % 4].into()),
        };
        let name = self.names[n].clone();
        ResourceRecord {
            name,
            rtype,
            ttl: 60,
            rdata,
        }
    }

    fn add(&mut self, rr: ResourceRecord) {
        let what = format!("add {} {} {:?}", rr.name, rr.rtype, rr.rdata);
        assert_eq!(
            self.zone.add(rr.clone()).is_ok(),
            self.model.add(rr),
            "{what}"
        );
    }

    fn remove(&mut self, n: usize, rtype: RType) {
        let name = &self.names[n];
        let removed = self.zone.remove(name, rtype);
        assert_eq!(
            removed,
            self.model.remove(name, rtype),
            "remove {name} {rtype}"
        );
    }

    /// `count` adds and removes of one record at name `n`.
    fn flood(&mut self, n: usize, d: usize, count: usize) {
        for _ in 0..count {
            self.add(self.record(n, RType::Unspec, d));
            self.remove(n, RType::Unspec);
        }
    }

    /// Runs one generated step, then compares everything.
    fn step(&mut self, (kind, n, t, d, count): (u8, usize, usize, usize, usize)) {
        let rtype = TYPES[t];
        match kind {
            0..=3 => self.add(self.record(n, rtype, d)),
            4 => self.remove(n, rtype),
            5 => TYPES.iter().for_each(|&rtype| self.remove(n, rtype)),
            6..=8 => {
                let mut records: Vec<ResourceRecord> =
                    (0..d % 3).map(|j| self.record(n, rtype, d + j)).collect();
                if d % 11 == 10 {
                    // Another owner: refused whatever else the set holds.
                    records.push(self.record((n + 1) % self.names.len(), rtype, d));
                }
                let name = self.names[n].clone();
                let what = format!("replace {name} {rtype} {records:?}");
                let accepted = self.zone.replace(&name, rtype, records.clone()).is_ok();
                assert_eq!(
                    accepted,
                    self.model.replace(&name, rtype, records),
                    "{what}"
                );
            }
            9 | 10 => self.flood(n, d, count),
            // Changes nothing the model can see.
            _ => self.zone.shrink_to_fit(),
        }
        self.serials.push(self.zone.serial());
        self.check();
    }

    fn check(&self) {
        let (zone, model) = (&self.zone, &self.model);
        assert_eq!(zone.serial(), model.serial());
        assert_eq!(zone.all_records(), model.all_records());
        assert_eq!(zone.record_count(), model.record_count());
        assert_eq!(zone.size_bytes(), model.size_bytes());
        for name in &self.names {
            assert_eq!(zone.records_at(name), model.records_at(name), "{name}");
            assert_eq!(
                zone.find_delegation(name),
                model.find_delegation(name),
                "{name}"
            );
            for rtype in TYPES {
                let (got, want) = (zone.lookup(name, rtype), model.lookup(name, rtype));
                assert_eq!(got, want, "lookup {name} {rtype}");
            }
        }
        let recent = self.serials.iter().rev().take(8);
        for &serial in recent.chain(self.serials.first()) {
            let got = zone.deltas_since(serial);
            assert_eq!(got, model.deltas_since(serial), "since {serial}");
        }
    }
}

proptest! {
    #[test]
    fn a_zone_answers_what_its_model_does(
        steps in proptest::collection::vec(
            (0u8..12, 0usize..POOL.len(), 0usize..TYPES.len(), 0usize..64, 0usize..600),
            1..60,
        ),
    ) {
        for origin in [dn("z"), DomainName::root()] {
            let mut pair = Pair::new(origin, POOL.iter().map(|s| dn(s)).collect());
            for &step in &steps {
                pair.step(step);
            }
        }
    }
}

/// Thirty-nine names, thirty of them deleted whole, then a flood at a
/// fortieth: while the log drops the deletions, the owner store compacts
/// (its resident bytes fall) with the names deleted last still in the
/// log, and every answer, `deltas_since` across the compaction included,
/// agrees with the model's.
#[test]
fn a_compaction_under_a_log_that_names_deleted_owners_agrees_with_the_model() {
    let names: Vec<DomainName> = (0..40).map(|i| dn(&format!("n{i}.z"))).collect();
    let mut pair = Pair::new(dn("z"), names);
    // A full log first, so that what is measured below is the store.
    pair.flood(39, 0, 512);
    for n in 0..39 {
        pair.add(pair.record(n, RType::Unspec, n));
    }
    for n in 0..30 {
        pair.remove(n, RType::Unspec);
        pair.serials.push(pair.zone.serial());
    }
    pair.check();
    let before = pair.zone.resident_bytes();
    pair.flood(39, 0, 508);
    pair.serials.push(pair.zone.serial());
    assert!(
        pair.zone.resident_bytes() < before,
        "no compaction: {} B, {before} B before",
        pair.zone.resident_bytes()
    );
    let kept = pair
        .zone
        .deltas_since(pair.serials[22])
        .expect("still logged");
    assert!(kept.contains(&dn("n29.z")), "{kept:?}");
    pair.check();
    // And back: the deleted names can be added again.
    for n in 0..30 {
        pair.add(pair.record(n, RType::Txt, n));
    }
    pair.check();
}

/// `Zone::new`, `add` of each of `records` in turn, `shrink_to_fit`: the
/// zone `Zone::load` stands for. With it, the error of the first record
/// `add` refused, if one was, and the records it took.
fn added(
    origin: &DomainName,
    records: &[ResourceRecord],
) -> (Zone, Option<bindns::NsError>, Vec<ResourceRecord>) {
    let mut zone = Zone::new(origin.clone(), 60);
    let (mut refused, mut taken) = (None, Vec::new());
    for rr in records {
        match zone.add(rr.clone()) {
            Ok(()) => taken.push(rr.clone()),
            Err(e) => {
                refused.get_or_insert(e);
            }
        }
    }
    zone.shrink_to_fit();
    (zone, refused, taken)
}

/// Everything a loaded zone and the zone it stands for must agree on:
/// records, serial, the delta log from every serial, the bytes held and
/// the bodies.
fn assert_same(loaded: &Zone, added: &Zone) {
    assert_eq!(loaded.all_records(), added.all_records());
    assert_eq!(loaded.serial(), added.serial());
    for serial in 0..=added.serial() + 1 {
        let got = loaded.deltas_since(serial);
        assert_eq!(got, added.deltas_since(serial), "since {serial}");
    }
    assert_eq!(loaded.resident_bytes(), added.resident_bytes());
    assert_eq!(loaded.distinct_bodies(), added.distinct_bodies());
}

proptest! {
    /// Seeded records at the pool's names, of every type: a load of them
    /// fails with the error `add` gives the first one it refuses (a
    /// CNAME beside other data, a name outside the zone, an rdata too
    /// long), and a load of the ones `add` took is the zone they made.
    #[test]
    fn a_load_is_the_zone_its_records_make_one_by_one(
        records in proptest::collection::vec(
            (0usize..POOL.len(), 0usize..TYPES.len(), 0usize..64),
            0..80,
        ),
    ) {
        for origin in [dn("z"), DomainName::root()] {
            let pair = Pair::new(origin.clone(), POOL.iter().map(|s| dn(s)).collect());
            let records: Vec<ResourceRecord> = records
                .iter()
                .map(|&(n, t, d)| pair.record(n, TYPES[t], d))
                .collect();
            let (reference, refused, taken) = added(&origin, &records);
            let loaded = Zone::load(origin.clone(), 60, records);
            prop_assert_eq!(loaded.err(), refused);
            let loaded = Zone::load(origin.clone(), 60, taken).expect("every one taken once");
            assert_same(&loaded, &reference);
        }
    }
}

/// Past the delta log's length, with several records at some names and
/// bodies shared and not: a load is still the zone its adds make.
#[test]
fn a_load_past_the_delta_log_is_the_zone_its_adds_make() {
    let origin = dn("cell0.hns");
    let records: Vec<ResourceRecord> = (0..3 * DELTA_LOG_CAP)
        .map(|i| {
            let name = dn(&format!("n{}.cell0.hns", i % (2 * DELTA_LOG_CAP + 7)));
            ResourceRecord::unspec(name, 60, vec![(i % 5) as u8, (i % 300 / 299) as u8])
        })
        .collect();
    let loaded = Zone::load(origin.clone(), 60, records.clone()).expect("load");
    let (reference, refused, _) = added(&origin, &records);
    assert_eq!(refused, None);
    assert!(loaded.deltas_since(1).is_none(), "the log was outrun");
    assert_same(&loaded, &reference);
}

/// A load of `n` records at `n` names, one body among them, requests its
/// 12-byte rows, its owner index (4 bytes a slot, a third more slots than
/// names) and its delta log (8 bytes an entry, at most the log's length)
/// once each: beyond those and the owner-name arena, which grows as it
/// does under `add`, it requests the same bytes whatever `n` is. The
/// zone comes back fitted: trimming it again requests nothing.
#[test]
fn a_load_sizes_its_rows_index_and_log_once() {
    let origin = dn("cell0.hns");
    let payload: std::sync::Arc<[u8]> = vec![7; 100].into();
    let mut rest = Vec::new();
    for n in [
        1,
        2,
        3,
        4,
        100,
        1000,
        DELTA_LOG_CAP,
        DELTA_LOG_CAP + 1,
        4096,
        10_000,
    ] {
        let labels: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let records: Vec<ResourceRecord> = labels
            .iter()
            .map(|label| {
                let name = origin.child(label).expect("name");
                ResourceRecord::unspec(name, 60, std::sync::Arc::clone(&payload))
            })
            .collect();
        let (mut zone, used) = measure_calls(|| Zone::load(origin.clone(), 60, records));
        let (bytes, _) = used.expect("the counting allocator is installed");
        let (_, arena) = measure_calls(|| {
            let mut text = String::new();
            labels.iter().for_each(|label| text.push_str(label));
            text.shrink_to_fit();
        });
        let (arena, _) = arena.expect("the counting allocator is installed");
        let sized = 12 * n + 4 * (4 * n).div_ceil(3) + 8 * n.min(DELTA_LOG_CAP);
        rest.push((n, bytes - arena - sized as u64));
        let zone = zone.as_mut().expect("load");
        let (_, trim) = measure_calls(|| zone.shrink_to_fit());
        assert_eq!(trim, Some((0, 0)), "{n} names: trimmed again");
    }
    assert!(rest.iter().all(|&(_, r)| r == rest[0].1), "{rest:?}");
}
