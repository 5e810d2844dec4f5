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
//! `Zone::load`, handed each record as its owner's text below the
//! origin and its body, is held to the zone it stands for — `Zone::new`,
//! `add` of each record in turn at the name `DomainName::child` makes of
//! its owner, `shrink_to_fit` — on the same seeded records, refused ones
//! included (the first error, the owner's or the record's, is the same),
//! down to the body ids, from the loaded serial on, since a load logs
//! nothing; and, by the counting allocator, to sizing its rows, owner
//! index and delta log once.

use std::sync::Arc;

use bindns::rr::{RData, RType, Records, ResourceRecord, MAX_RDATA};
use bindns::zone::{RrBody, Zone, DELTA_LOG_CAP};
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
            RType::Txt if d % 8 == 7 => RData::Text("x".repeat(MAX_RDATA).into()),
            RType::Txt => RData::Text(format!("t{}", d % 4).into()),
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
        let whole = |found: Records| found.whole().collect::<Vec<_>>();
        for name in &self.names {
            let held = zone.records_at(name).map(whole);
            assert_eq!(held, model.records_at(name), "{name}");
            let cut = zone.find_delegation(name).map(whole);
            assert_eq!(cut, model.find_delegation(name), "{name}");
            for rtype in TYPES {
                let (got, want) = (zone.lookup(name, rtype), model.lookup(name, rtype));
                assert_eq!(got.map(whole), want, "lookup {name} {rtype}");
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

/// Owners as a load takes them, below the origin `z` or the root: the
/// apex, the pool's names and upper-case spellings of two of them, and
/// owners `DomainName::child` refuses — an empty label, a 64-byte label,
/// bad characters — and four 63-byte labels, a name that fits below the
/// root and is too long below `z`.
fn load_owners() -> Vec<String> {
    let mut owners: Vec<String> = [
        "", "a", "b", "c.b", "d.c.b", "ns.b", "e", "f.e", "k.f.e", "g", "A", "C.B", "a..b", ".a",
        "a.", "a b", "a/b", "é",
    ]
    .map(String::from)
    .to_vec();
    owners.push("x".repeat(64));
    owners.push(vec!["x".repeat(63); 4].join("."));
    owners
}

/// The body of type `rtype` chosen by `d`: one TXT in eight does not fit;
/// an opaque payload is one of four shared allocations half the time and
/// a fresh allocation of the same bytes otherwise; the TTL is one of two.
fn load_body(rtype: RType, d: usize, targets: &[DomainName], shared: &[Arc<[u8]>]) -> RrBody {
    let rdata = match rtype {
        RType::A => RData::Addr(NetAddr::of(HostId(d as u32 % 4))),
        RType::Ns | RType::Cname => RData::Domain(targets[d % targets.len()].clone()),
        RType::Txt if d % 8 == 7 => RData::Text("x".repeat(MAX_RDATA).into()),
        RType::Txt => RData::Text(format!("t{}", d % 4).into()),
        _ if d % 8 < 4 => RData::Opaque(Arc::clone(&shared[d % 4])),
        _ => RData::Opaque(vec![d as u8 % 4].into()),
    };
    let ttl = 60 + (d / 8 % 2) as u32;
    RrBody { rtype, ttl, rdata }
}

/// `Zone::new`, `add` of each of `records` in turn at the name
/// `DomainName::child` makes of its owner (the origin for the empty
/// one), `shrink_to_fit`: the zone `Zone::load` stands for. With it, the
/// error of the first record refused — by `child` or by `add` — if one
/// was, and the records taken.
fn added(
    origin: &DomainName,
    records: &[(String, RrBody)],
) -> (Zone, Option<bindns::NsError>, Vec<(String, RrBody)>) {
    let mut zone = Zone::new(origin.clone(), 60);
    let (mut refused, mut taken) = (None, Vec::new());
    for (owner, body) in records {
        let name = match owner.as_str() {
            "" => Ok(origin.clone()),
            labels => origin.child(labels),
        };
        let added = name.and_then(|name| {
            zone.add(ResourceRecord {
                name,
                rtype: body.rtype,
                ttl: body.ttl,
                rdata: body.rdata.clone(),
            })
        });
        match added {
            Ok(()) => taken.push((owner.clone(), body.clone())),
            Err(e) => {
                refused.get_or_insert(e);
            }
        }
    }
    zone.shrink_to_fit();
    (zone, refused, taken)
}

/// Everything a loaded zone and the zone it stands for must agree on:
/// records, serial, the delta log from the loaded serial on, the bytes
/// held (a load logs nothing, but holds the room the adds' log fills),
/// the bodies, and at each of `names` its records and their body ids.
/// Below the loaded serial the loaded zone answers nothing
/// incrementally: it never served one.
fn assert_same(loaded: &Zone, added: &Zone, names: &[DomainName]) {
    assert_eq!(loaded.all_records(), added.all_records());
    let loaded_at = added.serial();
    assert_eq!(loaded.serial(), loaded_at);
    for serial in 0..loaded_at {
        assert_eq!(loaded.deltas_since(serial), None, "since {serial}");
    }
    for serial in loaded_at..=loaded_at + 1 {
        let got = loaded.deltas_since(serial);
        assert_eq!(got, added.deltas_since(serial), "since {serial}");
    }
    assert_eq!(loaded.resident_bytes(), added.resident_bytes());
    assert_eq!(loaded.distinct_bodies(), added.distinct_bodies());
    assert_eq!(loaded.body_table_len(), added.body_table_len());
    for name in names {
        assert_eq!(loaded.records_at(name), added.records_at(name), "{name}");
        assert_eq!(loaded.body_ids(name), added.body_ids(name), "{name}");
    }
}

proptest! {
    /// Seeded records at owners below the origin, of every type: a load
    /// of them fails with the error `child` or `add` gives the first one
    /// refused (an owner `child` refuses, a CNAME beside other data, an
    /// rdata too long), and a load of the ones taken is the zone their
    /// adds made, upper case folded and equal payloads sharing a body
    /// whichever allocation holds them.
    #[test]
    fn a_load_is_the_zone_its_records_make_one_by_one(
        records in proptest::collection::vec(
            (0usize..load_owners().len(), 0usize..TYPES.len(), 0usize..64),
            0..80,
        ),
    ) {
        let owners = load_owners();
        let shared: Vec<Arc<[u8]>> = (0..4u8).map(|b| vec![b].into()).collect();
        for origin in [dn("z"), DomainName::root()] {
            let names: Vec<DomainName> = owners
                .iter()
                .filter_map(|owner| match owner.as_str() {
                    "" => Some(origin.clone()),
                    labels => origin.child(labels).ok(),
                })
                .collect();
            let records: Vec<(String, RrBody)> = records
                .iter()
                .map(|&(n, t, d)| (owners[n].clone(), load_body(TYPES[t], d, &names, &shared)))
                .collect();
            let (reference, refused, taken) = added(&origin, &records);
            let loaded = Zone::load(origin.clone(), 60, records);
            prop_assert_eq!(loaded.err(), refused);
            let loaded = Zone::load(origin.clone(), 60, taken).expect("every one taken once");
            assert_same(&loaded, &reference, &names);
        }
    }
}

/// Equal payloads share one body, whether a load meets them in one
/// allocation or in two, and under another TTL are another body; the
/// body holds the allocation it met first.
#[test]
fn equal_payloads_share_a_body_in_one_allocation_or_two() {
    let (first, second): (Arc<[u8]>, Arc<[u8]>) = (vec![1, 2, 3].into(), vec![1, 2, 3].into());
    let body = |payload: &Arc<[u8]>, ttl| RrBody {
        rtype: RType::Unspec,
        ttl,
        rdata: RData::Opaque(Arc::clone(payload)),
    };
    let records = [
        ("a", body(&first, 60)),
        ("b", body(&second, 60)),
        ("c", body(&first, 60)),
        ("d", body(&first, 61)),
        ("e", body(&second, 61)),
        ("f", body(&second, 60)),
    ];
    let loaded = Zone::load(dn("z"), 60, records).expect("load");
    let ids = |labels: &str| -> Vec<u32> {
        labels
            .split(' ')
            .flat_map(|label| loaded.body_ids(&dn(&format!("{label}.z"))))
            .collect()
    };
    let (at_60, at_61) = (ids("a b c f"), ids("d e"));
    assert!(at_60.iter().all(|&id| id == at_60[0]), "{at_60:?}");
    assert!(at_61.iter().all(|&id| id == at_61[0]), "{at_61:?}");
    assert_ne!(at_60[0], at_61[0]);
    assert_eq!(loaded.distinct_bodies(), 2);
    for label in ["b", "e", "f"] {
        let held = loaded.records_at(&dn(&format!("{label}.z"))).expect("held");
        let RData::Opaque(payload) = &held.bodies()[0].rdata else {
            panic!("{held:?}");
        };
        assert!(Arc::ptr_eq(payload, &first), "{label}: a copy of `first`");
    }
}

/// A payload equal to a held one in another allocation is dropped once
/// its body is found, and the allocator may hand its address to the
/// next payload made: a load files only the allocation its table holds,
/// so each payload, made as the load reads it, is stored with its own
/// bytes.
#[test]
fn a_payload_at_a_freed_address_is_read_for_its_own_bytes() {
    let bytes = |i: u8| vec![i * (i % 2)];
    let records = (0..64).map(|i| (format!("n{i}"), unspec(bytes(i).into())));
    let loaded = Zone::load(dn("z"), 60, records).expect("load");
    for i in 0..64 {
        let held = loaded.records_at(&dn(&format!("n{i}.z"))).expect("held");
        assert_eq!(
            held.bodies()[0].rdata,
            RData::Opaque(bytes(i).into()),
            "n{i}"
        );
    }
    assert_eq!(loaded.distinct_bodies(), 33);
}

/// An opaque body of TTL 60 holding `payload`.
fn unspec(payload: Arc<[u8]>) -> RrBody {
    RrBody {
        rtype: RType::Unspec,
        ttl: 60,
        rdata: RData::Opaque(payload),
    }
}

/// Past the delta log's length, with several records at some names and
/// bodies shared and not: a load is still the zone its adds make.
#[test]
fn a_load_past_the_delta_log_is_the_zone_its_adds_make() {
    let origin = dn("cell0.hns");
    let records: Vec<(String, RrBody)> = (0..3 * DELTA_LOG_CAP)
        .map(|i| {
            let label = format!("n{}", i % (2 * DELTA_LOG_CAP + 7));
            let payload = vec![(i % 5) as u8, (i % 300 / 299) as u8];
            (label, unspec(payload.into()))
        })
        .collect();
    let loaded = Zone::load(origin.clone(), 60, records.clone()).expect("load");
    let (reference, refused, _) = added(&origin, &records);
    assert_eq!(refused, None);
    assert!(loaded.deltas_since(1).is_none(), "a load logs nothing");
    let names: Vec<DomainName> = (0..2 * DELTA_LOG_CAP + 7)
        .map(|i| dn(&format!("n{i}.cell0.hns")))
        .collect();
    assert_same(&loaded, &reference, &names);
}

/// A load of `n` records at `n` names, one body among them, requests its
/// 8-byte rows, its owner index (4 bytes a slot, a third more slots than
/// names) and its delta log's room (8 bytes an entry, up to the log's
/// cap, though it logs nothing) once each: beyond those and the
/// owner-name arena, which grows as it does under `add`, it requests the
/// same bytes whatever `n` is. The zone comes back fitted: trimming it
/// again requests nothing.
#[test]
fn a_load_sizes_its_rows_index_and_log_once() {
    let origin = dn("cell0.hns");
    let payload: Arc<[u8]> = vec![7; 100].into();
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
        let records: Vec<(&str, RrBody)> = labels
            .iter()
            .map(|label| (label.as_str(), unspec(Arc::clone(&payload))))
            .collect();
        let (mut zone, used) = measure_calls(|| Zone::load(origin.clone(), 60, records));
        let (bytes, _) = used.expect("the counting allocator is installed");
        let (_, arena) = measure_calls(|| {
            let mut text = String::new();
            labels.iter().for_each(|label| text.push_str(label));
            text.shrink_to_fit();
        });
        let (arena, _) = arena.expect("the counting allocator is installed");
        let sized = 8 * n + 4 * (4 * n).div_ceil(3) + 8 * n.min(DELTA_LOG_CAP);
        rest.push((n, bytes - arena - sized as u64));
        let zone = zone.as_mut().expect("load");
        let (_, trim) = measure_calls(|| zone.shrink_to_fit());
        assert_eq!(trim, Some((0, 0)), "{n} names: trimmed again");
    }
    assert!(rest.iter().all(|&(_, r)| r == rest[0].1), "{rest:?}");
}
