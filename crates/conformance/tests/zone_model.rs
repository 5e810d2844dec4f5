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

use bindns::rr::{RData, RType, ResourceRecord, MAX_RDATA};
use bindns::zone::Zone;
use bindns::DomainName;
use conformance::model::zone::ZoneModel;
use proptest::prelude::*;
use simnet::topology::{HostId, NetAddr};

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
