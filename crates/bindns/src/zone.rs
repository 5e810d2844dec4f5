//! Authoritative zones.
//!
//! Record storage is **content-shared**: the owner name lives once as the
//! map key, and the owner-independent remainder of each record (type, TTL,
//! rdata) is kept as an [`Arc<RrBody>`] deduplicated through a per-zone
//! arena. A meta zone of 10^6 names whose NSM bindings are near-identical
//! therefore stores each distinct body once and each record as one pointer
//! — the seed stored a full `ResourceRecord` (owner name included) per
//! record. [`Zone::size_bytes`] keeps the naive per-record accounting
//! (it drives calibrated transfer costs); [`Zone::resident_bytes`]
//! reports what the shared layout actually holds. The map is hashed: the
//! question a server is asked is an exact match, one probe; the one
//! reader that needs the owners in name order, the transfer payload
//! ([`Zone::all_records`]), sorts them when the transfer is made.
//!
//! Zones also keep a bounded **delta log** of which owner names changed
//! at which serial, the basis of IXFR-style incremental transfer
//! ([`crate::axfr::transfer_zone_incremental`]): a client that preloaded
//! at serial S asks for "changes since S" and receives only the record
//! sets of names touched after S, falling back to a full transfer when
//! the log has been truncated past S.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::error::{NsError, NsResult};
use crate::name::DomainName;
use crate::rr::{RData, RType, ResourceRecord};

/// The owner-independent remainder of a resource record. Two records at
/// different names with the same type, TTL and rdata share one body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RrBody {
    /// Record type.
    pub rtype: RType,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Payload.
    pub rdata: RData,
}

impl RrBody {
    fn of(rr: &ResourceRecord) -> RrBody {
        RrBody {
            rtype: rr.rtype,
            ttl: rr.ttl,
            rdata: rr.rdata.clone(),
        }
    }

    fn to_record(&self, name: &DomainName) -> ResourceRecord {
        ResourceRecord {
            name: name.clone(),
            rtype: self.rtype,
            ttl: self.ttl,
            rdata: self.rdata.clone(),
        }
    }

    /// Stored bytes of the body alone (type + ttl + rdata).
    fn body_bytes(&self) -> usize {
        8 + self.rdata.encoded_len().unwrap_or(0)
    }
}

/// Maximum delta-log entries retained; older entries are dropped and the
/// serials they covered can then only be served by full transfer.
pub const DELTA_LOG_CAP: usize = 1024;

/// An authoritative zone: a subtree of the domain space with a serial
/// number that advances on every mutation (the basis of zone transfer).
#[derive(Debug, Clone)]
pub struct Zone {
    origin: DomainName,
    serial: u32,
    default_ttl: u32,
    /// Hashed, not ordered: an exact-match question is one probe, and
    /// the one reader that needs name order, [`Zone::all_records`], sorts.
    records: HashMap<DomainName, Vec<Arc<RrBody>>>,
    /// Content-dedup arena: one shared allocation per distinct body.
    arena: HashSet<Arc<RrBody>>,
    /// `(serial after the mutation, owner name touched)`, oldest first.
    delta_log: VecDeque<(u32, DomainName)>,
    /// Lowest client serial the log can still serve incrementally.
    delta_floor: u32,
    /// `NS` records held below the origin, i.e. at zone cuts. While it
    /// is zero — every meta zone — [`Zone::find_delegation`] answers
    /// without walking (and building) the ancestors of the name.
    cut_ns_records: usize,
}

impl Zone {
    /// Creates an empty zone.
    pub fn new(origin: DomainName, default_ttl: u32) -> Self {
        Zone {
            origin,
            serial: 1,
            default_ttl,
            records: HashMap::new(),
            arena: HashSet::new(),
            delta_log: VecDeque::new(),
            delta_floor: 1,
            cut_ns_records: 0,
        }
    }

    /// Interns `body` in the arena, returning the shared copy.
    fn share(&mut self, body: RrBody) -> Arc<RrBody> {
        match self.arena.get(&body) {
            Some(shared) => Arc::clone(shared),
            None => {
                let shared = Arc::new(body);
                self.arena.insert(Arc::clone(&shared));
                shared
            }
        }
    }

    /// Drops arena bodies no longer referenced by any record (`dropped`
    /// are the per-name copies just removed). Conservative: bodies still
    /// shared with a cloned zone are kept.
    fn prune(&mut self, dropped: Vec<Arc<RrBody>>) {
        for body in dropped {
            // The arena holds one reference and `body` itself holds one;
            // exactly two means no record (here or in a clone) uses it.
            if Arc::strong_count(&body) == 2 {
                self.arena.remove(&body);
            }
        }
    }

    /// Bumps the serial and logs `name` as changed at the new serial.
    fn log_change(&mut self, name: DomainName) {
        self.serial += 1;
        if self.delta_log.len() == DELTA_LOG_CAP {
            if let Some((dropped_serial, _)) = self.delta_log.pop_front() {
                self.delta_floor = dropped_serial;
            }
        }
        self.delta_log.push_back((self.serial, name));
    }

    /// The zone origin.
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// Current serial number.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// Default TTL applied by [`Zone::add_with_default_ttl`].
    pub fn default_ttl(&self) -> u32 {
        self.default_ttl
    }

    /// True if `name` falls within this zone.
    pub fn contains(&self, name: &DomainName) -> bool {
        name.is_within(&self.origin)
    }

    /// Whether `rr` may join its name, which is `occupied` if it holds any
    /// record and `has_cname` if one of them is a `CNAME`: the name must
    /// lie in this zone and the rdata fit, at most one `CNAME` may exist
    /// at a name, and a `CNAME` may not coexist with other data (the
    /// classic BIND rule).
    fn admit(&self, rr: &ResourceRecord, occupied: bool, has_cname: bool) -> NsResult<()> {
        if !self.contains(&rr.name) {
            return Err(NsError::NotAuthoritative(rr.name.to_string()));
        }
        rr.rdata.encoded_len()?;
        if rr.rtype == RType::Cname && occupied {
            return Err(NsError::Conflict(format!(
                "CNAME cannot coexist at {}",
                rr.name
            )));
        }
        if has_cname {
            return Err(NsError::Conflict(format!(
                "{} already holds a CNAME",
                rr.name
            )));
        }
        Ok(())
    }

    /// Stores an admitted record, bumping the serial.
    fn insert(&mut self, rr: ResourceRecord) {
        let body = self.share(RrBody::of(&rr));
        self.records.entry(rr.name.clone()).or_default().push(body);
        if rr.rtype == RType::Ns && rr.name != self.origin {
            self.cut_ns_records += 1;
        }
        self.log_change(rr.name);
    }

    /// Adds a record, bumping the serial, if [`Zone::admit`]s it.
    pub fn add(&mut self, rr: ResourceRecord) -> NsResult<()> {
        let set = self.records.get(&rr.name).map_or(&[][..], Vec::as_slice);
        let has_cname = set.iter().any(|r| r.rtype == RType::Cname);
        self.admit(&rr, !set.is_empty(), has_cname)?;
        self.insert(rr);
        Ok(())
    }

    /// Adds a record with the zone's default TTL.
    pub fn add_with_default_ttl(&mut self, mut rr: ResourceRecord) -> NsResult<()> {
        rr.ttl = self.default_ttl;
        self.add(rr)
    }

    /// Removes all records at `name` of type `rtype`; returns how many were
    /// removed. Bumps the serial if anything changed.
    pub fn remove(&mut self, name: &DomainName, rtype: RType) -> usize {
        let mut removed = 0;
        let mut dropped = Vec::new();
        if let Some(set) = self.records.get_mut(name) {
            let before = set.len();
            set.retain(|r| {
                if r.rtype == rtype {
                    dropped.push(Arc::clone(r));
                    false
                } else {
                    true
                }
            });
            removed = before - set.len();
            if set.is_empty() {
                self.records.remove(name);
            }
        }
        if removed > 0 {
            if rtype == RType::Ns && *name != self.origin {
                self.cut_ns_records -= removed;
            }
            self.prune(dropped);
            self.log_change(name.clone());
        }
        removed
    }

    /// Replaces the record set at (`name`, `rtype`) atomically: the whole
    /// new set is checked against what would remain at the name before
    /// anything is touched, so a refused replace leaves records, serial
    /// and delta log as they were.
    pub fn replace(
        &mut self,
        name: &DomainName,
        rtype: RType,
        records: Vec<ResourceRecord>,
    ) -> NsResult<()> {
        let set = self.records.get(name).map_or(&[][..], Vec::as_slice);
        let mut staying = set.iter().filter(|r| r.rtype != rtype);
        let mut occupied = staying.clone().next().is_some();
        let mut has_cname = staying.any(|r| r.rtype == RType::Cname);
        for rr in &records {
            if rr.name != *name || rr.rtype != rtype {
                return Err(NsError::BadRecord("replace set mismatch".into()));
            }
            self.admit(rr, occupied, has_cname)?;
            occupied = true;
            has_cname |= rtype == RType::Cname;
        }
        self.remove(name, rtype);
        for rr in records {
            self.insert(rr);
        }
        self.serial += 1;
        Ok(())
    }

    /// Owner names changed since `from_serial`, in name order, or `None`
    /// when the delta log no longer reaches back that far (the caller
    /// must fall back to a full transfer). A name is reported even if
    /// its records were later removed entirely; callers read the current
    /// set (possibly empty) to learn its fate.
    pub fn deltas_since(&self, from_serial: u32) -> Option<Vec<DomainName>> {
        if from_serial < self.delta_floor {
            return None;
        }
        let changed: BTreeSet<DomainName> = self
            .delta_log
            .iter()
            .filter(|(serial, _)| *serial > from_serial)
            .map(|(_, name)| name.clone())
            .collect();
        Some(changed.into_iter().collect())
    }

    /// Every record at `name` (all types), or `None` if nothing is
    /// stored there.
    pub fn records_at(&self, name: &DomainName) -> Option<Vec<ResourceRecord>> {
        self.records
            .get(name)
            .map(|set| set.iter().map(|b| b.to_record(name)).collect())
    }

    /// Looks up records of `rtype` at `name`, following at most one level
    /// of `CNAME` indirection within the zone.
    pub fn lookup(&self, name: &DomainName, rtype: RType) -> NsResult<Vec<ResourceRecord>> {
        if !self.contains(name) {
            return Err(NsError::NotAuthoritative(name.to_string()));
        }
        let set = self
            .records
            .get(name)
            .ok_or_else(|| NsError::NameError(name.to_string()))?;
        // Nearly always the whole set matches: sized for it, once.
        let mut matched = Vec::with_capacity(set.len());
        let of_type = set.iter().filter(|r| r.rtype == rtype);
        matched.extend(of_type.map(|b| b.to_record(name)));
        if !matched.is_empty() {
            return Ok(matched);
        }
        // CNAME chase (one level).
        if rtype != RType::Cname {
            if let Some(cname) = set.iter().find(|r| r.rtype == RType::Cname) {
                if let RData::Domain(target) = &cname.rdata {
                    if self.contains(target) {
                        let mut result = vec![cname.to_record(name)];
                        if let Ok(mut chased) = self.lookup(target, rtype) {
                            result.append(&mut chased);
                        }
                        return Ok(result);
                    }
                    return Ok(vec![cname.to_record(name)]);
                }
            }
        }
        Err(NsError::NoData(name.to_string()))
    }

    /// Finds a delegation (zone cut) covering `name`, if any: the deepest
    /// ancestor-or-self of `name` that lies strictly below the origin and
    /// holds `NS` records. Returns the cut's `NS` records plus any glue
    /// `A` records this zone holds for the named servers.
    pub fn find_delegation(&self, name: &DomainName) -> Option<Vec<ResourceRecord>> {
        if self.cut_ns_records == 0 {
            return None;
        }
        let mut cursor = Some(name.clone());
        let mut best: Option<Vec<ResourceRecord>> = None;
        while let Some(candidate) = cursor {
            if candidate.depth() <= self.origin.depth() {
                break;
            }
            if let Some(set) = self.records.get(&candidate) {
                let ns: Vec<ResourceRecord> = set
                    .iter()
                    .filter(|r| r.rtype == RType::Ns)
                    .map(|b| b.to_record(&candidate))
                    .collect();
                if !ns.is_empty() {
                    // Prefer the deepest cut; the first found walking up
                    // from `name` is the deepest.
                    if best.is_none() {
                        best = Some(ns);
                    }
                }
            }
            cursor = candidate.parent();
        }
        best.map(|ns| {
            let mut referral = ns;
            let glue: Vec<ResourceRecord> = referral
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Domain(target) => self.records.get(target).map(|set| {
                        set.iter()
                            .filter(|g| g.rtype == RType::A)
                            .map(|b| b.to_record(target))
                            .collect::<Vec<_>>()
                    }),
                    _ => None,
                })
                .flatten()
                .collect();
            referral.extend(glue);
            referral
        })
    }

    /// All records, in deterministic (name-sorted) order: the zone
    /// transfer payload. The owners are sorted here, at transfer time.
    pub fn all_records(&self) -> Vec<ResourceRecord> {
        let mut sets: Vec<_> = self.records.iter().collect();
        sets.sort_unstable_by_key(|(name, _)| *name);
        sets.into_iter()
            .flat_map(|(name, set)| set.iter().map(move |b| b.to_record(name)))
            .collect()
    }

    /// Number of records in the zone.
    pub fn record_count(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// Total stored size in bytes, counted naively — every record pays
    /// for its owner name and its full body, as if nothing were shared.
    /// This is the wire-transfer accounting (it drives the calibrated
    /// zone-transfer cost) and the baseline [`Zone::resident_bytes`] is
    /// measured against.
    pub fn size_bytes(&self) -> usize {
        self.records
            .iter()
            .flat_map(|(name, set)| set.iter().map(move |b| name.wire_len() + b.body_bytes()))
            .sum()
    }

    /// Bytes the shared layout actually holds resident: each owner name
    /// once (the map key), one `Arc` pointer per record slot, and each
    /// distinct body once (the arena copy).
    pub fn resident_bytes(&self) -> usize {
        let names_and_slots: usize = self
            .records
            .iter()
            .map(|(name, set)| name.wire_len() + set.len() * std::mem::size_of::<usize>())
            .sum();
        let bodies: usize = self.arena.iter().map(|b| b.body_bytes()).sum();
        names_and_slots + bodies
    }

    /// Number of distinct record bodies shared through the arena.
    pub fn distinct_bodies(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology::{HostId, NetAddr};

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn zone() -> Zone {
        Zone::new(name("cs.washington.edu"), 3600)
    }

    #[test]
    fn add_and_lookup() {
        let mut z = zone();
        let rr = ResourceRecord::a(name("fiji.cs.washington.edu"), 60, NetAddr::of(HostId(1)));
        z.add(rr.clone()).expect("add");
        let found = z
            .lookup(&name("fiji.cs.washington.edu"), RType::A)
            .expect("lookup");
        assert_eq!(found, vec![rr]);
    }

    #[test]
    fn serial_advances_on_mutation() {
        let mut z = zone();
        let s0 = z.serial();
        z.add(ResourceRecord::txt(name("a.cs.washington.edu"), 60, "x"))
            .expect("add");
        assert!(z.serial() > s0);
        let s1 = z.serial();
        assert_eq!(z.remove(&name("a.cs.washington.edu"), RType::Txt), 1);
        assert!(z.serial() > s1);
        let s2 = z.serial();
        assert_eq!(z.remove(&name("a.cs.washington.edu"), RType::Txt), 0);
        assert_eq!(z.serial(), s2, "no-op remove must not bump serial");
    }

    #[test]
    fn lookup_errors_distinguish_cases() {
        let mut z = zone();
        z.add(ResourceRecord::txt(name("a.cs.washington.edu"), 60, "x"))
            .expect("add");
        assert!(matches!(
            z.lookup(&name("b.cs.washington.edu"), RType::A),
            Err(NsError::NameError(_))
        ));
        assert!(matches!(
            z.lookup(&name("a.cs.washington.edu"), RType::A),
            Err(NsError::NoData(_))
        ));
        assert!(matches!(
            z.lookup(&name("x.ee.washington.edu"), RType::A),
            Err(NsError::NotAuthoritative(_))
        ));
    }

    #[test]
    fn multiple_records_per_name() {
        // "multiple network addresses for gateway hosts".
        let mut z = zone();
        let n = name("gateway.cs.washington.edu");
        z.add(ResourceRecord::a(n.clone(), 60, NetAddr::of(HostId(1))))
            .expect("add");
        z.add(ResourceRecord::a(n.clone(), 60, NetAddr::of(HostId(2))))
            .expect("add");
        assert_eq!(z.lookup(&n, RType::A).expect("lookup").len(), 2);
    }

    #[test]
    fn cname_chase_within_zone() {
        let mut z = zone();
        let alias = name("www.cs.washington.edu");
        let target = name("fiji.cs.washington.edu");
        z.add(ResourceRecord::cname(alias.clone(), 60, target.clone()))
            .expect("add");
        z.add(ResourceRecord::a(
            target.clone(),
            60,
            NetAddr::of(HostId(5)),
        ))
        .expect("add");
        let found = z.lookup(&alias, RType::A).expect("lookup");
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].rtype, RType::Cname);
        assert_eq!(found[1].rtype, RType::A);
    }

    #[test]
    fn cname_exclusivity_enforced() {
        let mut z = zone();
        let n = name("x.cs.washington.edu");
        z.add(ResourceRecord::txt(n.clone(), 60, "data"))
            .expect("add");
        assert!(matches!(
            z.add(ResourceRecord::cname(
                n.clone(),
                60,
                name("y.cs.washington.edu")
            )),
            Err(NsError::Conflict(_))
        ));
        let n2 = name("z.cs.washington.edu");
        z.add(ResourceRecord::cname(
            n2.clone(),
            60,
            name("y.cs.washington.edu"),
        ))
        .expect("add");
        assert!(matches!(
            z.add(ResourceRecord::txt(n2, 60, "data")),
            Err(NsError::Conflict(_))
        ));
    }

    #[test]
    fn replace_swaps_record_set() {
        let mut z = zone();
        let n = name("svc.cs.washington.edu");
        z.add(ResourceRecord::txt(n.clone(), 60, "old"))
            .expect("add");
        z.replace(
            &n,
            RType::Txt,
            vec![
                ResourceRecord::txt(n.clone(), 60, "new1"),
                ResourceRecord::txt(n.clone(), 60, "new2"),
            ],
        )
        .expect("replace");
        let found = z.lookup(&n, RType::Txt).expect("lookup");
        assert_eq!(found.len(), 2);
        assert!(found
            .iter()
            .all(|r| matches!(&r.rdata, RData::Text(t) if t.starts_with("new"))));
    }

    #[test]
    fn replace_rejects_mismatched_records() {
        let mut z = zone();
        let n = name("svc.cs.washington.edu");
        let old = ResourceRecord::txt(n.clone(), 60, "old");
        z.add(old.clone()).expect("add");
        let wrong = ResourceRecord::txt(name("other.cs.washington.edu"), 60, "x");
        assert!(z.replace(&n, RType::Txt, vec![wrong]).is_err());
        assert_eq!(
            z.lookup(&n, RType::Txt).expect("old set still there"),
            [old]
        );
    }

    /// A replace refused part-way through its list once had removed the
    /// old set and added the records before the bad one.
    #[test]
    fn a_refused_replace_leaves_the_zone_as_it_was() {
        let n = name("svc.cs.washington.edu");
        let txt = |text: &str| ResourceRecord::txt(n.clone(), 60, text);
        let good = || txt("new");
        let refused: [(&str, RType, Vec<ResourceRecord>); 5] = [
            (
                "another owner second",
                RType::Txt,
                vec![
                    good(),
                    ResourceRecord::txt(name("other.cs.washington.edu"), 60, "x"),
                ],
            ),
            (
                "another type second",
                RType::Txt,
                vec![
                    good(),
                    ResourceRecord::a(n.clone(), 60, NetAddr::of(HostId(1))),
                ],
            ),
            (
                "oversize rdata second",
                RType::Txt,
                vec![good(), txt(&"x".repeat(crate::rr::MAX_RDATA))],
            ),
            (
                "a CNAME beside the A record that stays",
                RType::Cname,
                vec![ResourceRecord::cname(
                    n.clone(),
                    60,
                    name("t.cs.washington.edu"),
                )],
            ),
            (
                "two CNAMEs",
                RType::Cname,
                vec![
                    ResourceRecord::cname(n.clone(), 60, name("t.cs.washington.edu")),
                    ResourceRecord::cname(n.clone(), 60, name("u.cs.washington.edu")),
                ],
            ),
        ];
        for (what, rtype, records) in refused {
            let mut z = zone();
            z.add(txt("old")).expect("add");
            if what.contains("stays") {
                z.add(ResourceRecord::a(n.clone(), 60, NetAddr::of(HostId(2))))
                    .expect("add");
            }
            let (serial, before) = (z.serial(), z.all_records());
            assert!(z.replace(&n, rtype, records).is_err(), "{what}: accepted");
            assert_eq!(z.all_records(), before, "{what}: records moved");
            assert_eq!(z.serial(), serial, "{what}: serial moved");
            assert_eq!(z.deltas_since(serial), Some(vec![]), "{what}: delta logged");
        }
        // An accepted one bumps the serial as it always did: the removal,
        // each record, and the replace itself.
        let mut z = zone();
        z.add(txt("old")).expect("add");
        let serial = z.serial();
        z.replace(&n, RType::Txt, vec![txt("a"), txt("b")])
            .expect("replace");
        assert_eq!(z.serial(), serial + 4);
        // Replacing the only other data by a CNAME is no conflict.
        z.replace(&n, RType::Txt, vec![])
            .expect("empty replace removes");
        z.replace(
            &n,
            RType::Cname,
            vec![ResourceRecord::cname(
                n.clone(),
                60,
                name("t.cs.washington.edu"),
            )],
        )
        .expect("a lone CNAME");
    }

    #[test]
    fn transfer_payload_is_in_name_order() {
        let mut z = zone();
        // `a-b` sorts before `a.x` bytewise, after it label-wise.
        for owner in ["m", "a-b", "b.a", "z.a", "a"] {
            let owner = name(&format!("{owner}.cs.washington.edu"));
            z.add(ResourceRecord::txt(owner.clone(), 60, "1"))
                .expect("add");
            z.add(ResourceRecord::txt(owner, 60, "2")).expect("add");
        }
        let owners: Vec<String> = z.all_records().iter().map(|r| r.name.to_string()).collect();
        let mut sorted = z.all_records();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(z.all_records(), sorted, "owners in `Ord` order: {owners:?}");
        assert_eq!(owners[0], "a.cs.washington.edu");
    }

    #[test]
    fn add_outside_zone_rejected() {
        let mut z = zone();
        assert!(matches!(
            z.add(ResourceRecord::txt(name("a.mit.edu"), 60, "x")),
            Err(NsError::NotAuthoritative(_))
        ));
    }

    #[test]
    fn default_ttl_applied() {
        let mut z = zone();
        z.add_with_default_ttl(ResourceRecord::txt(name("a.cs.washington.edu"), 1, "x"))
            .expect("add");
        let found = z
            .lookup(&name("a.cs.washington.edu"), RType::Txt)
            .expect("lookup");
        assert_eq!(found[0].ttl, 3600);
        assert_eq!(z.default_ttl(), 3600);
    }

    #[test]
    fn delegation_found_below_cut_with_glue() {
        let mut z = Zone::new(name("washington.edu"), 3600);
        z.add(ResourceRecord {
            name: name("cs.washington.edu"),
            rtype: RType::Ns,
            ttl: 3600,
            rdata: RData::Domain(name("ns.cs.washington.edu")),
        })
        .expect("ns");
        z.add(ResourceRecord::a(
            name("ns.cs.washington.edu"),
            3600,
            NetAddr::of(HostId(9)),
        ))
        .expect("glue");
        // Below the cut: referral with NS + glue.
        let referral = z
            .find_delegation(&name("fiji.cs.washington.edu"))
            .expect("delegated");
        assert_eq!(referral.len(), 2);
        assert!(referral.iter().any(|r| r.rtype == RType::Ns));
        assert!(referral.iter().any(|r| r.rtype == RType::A));
        // At the cut itself: also a referral.
        assert!(z.find_delegation(&name("cs.washington.edu")).is_some());
        // Outside the cut: no referral.
        assert!(z.find_delegation(&name("ee.washington.edu")).is_none());
        // Never at or above the origin.
        assert!(z.find_delegation(&name("washington.edu")).is_none());
        // Removing the cut's NS set removes the delegation.
        assert_eq!(z.remove(&name("cs.washington.edu"), RType::Ns), 1);
        assert!(z.find_delegation(&name("fiji.cs.washington.edu")).is_none());
    }

    #[test]
    fn ns_at_origin_is_not_a_delegation() {
        // A zone's own NS records (apex) do not make it refer itself away.
        let mut z = Zone::new(name("cs.washington.edu"), 3600);
        z.add(ResourceRecord {
            name: name("cs.washington.edu"),
            rtype: RType::Ns,
            ttl: 3600,
            rdata: RData::Domain(name("ns.cs.washington.edu")),
        })
        .expect("apex ns");
        assert!(z.find_delegation(&name("fiji.cs.washington.edu")).is_none());
    }

    #[test]
    fn identical_bodies_are_shared_across_names() {
        let mut z = zone();
        for i in 0..100 {
            z.add(ResourceRecord::txt(
                name(&format!("host{i}.cs.washington.edu")),
                600,
                "suite=sun;port=1234",
            ))
            .expect("add");
        }
        assert_eq!(z.record_count(), 100);
        assert_eq!(z.distinct_bodies(), 1, "one shared body for 100 names");
        assert!(
            z.resident_bytes() < z.size_bytes(),
            "shared {} must undercut naive {}",
            z.resident_bytes(),
            z.size_bytes()
        );
    }

    #[test]
    fn removing_last_user_of_a_body_prunes_the_arena() {
        let mut z = zone();
        z.add(ResourceRecord::txt(name("a.cs.washington.edu"), 60, "x"))
            .expect("add");
        z.add(ResourceRecord::txt(name("b.cs.washington.edu"), 60, "x"))
            .expect("add");
        assert_eq!(z.distinct_bodies(), 1);
        z.remove(&name("a.cs.washington.edu"), RType::Txt);
        assert_eq!(z.distinct_bodies(), 1, "still referenced by b");
        z.remove(&name("b.cs.washington.edu"), RType::Txt);
        assert_eq!(z.distinct_bodies(), 0, "last reference pruned");
    }

    #[test]
    fn deltas_since_report_changed_names() {
        let mut z = zone();
        let s0 = z.serial();
        assert_eq!(z.deltas_since(s0).expect("live log"), Vec::new());
        z.add(ResourceRecord::txt(name("a.cs.washington.edu"), 60, "1"))
            .expect("add");
        let s1 = z.serial();
        z.add(ResourceRecord::txt(name("b.cs.washington.edu"), 60, "2"))
            .expect("add");
        z.remove(&name("a.cs.washington.edu"), RType::Txt);
        let since_start = z.deltas_since(s0).expect("live log");
        assert_eq!(
            since_start,
            vec![name("a.cs.washington.edu"), name("b.cs.washington.edu")],
            "changed names, deduplicated, in name order"
        );
        let since_s1 = z.deltas_since(s1).expect("live log");
        assert_eq!(
            since_s1,
            vec![name("a.cs.washington.edu"), name("b.cs.washington.edu")],
            "a changed again (removal) after s1"
        );
        assert_eq!(z.deltas_since(z.serial()).expect("live log"), Vec::new());
    }

    #[test]
    fn truncated_delta_log_forces_full_fallback() {
        let mut z = zone();
        let s0 = z.serial();
        for i in 0..(DELTA_LOG_CAP + 10) {
            z.add(ResourceRecord::txt(
                name(&format!("n{i}.cs.washington.edu")),
                60,
                format!("v{i}"),
            ))
            .expect("add");
        }
        assert!(
            z.deltas_since(s0).is_none(),
            "serial {s0} fell off the capped log"
        );
        assert!(
            z.deltas_since(z.serial() - 5).is_some(),
            "recent serials still served incrementally"
        );
    }

    #[test]
    fn delta_floor_boundary_is_exact() {
        let mut z = zone();
        for i in 0..(DELTA_LOG_CAP + 10) {
            z.add(ResourceRecord::txt(
                name(&format!("n{i}.cs.washington.edu")),
                60,
                format!("v{i}"),
            ))
            .expect("add");
        }
        // The log retains the newest DELTA_LOG_CAP serials; the floor is
        // the serial of the newest *dropped* entry, one below the oldest
        // retained. Incremental service must flip to full fallback at
        // exactly that serial, not one early or one late.
        let floor = z.serial() - DELTA_LOG_CAP as u32;
        let at_floor = z
            .deltas_since(floor)
            .expect("floor serial is still served incrementally");
        assert_eq!(at_floor.len(), DELTA_LOG_CAP, "every retained change");
        assert!(
            z.deltas_since(floor - 1).is_none(),
            "one serial past the log forces full fallback"
        );
    }

    #[test]
    fn records_at_returns_all_types_at_a_name() {
        let mut z = zone();
        let n = name("multi.cs.washington.edu");
        z.add(ResourceRecord::txt(n.clone(), 60, "t")).expect("add");
        z.add(ResourceRecord::a(n.clone(), 60, NetAddr::of(HostId(3))))
            .expect("add");
        assert_eq!(z.records_at(&n).expect("present").len(), 2);
        assert!(z.records_at(&name("ghost.cs.washington.edu")).is_none());
    }

    #[test]
    fn size_and_count_track_contents() {
        let mut z = zone();
        assert_eq!(z.record_count(), 0);
        assert_eq!(z.size_bytes(), 0);
        z.add(ResourceRecord::txt(
            name("a.cs.washington.edu"),
            60,
            "hello",
        ))
        .expect("add");
        z.add(ResourceRecord::a(
            name("b.cs.washington.edu"),
            60,
            NetAddr::of(HostId(1)),
        ))
        .expect("add");
        assert_eq!(z.record_count(), 2);
        assert!(z.size_bytes() > 0);
        assert_eq!(z.all_records().len(), 2);
    }
}
