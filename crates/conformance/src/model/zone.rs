//! The model of a `bindns` zone: an ordered map from owner name to the
//! owner's records (each record whole, owner included, as the store
//! before sharing kept them), a serial, and a log of the owner names
//! each change touched, capped at [`DELTA_LOG_CAP`]. No arena, no index,
//! no shared bodies; the checks a store makes incrementally are made
//! here on the set a change would leave.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bindns::error::{NsError, NsResult};
use bindns::rr::{RData, RType, ResourceRecord};
use bindns::zone::DELTA_LOG_CAP;
use bindns::DomainName;

/// What a zone holds and answers, stated as plainly as possible.
#[derive(Debug, Clone)]
pub struct ZoneModel {
    origin: DomainName,
    serial: u32,
    records: BTreeMap<DomainName, Vec<ResourceRecord>>,
    /// `(serial after the change, owner it touched)`, oldest first.
    log: VecDeque<(u32, DomainName)>,
    /// Serial of the newest entry the log has dropped.
    floor: u32,
}

impl ZoneModel {
    /// An empty zone at `origin`, serial 1.
    pub fn new(origin: DomainName) -> Self {
        ZoneModel {
            origin,
            serial: 1,
            records: BTreeMap::new(),
            log: VecDeque::new(),
            floor: 1,
        }
    }

    /// The serial: one more for every record added or removed, and one
    /// for every replace.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    fn set(&self, name: &DomainName) -> &[ResourceRecord] {
        self.records.get(name).map_or(&[], Vec::as_slice)
    }

    /// A set a name may hold: every record in the zone with rdata that
    /// fits, and a `CNAME` only alone.
    fn valid(&self, set: &[ResourceRecord]) -> bool {
        let fits =
            |rr: &ResourceRecord| rr.name.is_within(&self.origin) && rr.rdata.encoded_len().is_ok();
        set.iter().all(fits) && (set.len() < 2 || set.iter().all(|rr| rr.rtype != RType::Cname))
    }

    /// A change at `name`: the serial moves and the log says so.
    fn touch(&mut self, name: &DomainName) {
        self.serial += 1;
        if self.log.len() == DELTA_LOG_CAP {
            if let Some((serial, _)) = self.log.pop_front() {
                self.floor = serial;
            }
        }
        self.log.push_back((self.serial, name.clone()));
    }

    /// Adds `rr` if the set at its name, with it, is one a name may
    /// hold; says whether it did.
    pub fn add(&mut self, rr: ResourceRecord) -> bool {
        let mut set = self.set(&rr.name).to_vec();
        set.push(rr.clone());
        if !self.valid(&set) {
            return false;
        }
        self.records.insert(rr.name.clone(), set);
        self.touch(&rr.name);
        true
    }

    /// Removes the records of `rtype` at `name`; says how many went.
    pub fn remove(&mut self, name: &DomainName, rtype: RType) -> usize {
        let set = self.set(name);
        let kept: Vec<ResourceRecord> =
            set.iter().filter(|rr| rr.rtype != rtype).cloned().collect();
        let removed = set.len() - kept.len();
        if removed > 0 {
            if kept.is_empty() {
                self.records.remove(name);
            } else {
                self.records.insert(name.clone(), kept);
            }
            self.touch(name);
        }
        removed
    }

    /// Replaces the records of `rtype` at `name` by `records` — each of
    /// that name and type — if the set that leaves at the name is one a
    /// name may hold; says whether it did. An accepted replace moves the
    /// serial by one if anything went, one for each addition and one to
    /// close, and is logged once, at the close, if it changed the name.
    pub fn replace(
        &mut self,
        name: &DomainName,
        rtype: RType,
        records: Vec<ResourceRecord>,
    ) -> bool {
        if records
            .iter()
            .any(|rr| rr.name != *name || rr.rtype != rtype)
        {
            return false;
        }
        let staying = self.set(name).iter().filter(|rr| rr.rtype != rtype);
        let after: Vec<ResourceRecord> = staying.chain(&records).cloned().collect();
        if !self.valid(&after) {
            return false;
        }
        let taken = self.set(name).len() + records.len() - after.len();
        let changed = taken + records.len() > 0;
        self.serial += u32::from(taken > 0) + records.len() as u32;
        if after.is_empty() {
            self.records.remove(name);
        } else {
            self.records.insert(name.clone(), after);
        }
        match changed {
            true => self.touch(name),
            false => self.serial += 1,
        }
        true
    }

    /// The records of `rtype` at `name`; else, at a name holding a
    /// `CNAME`, the alias and the records of `rtype` at its target; else
    /// which of "not ours", "no such name" or "no such data" it is.
    pub fn lookup(&self, name: &DomainName, rtype: RType) -> NsResult<Vec<ResourceRecord>> {
        if !name.is_within(&self.origin) {
            return Err(NsError::NotAuthoritative(name.to_string()));
        }
        let set = self.set(name);
        if set.is_empty() {
            return Err(NsError::NameError(name.to_string()));
        }
        let of_type = |set: &[ResourceRecord]| -> Vec<ResourceRecord> {
            set.iter().filter(|rr| rr.rtype == rtype).cloned().collect()
        };
        let matched = of_type(set);
        if !matched.is_empty() {
            return Ok(matched);
        }
        let alias = set.iter().find(|rr| rr.rtype == RType::Cname);
        match alias.map(|rr| (rr, &rr.rdata)) {
            Some((alias, RData::Domain(target))) if rtype != RType::Cname => Ok([alias.clone()]
                .into_iter()
                .chain(of_type(self.set(target)))
                .collect()),
            _ => Err(NsError::NoData(name.to_string())),
        }
    }

    /// Every record at `name`, if it holds any.
    pub fn records_at(&self, name: &DomainName) -> Option<Vec<ResourceRecord>> {
        self.records.get(name).cloned()
    }

    /// Every record, owners in name order, each owner's in the order
    /// they were added.
    pub fn all_records(&self) -> Vec<ResourceRecord> {
        self.records.values().flatten().cloned().collect()
    }

    /// The owners changed after `from_serial`, in name order, or `None`
    /// if the log has dropped a change after it.
    pub fn deltas_since(&self, from_serial: u32) -> Option<Vec<DomainName>> {
        if from_serial < self.floor {
            return None;
        }
        let changed: BTreeSet<&DomainName> = self
            .log
            .iter()
            .filter(|(serial, _)| *serial > from_serial)
            .map(|(_, name)| name)
            .collect();
        Some(changed.into_iter().cloned().collect())
    }

    /// How many records the zone holds.
    pub fn record_count(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// Every record's size, owner name included.
    pub fn size_bytes(&self) -> usize {
        self.records
            .values()
            .flatten()
            .map(ResourceRecord::size_bytes)
            .sum()
    }

    /// The `NS` records of the deepest ancestor-or-self of `name` below
    /// the origin that holds any, then the `A` records at each server
    /// they name.
    pub fn find_delegation(&self, name: &DomainName) -> Option<Vec<ResourceRecord>> {
        let mut candidate = Some(name.clone());
        while let Some(cut) = candidate.filter(|c| c.depth() > self.origin.depth()) {
            let ns: Vec<ResourceRecord> = self
                .set(&cut)
                .iter()
                .filter(|rr| rr.rtype == RType::Ns)
                .cloned()
                .collect();
            if !ns.is_empty() {
                let glue: Vec<ResourceRecord> = ns
                    .iter()
                    .filter_map(|rr| match &rr.rdata {
                        RData::Domain(server) => Some(server),
                        _ => None,
                    })
                    .flat_map(|server| self.set(server).iter().filter(|rr| rr.rtype == RType::A))
                    .cloned()
                    .collect();
                return Some(ns.into_iter().chain(glue).collect());
            }
            candidate = cut.parent();
        }
        None
    }
}
