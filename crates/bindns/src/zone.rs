//! Authoritative zones.
//!
//! Record storage is **content-shared**: the owner-independent remainder
//! of each record (type, TTL, rdata), an [`RrBody`], is held once per
//! zone in a **body table** (`bodies`, private) — by value, with the
//! count of records that use it, under a `u32` id — so a meta zone of
//! 10^6 names whose NSM bindings are near-identical stores each distinct
//! body once. The table is its own dedup set, found by the fixed hash; a
//! body whose last user goes frees its id for the next new one.
//! The owner names live in one **owner store** (`owners`, private): their
//! text relative to the origin (`n17`, not `n17.cell0.hns`; the apex is
//! the empty string) back to back in one append-only arena, an 8-byte
//! row per name — arena offset, and the record's body id when the name
//! holds one, as nearly every meta name does — and an
//! open-addressed index of `u32` row ids, hashed with a fixed hash and at
//! most three quarters full, so the question a server is asked, an exact
//! match, is one probe that allocates nothing: the origin is stripped
//! from the asker's text as a borrowed slice once [`Zone::contains`] has
//! checked the label boundary. A record leaving with its owner name gets
//! one rebuilt, in one allocation, from the arena and the origin
//! (`all_records`, `deltas_since`, a referral's cut); `lookup` and
//! `records_at` answer with a [`Records`] owned by the asker's own name,
//! the bodies cloned out of the table. The one reader that needs
//! the owners in name order, the transfer payload
//! ([`Zone::all_records`]), sorts them when the transfer is made.
//!
//! A whole zone arriving at once — a transfer's records, a generated
//! world's — is stood up by [`Zone::load`], handed each record as the
//! zone stores it: its owner's text below the origin and its [`RrBody`].
//! Its rows, owner index and delta log are sized once from the records'
//! size hint; each owner's labels are checked as [`DomainName::child`]
//! checks them and lowered, and the record goes through the insert
//! [`Zone::add`] makes once it has stripped its name; the zone comes back
//! fitted. A load logs nothing: its history starts at the serial it is
//! loaded at, and its log is room for the changes to come. It also files each opaque payload it stores by its allocation, so a
//! payload shared by `Arc` across its records is hashed once, not once a
//! record. A zone built record by record grows by doubling;
//! [`Zone::shrink_to_fit`], which [`crate::db::ZoneDb::add_zone`] calls
//! when a server takes the zone, trims it to what it holds, and leaves a
//! fitted one as it is.
//!
//! [`Zone::size_bytes`] keeps the naive per-record accounting, absolute
//! owner names included (it drives calibrated transfer costs);
//! [`Zone::resident_bytes`] counts what the zone holds, capacities
//! included, and is pinned against an allocator's count
//! (`crates/conformance/tests/zone_store.rs`).
//!
//! Zones also keep a bounded **delta log** of which owners changed at
//! which serial, the basis of IXFR-style incremental transfer
//! ([`crate::axfr::transfer_zone_incremental`]): a client that preloaded
//! at serial S asks for "changes since S" and receives only the record
//! sets of names touched after S, falling back to a full transfer when
//! the log has been truncated past S or starts after it. A zone answers
//! incrementally only from serials it has served, and a loaded zone has
//! served one, the serial it was loaded at. The log holds row ids, so a
//! name whose last record goes keeps its emptied row while the log names
//! it (the store pins the row to the newest entry naming it); once the
//! rows nothing needs are over half the store, it is rebuilt without
//! them and the log's ids are renumbered.

use std::collections::VecDeque;

use simnet::ttl::arc_bytes;

use crate::error::{NsError, NsResult};
use crate::name::{DomainName, MAX_NAME};
use crate::rr::{RData, RType, Records, ResourceRecord};

mod bodies;
mod owners;

use bodies::{Bodies, BodyId, Filed};
use owners::{Owners, Vacancy};

pub use crate::rr::RrBody;

/// Index slots that hold `len` entries at most three quarters full: how
/// the owner store and the body table size theirs.
fn fitted_slots(len: usize) -> usize {
    (4 * len).div_ceil(3)
}

/// Whether `len` entries leave an index of `slots` over three quarters
/// full.
fn overfull(len: usize, slots: usize) -> bool {
    4 * len > 3 * slots
}

/// Bytes std's hash table allocates for `capacity` entries of `T`: a
/// power of two of buckets, at most 7/8 full (3 of 4 when small), each
/// one entry and one control byte, plus a group of 16 control bytes.
fn table_bytes<T>(capacity: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..7 => capacity + 1,
        _ => capacity / 7 * 8,
    };
    (buckets * std::mem::size_of::<T>()).next_multiple_of(16) + buckets + 16
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
    /// Every owner name once, with its records' body ids.
    owners: Owners,
    /// Every distinct body once, with its users: the content dedup.
    bodies: Bodies,
    /// `(serial after the mutation, row of the owner touched)`, oldest
    /// first.
    delta_log: VecDeque<(u32, u32)>,
    /// Lowest client serial the log can still serve incrementally.
    delta_floor: u32,
    /// `NS` records held below the origin, i.e. at zone cuts. While it
    /// is zero — every meta zone — [`Zone::find_delegation`] answers
    /// without walking the ancestors of the name.
    cut_ns_records: usize,
}

impl Zone {
    /// Creates an empty zone.
    pub fn new(origin: DomainName, default_ttl: u32) -> Self {
        Zone {
            origin,
            serial: 1,
            default_ttl,
            owners: Owners::default(),
            bodies: Bodies::default(),
            delta_log: VecDeque::new(),
            delta_floor: 1,
            cut_ns_records: 0,
        }
    }

    /// The zone `records` make, each an owner's text below the origin
    /// (`n17` for `n17.cell0.hns`, empty for the apex) and a body: the
    /// zone [`Zone::add`] makes of the records at those names, added in
    /// their order to an empty zone, which is then fitted
    /// ([`Zone::shrink_to_fit`]) — the same records, bodies and serial,
    /// one past the count of records. The first owner
    /// [`DomainName::child`] would refuse fails the load with its error,
    /// and so does the first record `add` would refuse; upper case is
    /// lowered.
    ///
    /// What differs is the work and the history: no name is made; the
    /// rows, the owner index and the delta log are sized once, from the
    /// records' size hint, so a load of distinct owners never rebuilds
    /// its index, and the zone it returns is fitted already; an opaque
    /// payload shared by `Arc` with a record loaded before, under the
    /// same type and TTL, takes that record's body without its bytes
    /// being hashed; and nothing is logged, so [`Zone::deltas_since`]
    /// answers from the loaded serial on. No client holds an earlier
    /// serial of the zone, as none was served half loaded.
    pub fn load<O: AsRef<str>>(
        origin: DomainName,
        default_ttl: u32,
        records: impl IntoIterator<Item = (O, RrBody)>,
    ) -> NsResult<Zone> {
        let records = records.into_iter();
        let expected = records.size_hint().0;
        let mut zone = Zone {
            owners: Owners::with_capacity(expected),
            delta_log: VecDeque::with_capacity(expected.min(DELTA_LOG_CAP)),
            ..Zone::new(origin, default_ttl)
        };
        let (mut filed, mut lowered) = (Filed::default(), [0; MAX_NAME]);
        for (owner, body) in records {
            let owner = zone.origin.checked_below(owner.as_ref(), &mut lowered)?;
            zone.put(owner, body, Some(&mut filed))?;
            zone.serial += 1;
        }
        zone.delta_floor = zone.serial;
        zone.shrink_to_fit();
        Ok(zone)
    }

    /// The zone renumbered to `serial`, its history starting there: a
    /// secondary serves a transferred copy at the serial it was
    /// transferred at. Only a zone with nothing logged is renumbered.
    pub(crate) fn loaded_at(mut self, serial: u32) -> Zone {
        debug_assert!(self.delta_log.is_empty(), "a loaded zone logs nothing");
        (self.serial, self.delta_floor) = (serial, serial);
        self
    }

    /// Bumps the serial and logs row `id` as changed at the new serial.
    fn log_change(&mut self, id: u32) {
        self.serial += 1;
        if self.delta_log.len() == DELTA_LOG_CAP {
            if let Some((dropped_serial, dropped)) = self.delta_log.pop_front() {
                self.delta_floor = dropped_serial;
                self.owners.unlog(dropped, dropped_serial);
            }
        }
        self.delta_log.push_back((self.serial, id));
        self.owners.log(id, self.serial);
    }

    /// Ends a mutation: once the rows nothing needs are over half the
    /// owner store, it is rebuilt without them and the log renumbered,
    /// and the body table trimmed.
    fn settle(&mut self) {
        if self.owners.sparse() {
            let renumbered = self.owners.compact();
            for (_, id) in &mut self.delta_log {
                *id = renumbered[*id as usize];
            }
            self.bodies.shrink_to_fit();
        }
    }

    /// The origin.
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// Current serial number.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// The default TTL the zone was made with ([`Zone::new`],
    /// [`Zone::load`]); a secondary keeps it across refreshes.
    pub fn default_ttl(&self) -> u32 {
        self.default_ttl
    }

    /// True if `name` falls within this zone.
    pub fn contains(&self, name: &DomainName) -> bool {
        name.is_within(&self.origin)
    }

    /// `name`'s text below the origin, what the owner store keeps, or
    /// `None` if the name is not in this zone.
    fn relative<'a>(&self, name: &'a DomainName) -> Option<&'a str> {
        name.below(&self.origin)
    }

    /// The owner name the store keeps as `relative`.
    fn absolute(&self, relative: &str) -> DomainName {
        if relative.is_empty() {
            self.origin.clone()
        } else {
            self.origin.prefixed_unchecked(relative)
        }
    }

    /// The body ids of the records at `name`; none if it is not in this
    /// zone.
    fn set(&self, name: &DomainName) -> &[BodyId] {
        self.relative(name)
            .map_or(&[], |relative| self.owners.get(relative))
    }

    /// Trims the zone to what it holds: arena, rows and body table to
    /// their length, the owner and body indexes to a third more slots
    /// than entries (an index of that length already is kept as it is),
    /// and the delta log to its length or to room for a change a record,
    /// up to [`DELTA_LOG_CAP`], whichever is more, so the updates a
    /// loaded zone takes fill room it already holds. Growth after it
    /// doubles again. A server calls it when it takes the zone
    /// ([`crate::db::ZoneDb::add_zone`]); on a zone [`Zone::load`]
    /// returned it does nothing.
    pub fn shrink_to_fit(&mut self) {
        self.owners.shrink_to_fit();
        let room = self
            .owners
            .iter()
            .flat_map(|(_, set)| set)
            .take(DELTA_LOG_CAP);
        self.delta_log.shrink_to(room.count());
        self.bodies.shrink_to_fit();
    }

    /// Whether a record of `rtype` and `rdata` may join the owner kept as
    /// `relative`, which is `occupied` if it holds any record and
    /// `has_cname` if one of them is a `CNAME`: the rdata must fit, at
    /// most one `CNAME` may exist at a name, and a `CNAME` may not
    /// coexist with other data (the classic BIND rule).
    fn admit(
        &self,
        relative: &str,
        rtype: RType,
        rdata: &RData,
        occupied: bool,
        has_cname: bool,
    ) -> NsResult<()> {
        rdata.encoded_len()?;
        if !self.owners.has_room(relative) || !self.bodies.has_room() {
            return Err(NsError::BadRecord(format!(
                "zone {} holds all the names and bodies it can",
                self.origin
            )));
        }
        if rtype == RType::Cname && occupied {
            return Err(NsError::Conflict(format!(
                "CNAME cannot coexist at {}",
                self.absolute(relative)
            )));
        }
        if has_cname {
            return Err(NsError::Conflict(format!(
                "{} already holds a CNAME",
                self.absolute(relative)
            )));
        }
        Ok(())
    }

    /// Stores an admitted record, whose body is `body`, at the owner kept
    /// as `relative`, and returns the owner's row. `at` is where
    /// [`Owners::locate`] found the owner, the store untouched since.
    fn insert(&mut self, relative: &str, body: BodyId, at: Result<u32, Vacancy>) -> u32 {
        let id = self.owners.intern(relative, at);
        self.owners.push(id, body);
        if self.bodies.get(body).rtype == RType::Ns && !relative.is_empty() {
            self.cut_ns_records += 1;
        }
        id
    }

    /// Adds `body` at the owner kept as `relative` if [`Zone::admit`]
    /// admits it, and returns the owner's row: [`Zone::add`] once it has
    /// stripped its name, and [`Zone::load`] for each record, sharing
    /// through the load's `filed` payloads.
    fn put(&mut self, relative: &str, body: RrBody, filed: Option<&mut Filed>) -> NsResult<u32> {
        // The owner is located once, for the checks and the insert.
        let at = self.owners.locate(relative);
        let set = at.map_or(&[][..], |id| self.owners.records(id));
        let has_cname = self.bodies.of(set).any(|r| r.rtype == RType::Cname);
        self.admit(
            relative,
            body.rtype,
            &body.rdata,
            !set.is_empty(),
            has_cname,
        )?;
        let body = match filed {
            Some(filed) => filed.share(&mut self.bodies, body),
            None => self.bodies.share(body),
        };
        Ok(self.insert(relative, body, at))
    }

    /// Adds a record, bumping the serial, if `Zone::admit` admits it.
    pub fn add(&mut self, rr: ResourceRecord) -> NsResult<()> {
        let ResourceRecord {
            name,
            rtype,
            ttl,
            rdata,
        } = rr;
        let Some(relative) = self.relative(&name) else {
            return Err(NsError::NotAuthoritative(name.to_string()));
        };
        let id = self.put(relative, RrBody { rtype, ttl, rdata }, None)?;
        self.log_change(id);
        self.settle();
        Ok(())
    }

    /// Removes all records at `name` of type `rtype`; returns how many were
    /// removed. Bumps the serial if anything changed.
    pub fn remove(&mut self, name: &DomainName, rtype: RType) -> usize {
        let removed = self.take(name, rtype).map_or(0, |(id, removed)| {
            self.log_change(id);
            removed
        });
        self.settle();
        removed
    }

    /// [`Zone::remove`] without its log entry and [`Zone::settle`], so
    /// row ids stay what they were for the caller: the owner's row and
    /// how many records went, if any did.
    fn take(&mut self, name: &DomainName, rtype: RType) -> Option<(u32, usize)> {
        let id = self.relative(name).and_then(|r| self.owners.find(r))?;
        let bodies = &self.bodies;
        let dropped = self.owners.take(id, |b| bodies.get(b).rtype == rtype);
        let removed = dropped.len();
        if removed == 0 {
            return None;
        }
        if rtype == RType::Ns && *name != self.origin {
            self.cut_ns_records -= removed;
        }
        dropped.into_iter().for_each(|b| self.bodies.release(b));
        Some((id, removed))
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
        let (mut occupied, mut has_cname) = {
            let mut staying = self.bodies.of(self.set(name)).filter(|r| r.rtype != rtype);
            let occupied = staying.clone().next().is_some();
            (occupied, staying.any(|r| r.rtype == RType::Cname))
        };
        let relative = self.relative(name);
        for rr in &records {
            if rr.name != *name || rr.rtype != rtype {
                return Err(NsError::BadRecord("replace set mismatch".into()));
            }
            let Some(relative) = relative else {
                return Err(NsError::NotAuthoritative(name.to_string()));
            };
            self.admit(relative, rtype, &rr.rdata, occupied, has_cname)?;
            occupied = true;
            has_cname |= rtype == RType::Cname;
        }
        // The serial moves by one if anything went, one a record added
        // and one to close; the log names the owner once, at the close,
        // as no client holds a serial inside the replace.
        let mut changed = self.take(name, rtype).map(|(id, _)| id);
        self.serial += u32::from(changed.is_some());
        for ResourceRecord { ttl, rdata, .. } in records {
            // Not in this zone only when there are no records.
            let relative = relative.unwrap_or_default();
            let at = self.owners.locate(relative);
            let body = self.bodies.share(RrBody { rtype, ttl, rdata });
            changed = Some(self.insert(relative, body, at));
            self.serial += 1;
        }
        match changed {
            Some(id) => self.log_change(id),
            None => self.serial += 1,
        }
        self.settle();
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
        let mut changed: Vec<u32> = self
            .delta_log
            .iter()
            .filter(|(serial, _)| *serial > from_serial)
            .map(|(_, id)| *id)
            .collect();
        changed.sort_unstable();
        changed.dedup();
        let mut names: Vec<DomainName> = changed
            .into_iter()
            .map(|id| self.absolute(self.owners.name(id)))
            .collect();
        names.sort_unstable();
        Some(names)
    }

    /// Every record at `name` (all types), or `None` if nothing is
    /// stored there.
    pub fn records_at(&self, name: &DomainName) -> Option<Records> {
        let set = self.set(name);
        (!set.is_empty()).then(|| Records::of(name.clone(), self.bodies.of(set).cloned()))
    }

    /// Looks up records of `rtype` at `name`, following at most one level
    /// of `CNAME` indirection within the zone: the owner is the asker's
    /// own name, and an alias's answer is its `CNAME` followed by its
    /// target's records.
    pub fn lookup(&self, name: &DomainName, rtype: RType) -> NsResult<Records> {
        let set = self.owned_set(name)?;
        let found = Records::of(name.clone(), self.of_type(set, rtype).cloned());
        if !found.is_empty() {
            return Ok(found);
        }
        let no_data = || NsError::NoData(name.to_string());
        let alias = self.bodies.of(set).find(|r| r.rtype == RType::Cname);
        let cname = alias
            .filter(|_| rtype != RType::Cname)
            .ok_or_else(no_data)?;
        let RData::Domain(target) = &cname.rdata else {
            return Err(no_data());
        };
        let mut alias = Records::of(name.clone(), [cname.clone()]);
        // The target is looked up without chasing, so a chain or a loop
        // of aliases is one step.
        if let Ok(set) = self.owned_set(target) {
            for body in self.of_type(set, rtype) {
                alias.push(target.clone(), body.clone());
            }
        }
        Ok(alias)
    }

    /// The body ids at `name`, which must be in this zone and hold some.
    fn owned_set(&self, name: &DomainName) -> NsResult<&[BodyId]> {
        let Some(relative) = self.relative(name) else {
            return Err(NsError::NotAuthoritative(name.to_string()));
        };
        match self.owners.get(relative) {
            [] => Err(NsError::NameError(name.to_string())),
            set => Ok(set),
        }
    }

    /// The bodies of `set` of type `rtype`.
    fn of_type<'a>(&'a self, set: &'a [BodyId], rtype: RType) -> impl Iterator<Item = &'a RrBody> {
        self.bodies.of(set).filter(move |r| r.rtype == rtype)
    }

    /// Finds a delegation (zone cut) covering `name`, if any: the deepest
    /// ancestor-or-self of `name` that lies strictly below the origin and
    /// holds `NS` records. Returns the cut and its `NS` bodies, followed
    /// by any glue `A` records this zone holds for the named servers.
    pub fn find_delegation(&self, name: &DomainName) -> Option<Records> {
        if self.cut_ns_records == 0 {
            return None;
        }
        // The ancestors-or-self below the origin, deepest first: each is
        // the name's text below the origin from its start or from just
        // after a dot, and the same suffix of the whole text names it.
        let relative = self.relative(name).filter(|r| !r.is_empty())?;
        let mut starts =
            std::iter::once(0).chain(relative.match_indices('.').map(|(dot, _)| dot + 1));
        let (start, set) = starts.find_map(|start| {
            let set = self.owners.get(&relative[start..]);
            self.of_type(set, RType::Ns).next().map(|_| (start, set))
        })?;
        let cut = if start == 0 {
            name.clone()
        } else {
            DomainName::from_text_unchecked(&name.text()[start..])
        };
        let mut referral = Records::of(cut, self.of_type(set, RType::Ns).cloned());
        for ns in self.of_type(set, RType::Ns) {
            let RData::Domain(target) = &ns.rdata else {
                continue;
            };
            for glue in self.of_type(self.set(target), RType::A) {
                referral.push(target.clone(), glue.clone());
            }
        }
        Some(referral)
    }

    /// All records, in deterministic (name-sorted) order: the zone
    /// transfer payload. The owners are sorted here, at transfer time.
    pub fn all_records(&self) -> Vec<ResourceRecord> {
        let mut sets: Vec<(DomainName, &[BodyId])> = self
            .owners
            .iter()
            .map(|(name, set)| (self.absolute(name), set))
            .collect();
        sets.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        sets.into_iter()
            .flat_map(|(name, set)| {
                let records = self.bodies.of(set).cloned();
                records.map(move |body| ResourceRecord::new(name.clone(), body))
            })
            .collect()
    }

    /// Number of records in the zone.
    pub fn record_count(&self) -> usize {
        self.owners.iter().map(|(_, set)| set.len()).sum()
    }

    /// Total stored size in bytes, counted naively — every record pays
    /// for its owner name and its full body, as if nothing were shared.
    /// This is the wire-transfer accounting (it drives the calibrated
    /// zone-transfer cost) and the baseline [`Zone::resident_bytes`] is
    /// measured against.
    pub fn size_bytes(&self) -> usize {
        // An owner's whole text is the kept text, a dot and the origin's;
        // the apex's is the origin's. The root's wire length is 1 (`.`),
        // its text empty.
        let origin = self.origin.text().len();
        let whole = |relative: &str| match (relative.len(), origin) {
            (0, _) => origin,
            (len, 0) => len,
            (len, _) => len + 1 + origin,
        };
        self.owners
            .iter()
            .flat_map(|(name, set)| {
                let name_len = whole(name).max(1);
                self.bodies.of(set).map(move |b| name_len + b.body_bytes())
            })
            .sum()
    }

    /// Bytes the zone holds: the owner store (arena, rows and index at
    /// their capacity), the delta log at its, and the body table (entries,
    /// free list and index at their capacity, and each held body's
    /// rdata).
    pub fn resident_bytes(&self) -> usize {
        arc_bytes(self.origin.text().len())
            + self.owners.resident_bytes()
            + self.delta_log.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.bodies.resident_bytes()
    }

    /// The ids of the bodies of the records at `name`, in the order they
    /// were added: two records share a body exactly when they share an
    /// id. An id is good only until the zone next changes.
    pub fn body_ids(&self, name: &DomainName) -> Vec<u32> {
        self.set(name).iter().map(|id| id.get()).collect()
    }

    /// Number of distinct record bodies the zone holds, each once.
    pub fn distinct_bodies(&self) -> usize {
        self.bodies.len()
    }

    /// Entries of the zone's body table, free ones included: the most
    /// distinct bodies it has held at once since it was last trimmed.
    pub fn body_table_len(&self) -> usize {
        self.bodies.table_len()
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
        assert_eq!(found.whole().collect::<Vec<_>>(), vec![rr]);
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
        assert_eq!(found.owner(), &alias);
        assert_eq!(found.bodies()[0].rtype, RType::Cname);
        let (chased, body) = &found.others()[0];
        assert_eq!((chased, body.rtype), (&target, RType::A));
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
            .all(|(_, r)| matches!(&r.rdata, RData::Text(t) if t.starts_with("new"))));
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
            z.lookup(&n, RType::Txt)
                .expect("old set still there")
                .whole()
                .collect::<Vec<_>>(),
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
        assert!(referral.iter().any(|(_, r)| r.rtype == RType::Ns));
        assert!(referral.iter().any(|(_, r)| r.rtype == RType::A));
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
        // A binding-sized payload: a 20-byte one costs less than the
        // log and the index hold for 100 names.
        let payload = "suite=sun;port=1234;".repeat(6);
        for i in 0..100 {
            z.add(ResourceRecord::txt(
                name(&format!("host{i}.cs.washington.edu")),
                600,
                payload.as_str(),
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
    fn removing_last_user_of_a_body_prunes_the_dedup_set() {
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

    /// A replace logs its owner once, at its closing serial, while the
    /// serial still moves by one for what went, one a record and one to
    /// close: 600 one-record replaces in a loaded zone are 600 entries,
    /// inside the log's cap, so the loaded serial is still served
    /// incrementally. Logged once for what went and once a record, they
    /// were 1,200, past it.
    #[test]
    fn a_replace_logs_its_owner_once() {
        let body = |text: String| RrBody {
            rtype: RType::Txt,
            ttl: 60,
            rdata: RData::Text(text.into()),
        };
        let records = (0..1000).map(|i| (format!("n{i}"), body(format!("v{i}"))));
        let mut z = Zone::load(name("cs.washington.edu"), 60, records).expect("load");
        let loaded = z.serial();
        let n = |i: usize| name(&format!("n{i}.cs.washington.edu"));
        for i in 0..600 {
            let rr = ResourceRecord::txt(n(i), 60, format!("w{i}"));
            z.replace(&n(i), RType::Txt, vec![rr]).expect("replace");
        }
        assert_eq!(z.serial(), loaded + 600 * 3, "the serial arithmetic");
        let changed = z.deltas_since(loaded).expect("served incrementally");
        assert_eq!(changed.len(), 600);
        assert_eq!(z.delta_log.len(), 600, "one entry a replace");
        // A replace that takes and adds nothing moves the serial by one
        // and logs nothing.
        z.replace(&n(2000), RType::Txt, vec![])
            .expect("empty replace");
        assert_eq!((z.serial(), z.delta_log.len()), (loaded + 1801, 600));
    }

    /// The log names owners by row, so a removed name keeps its (empty)
    /// row while the log names it; the rows the log has let go of are
    /// dropped once they are over half the store, and the log is
    /// renumbered to match.
    #[test]
    fn a_removed_name_is_reported_while_logged_and_its_row_goes_after() {
        let mut z = zone();
        let n = |i: usize| name(&format!("n{i}.cs.washington.edu"));
        for i in 0..2000 {
            z.add(ResourceRecord::txt(n(i), 60, "x")).expect("add");
        }
        let mut midway = 0;
        for i in 0..2000 {
            assert_eq!(z.remove(&n(i), RType::Txt), 1);
            if i == 1499 {
                midway = z.serial();
            }
        }
        let full = z.resident_bytes();
        // Churn at one name until the removals of n0..n1000 have left
        // the log: their rows are then over half the store.
        let churn = name("churn.cs.washington.edu");
        for _ in 0..30 {
            z.add(ResourceRecord::txt(churn.clone(), 60, "c"))
                .expect("add");
            assert_eq!(z.remove(&churn, RType::Txt), 1);
        }
        assert!(
            z.resident_bytes() < full,
            "{} !< {full}",
            z.resident_bytes()
        );
        let mut expected: Vec<DomainName> = (1500..2000).map(n).collect();
        expected.push(churn);
        expected.sort();
        assert_eq!(z.deltas_since(midway), Some(expected));
        assert_eq!(z.records_at(&n(1700)), None);
        assert!(matches!(
            z.lookup(&n(1700), RType::Txt),
            Err(NsError::NameError(_))
        ));
        assert_eq!((z.record_count(), z.size_bytes()), (0, 0));
        assert!(z.all_records().is_empty());
    }

    /// A row holding no record is kept by the newest log entry naming
    /// it alone: a name emptied, refilled and emptied again stays while
    /// that entry is logged, its older ones gone. And the rows nothing
    /// needs first outnumber the rest at the mutation they always did.
    #[test]
    fn an_empty_row_goes_with_its_newest_log_entry_and_no_sooner() {
        let txt = |n: &DomainName| ResourceRecord::txt(n.clone(), 60, "x");
        let mut z = zone();
        let (gone, kept) = (
            name("gone.cs.washington.edu"),
            name("kept.cs.washington.edu"),
        );
        let churn = name("churn.cs.washington.edu");
        z.add(txt(&gone)).expect("add");
        assert_eq!(z.remove(&gone, RType::Txt), 1);
        z.add(txt(&kept)).expect("add");
        assert_eq!(z.remove(&kept, RType::Txt), 1);
        z.add(txt(&kept)).expect("add");
        assert_eq!(z.remove(&kept, RType::Txt), 1);
        // Churn until the log holds `kept`'s last removal and no older
        // entry: `gone` is then the one row of three nothing needs.
        let last = z.serial();
        while z.serial() < last + DELTA_LOG_CAP as u32 - 1 {
            z.add(txt(&churn)).expect("add");
            if z.serial() < last + DELTA_LOG_CAP as u32 - 1 {
                assert_eq!(z.remove(&churn, RType::Txt), 1);
            }
        }
        assert_eq!(z.deltas_since(last - 2), None, "older entries left");
        assert_eq!(z.deltas_since(last - 1), Some(vec![churn, kept]));

        // The churn of the test above: the store is first rebuilt at its
        // 25th mutation, when the removals of n0..n1000 have left the log.
        let mut z = zone();
        let n = |i: usize| name(&format!("n{i}.cs.washington.edu"));
        for i in 0..2000 {
            z.add(txt(&n(i))).expect("add");
        }
        for i in 0..2000 {
            assert_eq!(z.remove(&n(i), RType::Txt), 1);
        }
        let churn = name("churn.cs.washington.edu");
        let mut mutations = 0;
        while z.owners.len() >= 2000 && mutations < 60 {
            if mutations % 2 == 0 {
                z.add(txt(&churn)).expect("add");
            } else {
                assert_eq!(z.remove(&churn, RType::Txt), 1);
            }
            mutations += 1;
        }
        assert_eq!(mutations, 25);
    }

    /// Names that gain second records and lose them again leave every
    /// zone churned alike at one size: the several-record sets are
    /// hashed with the fixed hash, so the room a removal leaves in their
    /// table follows the operations alone.
    #[test]
    fn the_same_churn_leaves_every_zone_at_the_same_size() {
        let churned = |_| {
            let mut z = zone();
            let n = |i: u32| name(&format!("n{i}.cs.washington.edu"));
            for i in 0..64 {
                z.add(ResourceRecord::txt(n(i), 60, "x")).expect("add");
            }
            for round in 0..8 {
                for i in (round..64).step_by(3) {
                    let addr = ResourceRecord::a(n(i), 60, NetAddr::of(HostId(i)));
                    z.add(addr).expect("a second record");
                }
                for i in (round..64).step_by(2) {
                    z.remove(&n(i), RType::A);
                }
            }
            z.resident_bytes()
        };
        let sizes: Vec<usize> = (0..16).map(churned).collect();
        assert!(sizes.iter().all(|&s| s == sizes[0]), "{sizes:?}");
    }

    /// A `CNAME` is followed one step, so an alias of itself answers
    /// with the alias instead of recursing until the stack runs out.
    #[test]
    fn a_cname_loop_is_followed_once() {
        let mut z = zone();
        let (a, b) = (name("a.cs.washington.edu"), name("b.cs.washington.edu"));
        z.add(ResourceRecord::cname(a.clone(), 60, a.clone()))
            .expect("add");
        z.add(ResourceRecord::cname(b.clone(), 60, a.clone()))
            .expect("add");
        let looped = z.lookup(&a, RType::A).expect("the alias");
        let looped = looped.whole().collect::<Vec<_>>();
        assert_eq!(looped, [ResourceRecord::cname(a.clone(), 60, a.clone())]);
        let chained = z.lookup(&b, RType::A).expect("the first alias");
        let chained = chained.whole().collect::<Vec<_>>();
        assert_eq!(chained, [ResourceRecord::cname(b.clone(), 60, a.clone())]);
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
