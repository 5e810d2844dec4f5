//! The owner store under a [`super::Zone`]: every owner name once, as
//! text relative to the zone's origin (`n17` for `n17.cell0.hns`, the
//! apex empty) in one append-only arena, an 8-byte row per name holding
//! where its text starts and its lone record inline as a body id (the
//! zone's body table holds the body), and an open-addressed index of
//! `u32` row ids at most three quarters full — [`simnet::index::Index`],
//! the one the body table and the TTL maps use too. Rows and arena grow
//! and are rebuilt in the same order, so a name ends where the next
//! row's starts. The index's tags keep most wrong candidates from
//! costing a row or an arena load; a candidate whose tag matches is
//! compared as bytes.
//!
//! A row whose last record goes stays, empty, while the zone's delta log
//! names it, so an incremental transfer can still report the name: the
//! store pins it to the serial of the newest entry naming it, and lets
//! it go when that entry leaves the log. Once the rows nothing needs —
//! no record, no pin — are over half the store, [`Owners::compact`]
//! drops them and rebuilds arena and index at the size of what is left.
//! [`Owners::shrink_to_fit`] does the same without dropping anything, and
//! [`Owners::with_capacity`] sizes a store for a known count of names
//! once; growth past any of them doubles.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use simnet::index::{hash, FixedState, Index};

use super::bodies::BodyId;
use super::{fitted_slots, overfull, table_bytes};

/// The body id a row holds when its records are in [`Owners::several`];
/// the body table never issues it.
pub(super) const SEVERAL: BodyId = BodyId::MAX;

/// One owner name: where its text starts in the arena, and its records.
/// Most names hold one record, kept here; a name holding several keeps
/// them in [`Owners::several`] instead.
#[derive(Debug, Clone)]
struct Row {
    /// Where the name's text starts in the arena; it ends where the next
    /// row's starts, the last row's at the arena's end.
    offset: u32,
    /// The record's body when the name holds exactly one, [`SEVERAL`]
    /// when it holds more.
    records: Option<BodyId>,
}

const _: () = assert!(std::mem::size_of::<Row>() == 8);
const _: () = assert!(std::mem::size_of::<crate::rr::RData>() == 24);
const _: () = assert!(std::mem::size_of::<super::RrBody>() == 32);

/// Bytes a B-tree of `len` pins holds: a leaf of eleven and its header
/// for every five, as far as sequential inserts fill one.
fn pin_bytes(len: usize) -> usize {
    len.div_ceil(5) * (11 * std::mem::size_of::<(u32, u32)>() + 16)
}

/// Every owner name of a zone, with its records.
#[derive(Debug, Clone, Default)]
pub(super) struct Owners {
    /// The names' canonical text below the origin, back to back.
    text: String,
    /// One per name, in the order the names arrived.
    rows: Vec<Row>,
    /// Row ids by the fixed hash of their name
    /// ([`simnet::index`]); at least a third longer than `rows`, so at
    /// most three quarters full.
    index: Index,
    /// The record bodies of each row holding more than one, under the
    /// fixed hash, so the table's capacity after removals, which
    /// [`Owners::resident_bytes`] counts, follows the operations alone.
    several: HashMap<u32, Vec<BodyId>, FixedState>,
    /// Each row holding no record that the delta log names, with the
    /// serial of the newest entry naming it.
    pins: BTreeMap<u32, u32>,
    /// Rows that are [`Owners::droppable`].
    droppable: usize,
}

/// Where a name with no row would get one: the free index slot that
/// ends its chain, and its hash.
#[derive(Debug, Clone, Copy)]
pub(super) struct Vacancy {
    slot: usize,
    hash: u64,
}

impl Owners {
    /// An empty store whose rows and index hold `names` names without
    /// growing.
    pub(super) fn with_capacity(names: usize) -> Owners {
        let mut owners = Owners {
            rows: Vec::with_capacity(names),
            ..Owners::default()
        };
        owners.rehash(fitted_slots(names));
        owners
    }

    /// Where the text of row `id` lies in the arena.
    fn span(&self, id: u32) -> Range<usize> {
        let id = id as usize;
        let end = self
            .rows
            .get(id + 1)
            .map_or(self.text.len(), |next| next.offset as usize);
        self.rows[id].offset as usize..end
    }

    /// Neither a record nor a log entry needs row `id`.
    fn droppable(&self, id: u32) -> bool {
        self.rows[id as usize].records.is_none() && !self.pins.contains_key(&id)
    }

    /// The row of `name`, whether it holds records or not.
    pub(super) fn find(&self, name: &str) -> Option<u32> {
        self.locate(name).ok()
    }

    /// The row of `name`, or where its row would go. A candidate is
    /// compared as bytes, so no `&str` is made of it.
    pub(super) fn locate(&self, name: &str) -> Result<u32, Vacancy> {
        let (text, name) = (self.text.as_bytes(), name.as_bytes());
        let hash = hash(name);
        let found = self.index.find(hash, |id| text[self.span(id)] == *name);
        found
            .map(|(_, id)| id)
            .map_err(|slot| Vacancy { slot, hash })
    }

    /// The text of row `id`.
    pub(super) fn name(&self, id: u32) -> &str {
        &self.text[self.span(id)]
    }

    /// The record bodies of row `id`, in the order they were added.
    pub(super) fn records(&self, id: u32) -> &[BodyId] {
        match &self.rows[id as usize].records {
            Some(SEVERAL) => self.several.get(&id).map_or(&[], Vec::as_slice),
            lone => lone.as_slice(),
        }
    }

    /// The records at `name`; none if the store has no such row.
    pub(super) fn get(&self, name: &str) -> &[BodyId] {
        self.find(name).map_or(&[], |id| self.records(id))
    }

    /// Every name holding records, with them, in no particular order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (&str, &[BodyId])> {
        (0..self.rows.len() as u32)
            .map(|id| (self.name(id), self.records(id)))
            .filter(|(_, set)| !set.is_empty())
    }

    /// Whether row ids and arena offsets still fit a `u32` with `name`
    /// added.
    pub(super) fn has_room(&self, name: &str) -> bool {
        self.text.len() + name.len() <= u32::MAX as usize && self.rows.len() < u32::MAX as usize
    }

    /// The row of `name`, appended (with no record) if there is none:
    /// `at` is what [`Owners::locate`] answered for `name`, the store
    /// untouched since. The zone has checked [`Owners::has_room`].
    pub(super) fn intern(&mut self, name: &str, at: Result<u32, Vacancy>) -> u32 {
        let Vacancy { slot, hash } = match at {
            Ok(id) => return id,
            Err(vacancy) => vacancy,
        };
        let id = self.rows.len() as u32;
        self.rows.push(Row {
            offset: self.text.len() as u32,
            records: None,
        });
        self.text.push_str(name);
        if overfull(self.rows.len(), self.index.slots()) {
            // Room for as many rows again before the next rebuild.
            self.rehash(fitted_slots(2 * self.rows.len()));
        } else {
            self.index.set(slot, id, hash);
        }
        self.droppable += 1;
        id
    }

    /// Rebuilds the index at `slots` slots, every row in it.
    fn rehash(&mut self, slots: usize) {
        let mut index = std::mem::take(&mut self.index);
        let ids = 0..self.rows.len() as u32;
        index.rebuild(slots, ids.map(|id| hash(self.name(id).as_bytes())));
        self.index = index;
    }

    /// Trims arena, rows and the several-record sets to their length, and
    /// rebuilds the index at a third more slots than rows (rounded up)
    /// unless it has that length already. Between rebuilds the index only
    /// gains rows, each new one last, so at that length it is what the
    /// rebuild would make.
    pub(super) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.rows.shrink_to_fit();
        self.several.values_mut().for_each(Vec::shrink_to_fit);
        self.several.shrink_to_fit();
        let slots = fitted_slots(self.rows.len());
        if self.index.slots() != slots {
            self.rehash(slots);
        }
    }

    /// Runs `f` on the store, keeping the count of droppable rows for
    /// row `id`, the one it changes.
    fn update<R>(&mut self, id: u32, f: impl FnOnce(&mut Owners) -> R) -> R {
        let was = self.droppable(id);
        let result = f(self);
        match (was, self.droppable(id)) {
            (false, true) => self.droppable += 1,
            (true, false) => self.droppable -= 1,
            _ => {}
        }
        result
    }

    /// Appends the record whose body is `body` to row `id`, which then
    /// needs no pin.
    pub(super) fn push(&mut self, id: u32, body: BodyId) {
        self.update(id, |owners| {
            let row = &mut owners.rows[id as usize];
            match row.records {
                Some(SEVERAL) => owners.several.entry(id).or_default().push(body),
                Some(first) => {
                    owners.several.insert(id, vec![first, body]);
                    row.records = Some(SEVERAL);
                }
                None => {
                    row.records = Some(body);
                    owners.pins.remove(&id);
                }
            }
        });
    }

    /// Takes the records of row `id` whose bodies `doomed` picks, keeping
    /// the order of the rest.
    pub(super) fn take(&mut self, id: u32, doomed: impl Fn(BodyId) -> bool) -> Vec<BodyId> {
        self.update(id, |owners| {
            let row = &mut owners.rows[id as usize];
            if row.records != Some(SEVERAL) {
                return row
                    .records
                    .take_if(|body| doomed(*body))
                    .into_iter()
                    .collect();
            }
            let set = owners.several.remove(&id).unwrap_or_default();
            let (gone, mut kept): (Vec<_>, Vec<_>) = set.into_iter().partition(|&b| doomed(b));
            if kept.len() > 1 {
                owners.several.insert(id, kept);
            } else {
                row.records = kept.pop();
            }
            gone
        })
    }

    /// The delta-log entry at `serial` names row `id`: a row holding no
    /// record is pinned to it.
    pub(super) fn log(&mut self, id: u32, serial: u32) {
        if self.rows[id as usize].records.is_none() {
            self.update(id, |owners| owners.pins.insert(id, serial));
        }
    }

    /// The delta-log entry at `serial` naming row `id` was dropped: if it
    /// was the newest naming an empty row, the row is needed no more.
    pub(super) fn unlog(&mut self, id: u32, serial: u32) {
        if self.pins.get(&id) == Some(&serial) {
            self.update(id, |owners| owners.pins.remove(&id));
        }
    }

    /// Whether the rows nothing needs are over half the store.
    pub(super) fn sparse(&self) -> bool {
        2 * self.droppable > self.rows.len()
    }

    /// Drops the rows nothing needs and rebuilds arena, rows and index
    /// at the size of what is left. Returns each old row's new id
    /// (`u32::MAX` for a dropped one).
    pub(super) fn compact(&mut self) -> Vec<u32> {
        let ids = 0..self.rows.len() as u32;
        let text_len = ids
            .clone()
            .filter(|&id| !self.droppable(id))
            .map(|id| self.span(id).len())
            .sum();
        let mut text = String::with_capacity(text_len);
        let mut rows = Vec::with_capacity(self.rows.len() - self.droppable);
        let mut several =
            HashMap::with_capacity_and_hasher(self.several.len(), FixedState::default());
        let mut pins = BTreeMap::new();
        let mut renumbered = vec![u32::MAX; self.rows.len()];
        for old in ids {
            if self.droppable(old) {
                continue;
            }
            let new = rows.len() as u32;
            if let Some(set) = self.several.remove(&old) {
                several.insert(new, set);
            }
            if let Some(serial) = self.pins.remove(&old) {
                pins.insert(new, serial);
            }
            let offset = text.len() as u32;
            text.push_str(self.name(old));
            rows.push(Row {
                offset,
                ..self.rows[old as usize]
            });
            renumbered[old as usize] = new;
        }
        (self.text, self.rows) = (text, rows);
        (self.several, self.pins) = (several, pins);
        self.droppable = 0;
        self.rehash(fitted_slots(self.rows.len()));
        renumbered
    }

    /// Rows held, needed or not.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Bytes the store holds: arena, rows and index at their capacity,
    /// the several-record sets and the pins.
    pub(super) fn resident_bytes(&self) -> usize {
        let sets: usize = self
            .several
            .values()
            .map(|set| set.capacity() * std::mem::size_of::<BodyId>())
            .sum();
        self.text.capacity()
            + self.rows.capacity() * std::mem::size_of::<Row>()
            + self.index.resident_bytes()
            + table_bytes::<(u32, Vec<BodyId>)>(self.several.capacity())
            + pin_bytes(self.pins.len())
            + sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rebuilt store finds every name it kept, at its new id.
    #[test]
    fn compaction_keeps_what_is_needed_and_finds_it_again() {
        let mut owners = Owners::default();
        let names: Vec<String> = (0..100).map(|i| format!("n{i}.z")).collect();
        let ids: Vec<u32> = names
            .iter()
            .map(|n| owners.intern(n, owners.locate(n)))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            if i % 10 == 0 {
                owners.log(id, 1);
            }
        }
        // Rows without a record or a log entry are all but every tenth.
        assert!(owners.sparse());
        let renumbered = owners.compact();
        assert!(!owners.sparse());
        for (i, name) in names.iter().enumerate() {
            let new = renumbered[ids[i] as usize];
            if i % 10 == 0 {
                assert_eq!(owners.find(name), Some(new), "{name}");
                assert_eq!(owners.name(new), name);
            } else {
                assert_eq!((new, owners.find(name)), (u32::MAX, None), "{name}");
            }
        }
    }

    #[test]
    fn an_empty_store_finds_nothing_and_holds_nothing() {
        let mut owners = Owners::default();
        assert_eq!(owners.find(""), None);
        assert_eq!(owners.resident_bytes(), 0);
        let id = owners.intern("", owners.locate(""));
        assert_eq!(owners.find(""), Some(id), "the apex is a name too");
        owners.compact();
        assert_eq!((owners.find(""), owners.resident_bytes()), (None, 0));
        owners.shrink_to_fit();
        assert_eq!((owners.find(""), owners.resident_bytes()), (None, 0));
    }

    /// A store sized for its names never rebuilds its index while they
    /// arrive, and is fitted when the last has: its index is word for
    /// word the one a rebuild makes, which trimming therefore skips.
    #[test]
    fn a_store_sized_for_its_names_is_the_fitted_one() {
        let names: Vec<String> = (0..1000).map(|i| format!("n{i}")).collect();
        let mut sized = Owners::with_capacity(names.len());
        let mut grown = Owners::default();
        for name in &names {
            sized.intern(name, sized.locate(name));
            grown.intern(name, grown.locate(name));
        }
        assert_eq!(sized.index.slots(), fitted_slots(names.len()));
        let before = format!("{:?}", sized.index);
        sized.shrink_to_fit();
        grown.shrink_to_fit();
        assert_eq!(format!("{:?}", sized.index), before, "rebuilt");
        assert_eq!(format!("{:?}", grown.index), before, "not the rebuild");
        assert_eq!(sized.resident_bytes(), grown.resident_bytes());
    }

    /// A fitted index is a third longer than the rows, whatever that is,
    /// and every name is found in it, and in the index it grows into.
    #[test]
    fn a_fitted_store_finds_every_name_and_grows_again() {
        let mut owners = Owners::default();
        let names: Vec<String> = (0..1000).map(|i| format!("n{i}")).collect();
        for name in &names[..300] {
            owners.intern(name, owners.locate(name));
        }
        owners.shrink_to_fit();
        assert_eq!(owners.index.slots(), 400);
        assert_eq!(owners.text.capacity(), owners.text.len());
        assert_eq!(owners.rows.capacity(), owners.rows.len());
        for name in &names {
            owners.intern(name, owners.locate(name));
        }
        assert!(4 * owners.rows.len() <= 3 * owners.index.slots());
        for (id, name) in (0u32..).zip(&names) {
            assert_eq!(owners.find(name), Some(id), "{name}");
        }
        assert_eq!(owners.find("n1000"), None);
    }
}
