//! The owner store under a [`super::Zone`]: every owner name once, as
//! text relative to the zone's origin (`n17` for `n17.cell0.hns`, the
//! apex empty) in one append-only arena, a 12-byte row per name holding
//! its lone record inline as a body id (the zone's body table holds the
//! body), and an open-addressed index of `u32` row ids at most three
//! quarters full — [`simnet::index::Index`], the one the body table and
//! the TTL maps use too. The index's tags keep most wrong candidates from
//! costing a row or an arena load; a candidate whose tag matches is
//! compared as bytes.
//!
//! A row whose last record goes stays, empty, while the zone's delta log
//! names it, so an incremental transfer can still report the name. Once
//! the rows nothing needs — no record, no log entry — are over half the
//! store, [`Owners::compact`] drops them and rebuilds arena and index at
//! the size of what is left. [`Owners::shrink_to_fit`] does the same
//! without dropping anything, and [`Owners::with_capacity`] sizes a store
//! for a known count of names once; growth past any of them doubles.

use std::collections::HashMap;
use std::ops::Range;

use simnet::index::{hash, Index};

use super::bodies::BodyId;
use super::{fitted_slots, overfull, table_bytes, DELTA_LOG_CAP};

/// One owner name: where its text lies in the arena, and its records.
/// Most names hold one record, kept here; a name holding several keeps
/// them in [`Owners::several`] instead.
#[derive(Debug, Clone)]
struct Row {
    /// The record's body, when the name holds exactly one.
    lone: Option<BodyId>,
    /// Where the name's text starts in the arena.
    offset: u32,
    /// Its length: a name is at most 255 bytes.
    len: u8,
    /// Whether the records are in [`Owners::several`].
    several: bool,
    /// Delta-log entries naming this row.
    logged: u16,
}

const _: () = assert!(std::mem::size_of::<Row>() == 12);
const _: () = assert!(DELTA_LOG_CAP <= u16::MAX as usize);

impl Row {
    /// Where the name's text lies in the arena.
    fn span(&self) -> Range<usize> {
        let start = self.offset as usize;
        start..start + usize::from(self.len)
    }

    /// Neither a record nor a log entry needs this row.
    fn droppable(&self) -> bool {
        self.lone.is_none() && !self.several && self.logged == 0
    }
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
    /// The record bodies of each row holding more than one.
    several: HashMap<u32, Vec<BodyId>>,
    /// Rows that are [`Row::droppable`].
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

    /// The row of `name`, whether it holds records or not.
    pub(super) fn find(&self, name: &str) -> Option<u32> {
        self.locate(name).ok()
    }

    /// The row of `name`, or where its row would go. A candidate is
    /// compared as bytes, so no `&str` is made of it.
    pub(super) fn locate(&self, name: &str) -> Result<u32, Vacancy> {
        let (text, name) = (self.text.as_bytes(), name.as_bytes());
        let hash = hash(name);
        let found = self
            .index
            .find(hash, |id| text[self.rows[id as usize].span()] == *name);
        found
            .map(|(_, id)| id)
            .map_err(|slot| Vacancy { slot, hash })
    }

    /// The text of row `id`.
    pub(super) fn name(&self, id: u32) -> &str {
        &self.text[self.rows[id as usize].span()]
    }

    /// The record bodies of row `id`, in the order they were added.
    pub(super) fn records(&self, id: u32) -> &[BodyId] {
        let row = &self.rows[id as usize];
        if row.several {
            self.several.get(&id).map_or(&[], Vec::as_slice)
        } else {
            row.lone.as_slice()
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
            lone: None,
            offset: self.text.len() as u32,
            len: name.len() as u8,
            several: false,
            logged: 0,
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
        let text = self.text.as_bytes();
        let hashes = self.rows.iter().map(|row| hash(&text[row.span()]));
        self.index.rebuild(slots, hashes);
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

    /// Runs `f` on row `id` (and the several-record sets), keeping the
    /// count of droppable rows.
    fn update<R>(
        &mut self,
        id: u32,
        f: impl FnOnce(&mut Row, &mut HashMap<u32, Vec<BodyId>>) -> R,
    ) -> R {
        let row = &mut self.rows[id as usize];
        let was = row.droppable();
        let result = f(row, &mut self.several);
        match (was, row.droppable()) {
            (false, true) => self.droppable += 1,
            (true, false) => self.droppable -= 1,
            _ => {}
        }
        result
    }

    /// Appends the record whose body is `body` to row `id`.
    pub(super) fn push(&mut self, id: u32, body: BodyId) {
        self.update(id, |row, several| {
            if row.several {
                several.entry(id).or_default().push(body);
            } else if let Some(first) = row.lone.take() {
                several.insert(id, vec![first, body]);
                row.several = true;
            } else {
                row.lone = Some(body);
            }
        });
    }

    /// Takes the records of row `id` whose bodies `doomed` picks, keeping
    /// the order of the rest.
    pub(super) fn take(&mut self, id: u32, doomed: impl Fn(BodyId) -> bool) -> Vec<BodyId> {
        self.update(id, |row, several| {
            if !row.several {
                return match row.lone.take_if(|body| doomed(*body)) {
                    Some(body) => vec![body],
                    None => Vec::new(),
                };
            }
            let set = several.remove(&id).unwrap_or_default();
            let (gone, mut kept): (Vec<_>, Vec<_>) = set.into_iter().partition(|&b| doomed(b));
            if kept.len() > 1 {
                several.insert(id, kept);
            } else {
                row.several = false;
                row.lone = kept.pop();
            }
            gone
        })
    }

    /// A delta-log entry now names row `id`.
    pub(super) fn log(&mut self, id: u32) {
        self.update(id, |row, _| row.logged += 1);
    }

    /// A delta-log entry naming row `id` was dropped.
    pub(super) fn unlog(&mut self, id: u32) {
        self.update(id, |row, _| row.logged -= 1);
    }

    /// Whether the rows nothing needs are over half the store.
    pub(super) fn sparse(&self) -> bool {
        2 * self.droppable > self.rows.len()
    }

    /// Drops the rows nothing needs and rebuilds arena, rows and index
    /// at the size of what is left. Returns each old row's new id
    /// (`u32::MAX` for a dropped one).
    pub(super) fn compact(&mut self) -> Vec<u32> {
        let rows = std::mem::take(&mut self.rows);
        let text_len = rows
            .iter()
            .filter(|row| !row.droppable())
            .map(|row| usize::from(row.len))
            .sum();
        let mut text = String::with_capacity(text_len);
        let mut kept = Vec::with_capacity(rows.len() - self.droppable);
        let mut several = HashMap::with_capacity(self.several.len());
        let mut renumbered = Vec::with_capacity(rows.len());
        for (old, row) in (0u32..).zip(rows) {
            if row.droppable() {
                renumbered.push(u32::MAX);
                continue;
            }
            let new = kept.len() as u32;
            if let Some(set) = self.several.remove(&old) {
                several.insert(new, set);
            }
            let offset = text.len() as u32;
            text.push_str(&self.text[row.span()]);
            kept.push(Row { offset, ..row });
            renumbered.push(new);
        }
        (self.text, self.rows, self.several) = (text, kept, several);
        self.droppable = 0;
        self.rehash(fitted_slots(self.rows.len()));
        renumbered
    }

    /// Bytes the store holds: arena, rows and index at their capacity,
    /// and the several-record sets.
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
                owners.log(id);
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
