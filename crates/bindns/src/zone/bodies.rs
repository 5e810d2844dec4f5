//! The body table under a [`super::Zone`]: every distinct record body
//! once, held by value with the count of records that use it, and named
//! by a `u32` id (its position + 1, so a row's empty `Option` costs
//! nothing). The same table is the zone's dedup set: a body is found by
//! its fixed hash through a [`simnet::index::Index`] at most three
//! quarters full, the one the owner store and the TTL maps use.
//!
//! A body whose last user goes is dropped and its id put on a free list,
//! which the next new body takes before the table grows, so a name
//! rebound over and over holds one entry, not one per binding it had.
//! [`Bodies::shrink_to_fit`] drops the free entries at the table's end.
//!
//! A load files what it shares in a [`Filed`] table as well: a record
//! whose opaque payload is an allocation the table already holds, under
//! the same type and TTL, takes that body's id without its bytes being
//! hashed again.

use std::num::NonZeroU32;

use simnet::index::{hash_of, Index};

use super::owners::SEVERAL;
use super::{fitted_slots, overfull, RrBody};
use crate::rr::{RData, RType};

/// A body's id in its zone's table: its position + 1.
pub(super) type BodyId = NonZeroU32;

/// One entry of the table.
#[derive(Debug, Clone)]
struct Entry {
    /// The body; `None` once its last user went and its position is on
    /// the free list.
    body: Option<RrBody>,
    /// Records that use it.
    users: u32,
}

/// Every distinct body of a zone, with its users.
#[derive(Debug, Clone, Default)]
pub(super) struct Bodies {
    /// One per id, free ones included.
    table: Vec<Entry>,
    /// The positions of the held bodies, by their fixed hash.
    index: Index,
    /// Positions whose body went, the next to be reused last.
    free: Vec<u32>,
}

/// The fixed hash of the body at `at`, which is held.
fn hash_at(table: &[Entry], at: u32) -> u64 {
    table[at as usize].body.as_ref().map_or(0, hash_of)
}

impl Bodies {
    /// The body `id` names.
    #[expect(
        clippy::expect_used,
        reason = "a row names only bodies it uses, which are held"
    )]
    pub(super) fn get(&self, id: BodyId) -> &RrBody {
        let entry = &self.table[id.get() as usize - 1];
        entry.body.as_ref().expect("a used body is held")
    }

    /// The bodies `ids` name, in their order.
    pub(super) fn of<'a>(
        &'a self,
        ids: &'a [BodyId],
    ) -> impl ExactSizeIterator<Item = &'a RrBody> + Clone + 'a {
        ids.iter().map(|&id| self.get(id))
    }

    /// The id of `body` with one user more: the held copy's if there is
    /// one, else a new entry's, on a free position if the table has one.
    pub(super) fn share(&mut self, body: RrBody) -> BodyId {
        let hash = hash_of(&body);
        let table = &self.table;
        let found = self
            .index
            .find(hash, |at| table[at as usize].body.as_ref() == Some(&body));
        let at = match found {
            Ok((_, at)) => {
                self.table[at as usize].users += 1;
                at
            }
            Err(slot) => {
                let entry = Entry {
                    body: Some(body),
                    users: 1,
                };
                let at = match self.free.pop() {
                    Some(at) => {
                        self.table[at as usize] = entry;
                        at
                    }
                    None => {
                        self.table.push(entry);
                        self.table.len() as u32 - 1
                    }
                };
                if overfull(self.table.len(), self.index.slots()) {
                    // Room for as many entries again before the next one.
                    self.reindex(fitted_slots(2 * self.table.len()));
                } else {
                    self.index.set(slot, at, hash);
                }
                at
            }
        };
        BodyId::MIN.saturating_add(at)
    }

    /// One user more of `id`, which is held.
    fn reuse(&mut self, id: BodyId) {
        self.table[id.get() as usize - 1].users += 1;
    }

    /// One user of `id` fewer; the last one's going drops the body and
    /// frees its id.
    pub(super) fn release(&mut self, id: BodyId) {
        let at = id.get() - 1;
        let entry = &mut self.table[at as usize];
        entry.users -= 1;
        if entry.users > 0 {
            return;
        }
        let hash = hash_at(&self.table, at);
        if let Ok((slot, _)) = self.index.find(hash, |held| held == at) {
            let table = &self.table;
            self.index.remove(slot, |held| hash_at(table, held));
        }
        self.table[at as usize].body = None;
        self.free.push(at);
    }

    /// Whether a new body still gets an id below [`SEVERAL`], which the
    /// owner store reserves.
    pub(super) fn has_room(&self) -> bool {
        self.table.len() + 1 < SEVERAL.get() as usize
    }

    /// Distinct bodies held.
    pub(super) fn len(&self) -> usize {
        self.table.len() - self.free.len()
    }

    /// Entries of the table, free ones included.
    pub(super) fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Drops the free entries at the end of the table, and trims table
    /// and free list to their length and the index to fit, unless it fits
    /// already: it holds every held body whatever its length, and a
    /// dropped entry was taken out of it when its body went.
    pub(super) fn shrink_to_fit(&mut self) {
        let held = self.table.iter().rposition(|entry| entry.body.is_some());
        let len = held.map_or(0, |last| last + 1);
        self.table.truncate(len);
        self.free.retain(|&at| (at as usize) < len);
        self.table.shrink_to_fit();
        self.free.shrink_to_fit();
        let slots = fitted_slots(len);
        if self.index.slots() != slots {
            self.reindex(slots);
        }
    }

    /// Rebuilds the index at `slots` slots over the held bodies.
    fn reindex(&mut self, slots: usize) {
        self.index.rebuild(slots, []);
        for (at, entry) in (0u32..).zip(&self.table) {
            if let Some(body) = &entry.body {
                let hash = hash_of(body);
                let slot = self.index.free_slot(hash);
                self.index.set(slot, at, hash);
            }
        }
    }

    /// Bytes the table holds: its entries, free list and index at their
    /// capacity, and what each held body's rdata points at.
    pub(super) fn resident_bytes(&self) -> usize {
        let rdata: usize = self
            .table
            .iter()
            .filter_map(|entry| entry.body.as_ref())
            .map(RrBody::heap_bytes)
            .sum();
        self.table.capacity() * std::mem::size_of::<Entry>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.index.resident_bytes()
            + rdata
    }
}

/// A [`Filed`] table has `1 << FILED_BITS` slots.
const FILED_BITS: u32 = 6;

/// The opaque payloads one load has filed in its zone's table, each under
/// the address of the allocation the table holds, its type and its TTL:
/// a fixed table on the load's stack, a later payload at the same slot
/// taking the place of an earlier one.
///
/// A record whose payload is a filed allocation, under the same type and
/// TTL, has the filed body's bytes and so is that body. The address
/// names that allocation only while the table holds it — freed, it could
/// be handed out again for other bytes — so this holds because a load
/// releases no body. A payload equal to a held one in another
/// allocation misses here, and is found by its hash as any body is.
pub(super) struct Filed {
    slots: [Option<(usize, RType, u32, BodyId)>; 1 << FILED_BITS],
}

impl Default for Filed {
    fn default() -> Self {
        Filed {
            slots: [None; 1 << FILED_BITS],
        }
    }
}

impl Filed {
    /// [`Bodies::share`] of `body`, unless its payload is filed: then the
    /// filed id with one user more, its bytes not hashed. Files the
    /// payload the table holds for it.
    pub(super) fn share(&mut self, bodies: &mut Bodies, body: RrBody) -> BodyId {
        let RData::Opaque(payload) = &body.rdata else {
            return bodies.share(body);
        };
        let key = (payload.as_ptr() as usize, body.rtype, body.ttl);
        if let Some((address, rtype, ttl, id)) = self.slots[slot(key.0)] {
            if (address, rtype, ttl) == key {
                bodies.reuse(id);
                return id;
            }
        }
        let id = bodies.share(body);
        let held = bodies.get(id);
        if let RData::Opaque(payload) = &held.rdata {
            let address = payload.as_ptr() as usize;
            self.slots[slot(address)] = Some((address, held.rtype, held.ttl, id));
        }
        id
    }
}

/// The slot of a [`Filed`] table for the payload at `address`: the top
/// bits of the address mixed by MurmurHash3's finalizer, since blobs
/// allocated one after another lie a fixed stride apart, and a stride
/// can map them all to one slot of a plain multiplicative hash.
fn slot(address: usize) -> usize {
    let mut x = address as u64;
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    ((x ^ (x >> 33)) >> (u64::BITS - FILED_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::{RData, RType};

    fn text(s: &str) -> RrBody {
        RrBody {
            rtype: RType::Txt,
            ttl: 60,
            rdata: RData::Text(s.into()),
        }
    }

    /// One body shared by three users stays until the third goes; its
    /// id is then the next new body's, and the table does not grow.
    #[test]
    fn a_body_goes_with_its_last_user_and_its_id_is_reused() {
        let mut bodies = Bodies::default();
        let a = bodies.share(text("a"));
        assert_eq!((bodies.share(text("a")), bodies.share(text("a"))), (a, a));
        let b = bodies.share(text("b"));
        assert_ne!(a, b);
        assert_eq!((bodies.len(), bodies.table_len()), (2, 2));
        bodies.release(a);
        bodies.release(a);
        assert_eq!((bodies.len(), bodies.get(a)), (2, &text("a")));
        bodies.release(a);
        assert_eq!(bodies.len(), 1);
        let c = bodies.share(text("c"));
        assert_eq!((c, bodies.table_len()), (a, 2), "the freed id, reused");
        assert_eq!((bodies.get(b), bodies.get(c)), (&text("b"), &text("c")));
        // The dedup set forgot "a": it comes back under a new id.
        let again = bodies.share(text("a"));
        assert_eq!((bodies.len(), bodies.table_len()), (3, 3));
        assert_eq!(bodies.get(again), &text("a"));
    }

    /// Trimming drops only the free entries at the end: ids in use keep
    /// naming their bodies, and a trimmed table still dedups.
    #[test]
    fn trimming_keeps_every_held_id() {
        let mut bodies = Bodies::default();
        let ids: Vec<BodyId> = (0..40)
            .map(|i| bodies.share(text(&i.to_string())))
            .collect();
        for &id in ids.iter().skip(1).step_by(2).chain(&ids[30..]) {
            if bodies.table[id.get() as usize - 1].body.is_some() {
                bodies.release(id);
            }
        }
        bodies.shrink_to_fit();
        assert_eq!(bodies.table_len(), 29, "up to the last held, id 29");
        assert_eq!(bodies.table.capacity(), 29);
        for i in (0..30).step_by(2) {
            assert_eq!(bodies.get(ids[i]), &text(&i.to_string()));
            assert_eq!(bodies.share(text(&i.to_string())), ids[i]);
        }
        bodies.shrink_to_fit();
        let all = bodies.table.iter().filter(|e| e.body.is_some()).count();
        assert_eq!(bodies.len(), all);
        assert!(4 * bodies.table_len() <= 3 * bodies.index.slots());
    }
}
