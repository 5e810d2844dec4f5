//! One open-addressed index of `u32` ids: how the zone's owner store and
//! every [`crate::ttl::TtlMap`] find an entry.
//!
//! The entries live elsewhere, in a dense vector the index's user owns;
//! the index holds each one's position + 1 (0 is a free slot) in the slot
//! its hash probes to first, or after it, linearly, wrapping at the end.
//! The user keeps it at most half full, so every chain ends at a free slot
//! within a few steps. It may be any length: a home slot is the 64-bit
//! hash scaled onto the index (`hash × slots >> 64`), not its low bits,
//! so it is never rounded up to a power of two.
//!
//! The hash is fixed, not seeded per process: a structure lays out the
//! same way on every run. That gives up a seeded hash's defence against
//! keys crafted to collide, which nothing here needs: every key is made
//! by the simulation, none arrives from a peer outside it.

use std::hash::{Hash, Hasher};

/// The slot of `slots` a hash probes first: the hash scaled onto the
/// index, which may be any length.
fn home(hash: u64, slots: usize) -> usize {
    ((u128::from(hash) * slots as u128) >> 64) as usize
}

/// The slot after `slot` in an index of `slots`.
fn next(slot: usize, slots: usize) -> usize {
    if slot + 1 == slots {
        0
    } else {
        slot + 1
    }
}

/// One step of the hash: the state rotated, a word folded in, multiplied.
fn mix(h: u64, word: u64) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    (h.rotate_left(23) ^ word).wrapping_mul(K)
}

/// A [`Hasher`] with no per-process seed: bytes are folded in eight at a
/// time, an integer as one word, and [`Hasher::finish`] ends in an
/// avalanche (murmur3's), so the high bits a home slot reads depend on
/// every byte.
#[derive(Debug, Clone, Copy, Default)]
struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, _) = bytes.as_chunks::<8>();
        let h = words.iter().fold(self.0 ^ bytes.len() as u64, |h, w| {
            mix(h, u64::from_le_bytes(*w))
        });
        // The last eight bytes again, overlapping the words before them
        // (the length is in the hash), or a short slice byte by byte.
        let last = match bytes.last_chunk::<8>() {
            Some(w) => u64::from_le_bytes(*w),
            None => bytes.iter().fold(0, |w, &b| w << 8 | u64::from(b)),
        };
        self.0 = mix(h, last);
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

/// The fixed hash of a byte string.
pub fn hash(bytes: &[u8]) -> u64 {
    let mut hasher = FixedHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// The fixed hash of anything hashable.
pub(crate) fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FixedHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Ids of entries held elsewhere, found by their hash.
#[derive(Debug, Clone, Default)]
pub struct Index {
    /// Id + 1 at the slot an entry's hash probes to first, or after it;
    /// 0 for none.
    slots: Vec<u32>,
}

impl Index {
    /// Slots the index has.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Probes the chain of `hash` for the id `is` accepts: `Ok((slot,
    /// id))`, or `Err` of the free slot that ends the chain (0 in an
    /// index with no slots).
    pub fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Result<(usize, u32), usize> {
        let slots = self.slots.len();
        let mut slot = home(hash, slots);
        loop {
            match self.slots.get(slot).map(|&entry| entry.checked_sub(1)) {
                Some(Some(id)) if is(id) => return Ok((slot, id)),
                Some(Some(_)) => slot = next(slot, slots),
                Some(None) | None => return Err(slot),
            }
        }
    }

    /// The free slot that ends the chain of `hash`.
    pub fn free_slot(&self, hash: u64) -> usize {
        match self.find(hash, |_| false) {
            Ok((slot, _)) | Err(slot) => slot,
        }
    }

    /// Points `slot` — a free one [`Index::find`] or [`Index::free_slot`]
    /// named, or one holding an entry that moved — at `id`.
    pub fn set(&mut self, slot: usize, id: u32) {
        self.slots[slot] = id + 1;
    }

    /// Empties every slot, keeping the length.
    pub fn clear(&mut self) {
        self.slots.fill(0);
    }

    /// Rebuilds the index at `slots` slots, holding ids 0, 1, … at the
    /// hashes `hashes` yields in turn. A new length is a new allocation
    /// of exactly that many slots.
    pub fn rebuild(&mut self, slots: usize, hashes: impl IntoIterator<Item = u64>) {
        if self.slots.len() == slots {
            self.clear();
        } else {
            self.slots = vec![0; slots];
        }
        for (id, hash) in (0u32..).zip(hashes) {
            let slot = self.free_slot(hash);
            self.set(slot, id);
        }
    }

    /// Frees `slot`, shifting back into it each later entry of the run
    /// that its home allows (backward-shift deletion), so every chain
    /// still ends at its first free slot. `hash_of` gives an id's hash.
    pub fn remove(&mut self, slot: usize, hash_of: impl Fn(u32) -> u64) {
        let slots = self.slots.len();
        let mut hole = slot;
        let mut at = next(slot, slots);
        while let Some(id) = self.slots[at].checked_sub(1) {
            let home = home(hash_of(id), slots);
            // The entry at `at` stays if its home lies cyclically in
            // `(hole, at]`: moved to the hole, it would sit before it.
            let stays = if hole <= at {
                hole < home && home <= at
            } else {
                hole < home || home <= at
            };
            if !stays {
                self.slots[hole] = self.slots[at];
                hole = at;
            }
            at = next(at, slots);
        }
        self.slots[hole] = 0;
    }

    /// Bytes the index holds, at its capacity.
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_scales_the_hash_onto_any_length() {
        assert_eq!(home(0, 10), 0);
        assert_eq!(home(u64::MAX, 10), 9);
        assert_eq!(home(1 << 63, 10), 5);
        assert_eq!(home(1 << 63, 7), 3);
        assert_eq!(home(u64::MAX, 0), 0);
        for slots in [1, 3, 600, 131_072] {
            for h in [0, 1, 1 << 40, u64::MAX / 3, u64::MAX] {
                assert!(home(h, slots) < slots);
            }
        }
    }

    #[test]
    fn next_wraps_at_the_end() {
        assert_eq!(next(0, 3), 1);
        assert_eq!(next(1, 3), 2);
        assert_eq!(next(2, 3), 0);
        assert_eq!(next(0, 1), 0);
    }

    /// Fixed — one value on every run and every host — and sensitive to
    /// every byte and to the length.
    #[test]
    fn the_hash_is_fixed_and_reads_every_byte() {
        assert_eq!(hash(b"n17.cell0.hns"), 0x017a_f4a8_f7dc_7efb);
        let base = b"n1234567.cell0.hns".to_vec();
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(hash(&base)));
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert!(seen.insert(hash(&flipped)), "byte {i}");
        }
        assert!(seen.insert(hash(&base[..base.len() - 1])));
        assert!(seen.insert(hash(b"")));
        assert!(seen.insert(hash(b"\0")));
        // Integers are one word each, and differ in the high bits.
        let (a, b) = (hash_of(&1u32), hash_of(&2u32));
        assert_ne!(a >> 48, b >> 48);
    }

    fn built(hashes: &[u64], slots: usize) -> Index {
        let mut index = Index::default();
        index.rebuild(slots, hashes.iter().copied());
        index
    }

    /// A full chain that starts at the last slot wraps to the first, and
    /// every id is found in it.
    #[test]
    fn chains_wrap_past_the_end() {
        let hashes = [u64::MAX, u64::MAX, u64::MAX, 0];
        let index = built(&hashes, 8);
        assert_eq!(index.find(u64::MAX, |id| id == 0), Ok((7, 0)));
        assert_eq!(index.find(u64::MAX, |id| id == 1), Ok((0, 1)));
        assert_eq!(index.find(u64::MAX, |id| id == 2), Ok((1, 2)));
        // The id homed at slot 0 was pushed along by the wrapped chain.
        assert_eq!(index.find(0, |id| id == 3), Ok((2, 3)));
        assert_eq!(index.find(u64::MAX, |_| false), Err(3));
        assert_eq!(index.free_slot(0), 3);
    }

    /// Deleting from anywhere in a chain keeps every other id findable
    /// and every chain ending at its first free slot, wrapped or not: an
    /// entry shifts back into the hole unless its home lies after the
    /// hole (slot 6's own entry, once slot 5's goes; slot 0's, once the
    /// wrapped chain's head at slot 9 goes).
    #[test]
    fn removal_shifts_back_what_its_home_allows() {
        let (last, first, mid) = (u64::MAX, 0, 1 << 63);
        let sixth = u64::MAX / 20 * 13;
        assert_eq!((home(last, 10), home(mid, 10), home(sixth, 10)), (9, 5, 6));
        let layouts: [&[u64]; 3] = [
            &[last, last, first, last, mid],
            &[last, first, last],
            &[mid, sixth, mid, sixth],
        ];
        for hashes in layouts {
            for doomed in 0..hashes.len() as u32 {
                let mut index = built(hashes, 10);
                let Ok((slot, _)) = index.find(hashes[doomed as usize], |id| id == doomed) else {
                    panic!("{hashes:x?}: {doomed} not found");
                };
                index.remove(slot, |id| hashes[id as usize]);
                for (id, &h) in (0u32..).zip(hashes) {
                    let found = index.find(h, |i| i == id);
                    assert_eq!(
                        found.is_ok(),
                        id != doomed,
                        "{hashes:x?}: {id}, {doomed} gone"
                    );
                }
                let held = index.slots.iter().filter(|&&e| e != 0).count();
                assert_eq!(held, hashes.len() - 1);
            }
        }
    }

    #[test]
    fn an_empty_index_finds_nothing_and_holds_nothing() {
        let mut index = Index::default();
        assert_eq!(index.find(42, |_| true), Err(0));
        assert_eq!(index.resident_bytes(), 0);
        index.rebuild(6, [1, 2, 3]);
        assert_eq!((index.slots(), index.resident_bytes()), (6, 24));
        index.clear();
        assert_eq!(index.find(2, |_| true), Err(home(2, 6)));
        // Rebuilt at its own length it keeps its allocation.
        index.rebuild(6, []);
        assert_eq!(index.resident_bytes(), 24);
    }
}
