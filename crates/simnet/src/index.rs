//! One open-addressed index of `u32` ids: how the zone's owner store, its
//! body table and every [`crate::ttl::TtlMap`] find an entry.
//!
//! The entries live elsewhere, in a dense vector the index's user owns;
//! the index holds each one's position + 1 (0 is a free slot) in the slot
//! its hash probes to first, or after it, linearly, wrapping at the end.
//! It may be any length: a home slot is the 64-bit hash scaled onto the
//! index (`hash × slots >> 64`), so it is never rounded up to a power of
//! two. How full it runs is its user's choice, as long as every chain
//! ends at a free slot: the zone's stores keep it at most three quarters
//! full, the TTL maps half.
//!
//! **Tags.** A slot word keeps the position + 1 in its low bits, as many
//! as the index's length needs (`id_bits`: enough to write the length
//! itself, so every position below it fits), and a tag in the bits above:
//! the hash's low bits, where the home reads the high ones. A probe asks
//! its user's `is` about a candidate only when the tags match, so a wrong
//! candidate costs no load of the user's entry — the row, slab slot or
//! text an `is` reads. Tags decide nothing: an entry is found only when
//! `is` says so. A rebuild at a new length re-splits every word; from
//! 2^31 slots the position takes all 32 bits, the tag none, and every
//! candidate is asked.
//!
//! The hash is fixed, not seeded per process: a structure lays out the
//! same way on every run. That gives up a seeded hash's defence against
//! keys crafted to collide, which nothing here needs: every key is made
//! by the simulation, none arrives from a peer outside it. The same hash
//! serves a `HashMap` whose keys are the simulation's own, as
//! [`FixedState`].

use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// The slot of `slots` a hash probes first: the hash scaled onto the
/// index, which may be any length.
fn home(hash: u64, slots: usize) -> usize {
    ((u128::from(hash) * slots as u128) >> 64) as usize
}

/// Low bits of a slot word that hold position + 1 in an index of `slots`:
/// enough to write `slots` itself, and at most all 32.
fn id_bits(slots: usize) -> u32 {
    (usize::BITS - slots.leading_zeros()).min(u32::BITS)
}

/// The word's bits that hold position + 1, given [`id_bits`].
fn id_mask(id_bits: u32) -> u32 {
    u32::MAX.checked_shr(u32::BITS - id_bits).unwrap_or(0)
}

/// The tag of `hash` above [`id_bits`] bits: the hash's low bits, as many
/// as are left, shifted up past the id; none when the id takes the word.
fn tag(hash: u64, id_bits: u32) -> u32 {
    (hash as u32).checked_shl(id_bits).unwrap_or(0)
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
pub struct FixedHasher(u64);

/// The fixed hash as a `HashMap`'s [`std::hash::BuildHasher`].
pub type FixedState = BuildHasherDefault<FixedHasher>;

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

/// [`hash`] of the concatenation of `parts`, read from the parts where
/// they lie: a key made of several parts is never copied into one to be
/// hashed. Words are gathered across part boundaries in a register; the
/// last eight bytes are the last part's own when it has eight, and are
/// rebuilt from the last whole word and what follows it when it has not.
pub fn hash_parts(parts: &[&[u8]]) -> u64 {
    if let [whole] = parts {
        return hash(whole);
    }
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let mut h = len as u64;
    // The last whole word, and the `filled` bytes after it, as a word.
    let (mut last_whole, mut word, mut filled) = (0u64, 0u64, 0);
    // Bytes after the last whole word not yet read into `word`.
    let mut pending: &[u8] = &[];
    for part in parts {
        let mut bytes = *part;
        if !pending.is_empty() {
            (word, filled, pending) = (le_partial(pending), pending.len(), &[]);
        }
        if filled > 0 {
            let (head, rest) = bytes.split_at(bytes.len().min(8 - filled));
            word |= le_partial(head) << (8 * filled);
            filled += head.len();
            bytes = rest;
            if filled < 8 {
                continue;
            }
            (h, last_whole, filled) = (mix(h, word), word, 0);
        }
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            last_whole = u64::from_le_bytes(*w);
            h = mix(h, last_whole);
        }
        pending = tail;
    }
    // What `FixedHasher::write` folds in last: the last eight bytes, or a
    // shorter string byte by byte, its first byte highest.
    let last = match (parts.last().and_then(|part| part.last_chunk::<8>()), len) {
        (Some(own), _) => u64::from_le_bytes(*own),
        (None, 0) => 0,
        (None, _) => {
            if !pending.is_empty() {
                (word, filled) = (le_partial(pending), pending.len());
            }
            match filled {
                _ if len < 8 => word.swap_bytes() >> (8 * (8 - len)),
                0 => last_whole,
                _ => last_whole >> (8 * filled) | word << (8 * (8 - filled)),
            }
        }
    };
    FixedHasher(mix(h, last)).finish()
}

/// Up to eight bytes as a little-endian word, in at most two loads.
fn le_partial(bytes: &[u8]) -> u64 {
    let len = bytes.len();
    match *bytes {
        [] => 0,
        [only] => u64::from(only),
        // First, middle and last byte, each at its place: three bytes at
        // most, so that is every byte, one of them twice.
        [first, .., last] if len < 4 => {
            let middle = u64::from(bytes[len / 2]) << (8 * (len / 2));
            u64::from(first) | middle | u64::from(last) << (8 * (len - 1))
        }
        // The first four and the last four, overlapping where they meet.
        _ if len < 8 => {
            let lo = bytes
                .first_chunk::<4>()
                .map_or(0, |w| u32::from_le_bytes(*w));
            let hi = bytes
                .last_chunk::<4>()
                .map_or(0, |w| u32::from_le_bytes(*w));
            u64::from(lo) | u64::from(hi) << (8 * (len - 4))
        }
        _ => bytes
            .first_chunk::<8>()
            .map_or(0, |w| u64::from_le_bytes(*w)),
    }
}

/// The fixed hash of anything hashable.
pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    FixedState::default().hash_one(value)
}

/// Ids of entries held elsewhere, found by their hash.
#[derive(Debug, Clone, Default)]
pub struct Index {
    /// At the slot an entry's hash probes to first, or after it: its tag
    /// over its id + 1 (the module's split); 0 for none.
    slots: Vec<u32>,
}

impl Index {
    /// Slots the index has.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Probes the chain of `hash` for the id `is` accepts, asking only
    /// about ids whose tag matches: `Ok((slot, id))`, or `Err` of the free
    /// slot that ends the chain (0 in an index with no slots).
    pub fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Result<(usize, u32), usize> {
        let slots = self.slots.len();
        let bits = id_bits(slots);
        let (mask, tag) = (id_mask(bits), tag(hash, bits));
        let mut slot = home(hash, slots);
        loop {
            match self.slots.get(slot) {
                Some(0) | None => return Err(slot),
                Some(&word) => {
                    let id = (word & mask) - 1;
                    if word & !mask == tag && is(id) {
                        return Ok((slot, id));
                    }
                    slot = next(slot, slots);
                }
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
    /// named for `hash`, or one holding an entry that moved — at `id`,
    /// which is below the index's length, tagged by `hash`.
    pub fn set(&mut self, slot: usize, id: u32, hash: u64) {
        let bits = id_bits(self.slots.len());
        debug_assert!(id < id_mask(bits), "id {id} does not fit {bits} bits");
        self.slots[slot] = tag(hash, bits) | (id + 1);
    }

    /// Empties every slot, keeping the length.
    pub fn clear(&mut self) {
        self.slots.fill(0);
    }

    /// Rebuilds the index at `slots` slots, holding ids 0, 1, … at the
    /// hashes `hashes` yields in turn, each word split for the new
    /// length. A new length is a new allocation of exactly that many
    /// slots.
    pub fn rebuild(&mut self, slots: usize, hashes: impl IntoIterator<Item = u64>) {
        if self.slots.len() == slots {
            self.clear();
        } else {
            self.slots = vec![0; slots];
        }
        for (id, hash) in (0u32..).zip(hashes) {
            let slot = self.free_slot(hash);
            self.set(slot, id, hash);
        }
    }

    /// Frees `slot`, shifting back into it each later entry of the run
    /// that its home allows (backward-shift deletion), so every chain
    /// still ends at its first free slot. `hash_of` gives an id's hash.
    pub fn remove(&mut self, slot: usize, hash_of: impl Fn(u32) -> u64) {
        let slots = self.slots.len();
        let mask = id_mask(id_bits(slots));
        let mut hole = slot;
        let mut at = next(slot, slots);
        while let Some(id) = (self.slots[at] & mask).checked_sub(1) {
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

    /// Any string split anywhere hashes as the whole: empty parts, parts
    /// that end mid-word, strings shorter than a word and longer.
    #[test]
    fn a_string_in_parts_hashes_as_the_whole() {
        let text: Vec<u8> = (0u8..40).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        for len in 0..=text.len() {
            let whole = &text[..len];
            assert_eq!(hash_parts(&[whole]), hash(whole), "{len}");
            for a in 0..=len {
                for b in a..=len {
                    let parts = [&whole[..a], &[][..], &whole[a..b], &whole[b..]];
                    assert_eq!(hash_parts(&parts), hash(whole), "{len} split at {a}, {b}");
                }
            }
        }
        assert_eq!(hash_parts(&[]), hash(b""));
    }

    fn built(hashes: &[u64], slots: usize) -> Index {
        let mut index = Index::default();
        index.rebuild(slots, hashes.iter().copied());
        index
    }

    /// The id takes just the bits that write the length, at 1, 2^k − 1,
    /// 2^k and 2^k + 1; from 2^31 it takes the word and the tag is gone.
    #[test]
    fn the_id_takes_the_bits_the_length_needs_and_the_tag_the_rest() {
        assert_eq!((id_bits(0), id_mask(0)), (0, 0));
        assert_eq!((id_bits(1), id_mask(1)), (1, 1));
        for k in [1, 2, 3, 7, 10, 16, 20, 30] {
            let pow = 1usize << k;
            assert_eq!(id_bits(pow - 1), k, "2^{k} - 1");
            assert_eq!(id_bits(pow), k + 1, "2^{k}");
            assert_eq!(id_bits(pow + 1), k + 1, "2^{k} + 1");
            // Every id below the length fits the mask, with 0 kept free.
            assert!(id_mask(id_bits(pow + 1)) as usize > pow);
        }
        assert_eq!(id_bits((1 << 31) - 1), 31);
        let hash = 0x0123_4567_89ab_cdef;
        assert_eq!(tag(hash, 31), 1 << 31, "one bit: the hash's lowest");
        for slots in [1usize << 31, 1 << 32, usize::MAX] {
            let bits = id_bits(slots);
            assert_eq!((bits, id_mask(bits)), (32, u32::MAX), "{slots}");
            assert_eq!((tag(hash, bits), tag(u64::MAX, bits)), (0, 0));
        }
        assert_eq!(tag(hash, 0), 0x89ab_cdef, "no id bits: the tag is the word");
        assert_eq!(tag(hash, 4), 0x9abc_def0);
    }

    /// Every word of an index of 1, 2^k − 1, 2^k or 2^k + 1 slots, three
    /// quarters full, holds its id + 1 below the split and its hash's low
    /// bits above it.
    #[test]
    fn every_word_holds_its_id_under_its_tag() {
        for k in [1, 4, 9] {
            for slots in [1usize, (1 << k) - 1, 1 << k, (1 << k) + 1] {
                let bits = usize::BITS - slots.leading_zeros();
                let hashes: Vec<u64> = (0..slots * 3 / 4).map(|i| hash_of(&i)).collect();
                let index = built(&hashes, slots);
                let mut held = 0;
                for &word in index.slots.iter().filter(|&&w| w != 0) {
                    let id = (word & ((1 << bits) - 1)) - 1;
                    let low = hashes[id as usize] & ((1 << (32 - bits)) - 1);
                    assert_eq!(u64::from(word >> bits), low, "{slots} slots, id {id}");
                    held += 1;
                }
                assert_eq!(held, hashes.len(), "{slots} slots");
                for (id, &h) in (0u32..).zip(&hashes) {
                    assert!(matches!(index.find(h, |i| i == id), Ok((_, i)) if i == id));
                }
            }
        }
    }

    /// Entries sharing a home and not a tag: a probe asks only about the
    /// candidate whose tag matches, and a probe matching no tag asks
    /// about none, however long the chain.
    #[test]
    fn a_wrong_tag_is_never_asked_about() {
        // One high half, so one home; low halves apart in every bit a
        // tag of a 16-slot index (5 id bits) reads.
        let hashes: Vec<u64> = (0..8).map(|i| 0xabcd_0000_0000_0000 | i << 5 | i).collect();
        let index = built(&hashes, 16);
        assert!(hashes.iter().all(|&h| home(h, 16) == home(hashes[0], 16)));
        for (id, &h) in (0u32..).zip(&hashes) {
            let mut asked = 0;
            let found = index.find(h, |i| {
                asked += 1;
                i == id
            });
            assert_eq!((found.map(|(_, i)| i), asked), (Ok(id), 1), "id {id}");
        }
        let mut asked = 0;
        let missing = index.find(0xabcd_0000_0000_0000 | 9 << 5, |_| {
            asked += 1;
            true
        });
        assert_eq!((missing.is_err(), asked), (true, 0));
    }

    /// A rebuild at another length re-splits every word for it: growing
    /// 8 → 1,000 slots and back to 7, each id is found and its word holds
    /// the new split.
    #[test]
    fn a_rebuild_at_a_new_length_re_splits_every_word() {
        let hashes: Vec<u64> = (0u32..5).map(|i| hash_of(&i)).collect();
        let mut index = built(&hashes, 8);
        for slots in [1000, 7] {
            index.rebuild(slots, hashes.iter().copied());
            let bits = id_bits(slots);
            for (id, &h) in (0u32..).zip(&hashes) {
                let Ok((slot, _)) = index.find(h, |i| i == id) else {
                    panic!("{slots} slots: {id} not found");
                };
                assert_eq!(index.slots[slot], tag(h, bits) | (id + 1));
            }
        }
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
