//! A global string interner.
//!
//! Name services touch the same handful of strings — query-class tags,
//! context names, meta keys — millions of times, and at 10^6 registered
//! names the `String`-keyed caches pay for it twice: every probe hashes
//! and possibly clones a heap string, and every table holds its own copy
//! of keys that are identical across tables. The interner collapses both
//! costs: a string is stored once, behind an [`Arc<str>`], and everywhere
//! else it travels as a [`NameId`] — a `u32` that hashes in one
//! instruction, compares in one, and occupies four bytes in a cache key.
//!
//! The forward map (string → id) and the reverse table (id → string, a
//! `Vec<Arc<str>>` that writers only ever append to) are each behind a
//! read-mostly `RwLock`: a string already known is found under a read
//! lock, and only a first sighting writes. Ids are dense, stable for the
//! life of the process, and never reused.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// An interned name: a dense `u32` handle into the global (or an owned)
/// [`Interner`]. Equal ids ⇔ equal strings, for ids from the same
/// interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// A string interner: a forward map beside a read-mostly reverse table.
pub struct Interner {
    forward: RwLock<HashMap<Arc<str>, NameId>>,
    reverse: RwLock<Vec<Arc<str>>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner {
            forward: RwLock::new(HashMap::new()),
            reverse: RwLock::new(Vec::new()),
        }
    }

    /// Interns `s`, returning its stable id. Re-interning an already
    /// known string takes only a read lock and never allocates.
    #[expect(
        clippy::expect_used,
        reason = "2^32 distinct strings exhaust memory long before the id space"
    )]
    pub fn intern(&self, s: &str) -> NameId {
        if let Some(id) = self.get(s) {
            return id;
        }
        let mut map = self.forward.write();
        if let Some(&id) = map.get(s) {
            return id;
        }
        let stored: Arc<str> = Arc::from(s);
        let mut reverse = self.reverse.write();
        let id = NameId(u32::try_from(reverse.len()).expect("interner full"));
        reverse.push(Arc::clone(&stored));
        drop(reverse);
        map.insert(stored, id);
        id
    }

    /// Looks up `s` without interning it; `None` if it was never seen.
    pub fn get(&self, s: &str) -> Option<NameId> {
        self.forward.read().get(s).copied()
    }

    /// Resolves an id back to its string. Ids minted by this interner
    /// always resolve; foreign ids may not.
    pub fn resolve(&self, id: NameId) -> Option<Arc<str>> {
        self.reverse.read().get(id.0 as usize).cloned()
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.reverse.read().len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes resident in the reverse table's string storage (the single
    /// shared copy of each interned string, excluding map overhead).
    pub fn resident_str_bytes(&self) -> usize {
        self.reverse.read().iter().map(|s| s.len()).sum()
    }
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl std::fmt::Debug for Interner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .finish()
    }
}

static GLOBAL: OnceLock<Interner> = OnceLock::new();

/// The process-wide interner every cache key type goes through.
pub fn global() -> &'static Interner {
    GLOBAL.get_or_init(Interner::new)
}

/// Interns `s` in the global interner.
pub fn intern(s: &str) -> NameId {
    global().intern(s)
}

/// Resolves an id from the global interner.
pub fn resolve(id: NameId) -> Option<Arc<str>> {
    global().resolve(id)
}

/// Renders an id's string for `Debug`/trace output; unknown ids render
/// as `<name#N>` rather than panicking.
pub fn display(id: NameId) -> Arc<str> {
    resolve(id).unwrap_or_else(|| Arc::from(format!("<name#{}>", id.0).as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a).as_deref(), Some("alpha"));
        assert_eq!(i.resolve(b).as_deref(), Some("beta"));
        assert_eq!(i.get("alpha"), Some(a));
        assert_eq!(i.get("gamma"), None);
    }

    #[test]
    fn foreign_ids_do_not_resolve() {
        let i = Interner::new();
        assert_eq!(i.resolve(NameId(7)), None);
    }

    #[test]
    fn global_interner_is_shared() {
        let a = intern("global-interner-test-key");
        let b = intern("global-interner-test-key");
        assert_eq!(a, b);
        assert_eq!(resolve(a).as_deref(), Some("global-interner-test-key"));
    }

    #[test]
    fn resident_bytes_count_each_string_once() {
        let i = Interner::new();
        i.intern("aaaa");
        i.intern("aaaa");
        i.intern("bb");
        assert_eq!(i.resident_str_bytes(), 6);
    }
}
