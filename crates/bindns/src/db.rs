//! The per-server zone database.

use std::collections::BTreeMap;
use std::ops::Deref;

use crate::error::{NsError, NsResult};
use crate::name::DomainName;
use crate::rr::{RType, Records};
use crate::zone::Zone;

/// All zones held by one authoritative server, keyed by origin.
#[derive(Debug, Default)]
pub struct ZoneDb {
    zones: BTreeMap<DomainName, Zone>,
}

impl ZoneDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a zone, trimmed to what it holds ([`Zone::shrink_to_fit`]);
    /// one [`Zone::load`] stood up is fitted already and stays as it is.
    ///
    /// # Panics
    ///
    /// Panics if a zone with the same origin already exists.
    pub fn add_zone(&mut self, mut zone: Zone) {
        zone.shrink_to_fit();
        let origin = zone.origin().clone();
        let prev = self.zones.insert(origin.clone(), zone);
        assert!(prev.is_none(), "duplicate zone {origin}");
    }

    /// Finds the most specific zone containing `name`.
    pub fn find_zone(&self, name: &DomainName) -> Option<&Zone> {
        deepest(self.zones.values(), name)
    }

    /// Mutable variant of [`ZoneDb::find_zone`], in the same one pass.
    pub fn find_zone_mut(&mut self, name: &DomainName) -> Option<&mut Zone> {
        deepest(self.zones.values_mut(), name)
    }

    /// Gets a zone by exact origin.
    pub fn zone(&self, origin: &DomainName) -> Option<&Zone> {
        self.zones.get(origin)
    }

    /// Mutable access by exact origin.
    pub fn zone_mut(&mut self, origin: &DomainName) -> Option<&mut Zone> {
        self.zones.get_mut(origin)
    }

    /// Authoritative lookup across all zones.
    pub fn lookup(&self, name: &DomainName, rtype: RType) -> NsResult<Records> {
        match self.find_zone(name) {
            Some(zone) => zone.lookup(name, rtype),
            None => Err(NsError::NotAuthoritative(name.to_string())),
        }
    }

    /// All zone origins.
    pub fn origins(&self) -> Vec<DomainName> {
        self.zones.keys().cloned().collect()
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }
}

/// The deepest of `zones` that contains `name`. Two zones holding it
/// are one inside the other, so their depths differ.
fn deepest<Z: Deref<Target = Zone>>(
    zones: impl Iterator<Item = Z>,
    name: &DomainName,
) -> Option<Z> {
    zones
        .filter(|z| z.contains(name))
        .max_by_key(|z| z.origin().depth())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::ResourceRecord;
    use simnet::topology::{HostId, NetAddr};

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn db() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.add_zone(Zone::new(name("washington.edu"), 3600));
        db.add_zone(Zone::new(name("cs.washington.edu"), 3600));
        db
    }

    #[test]
    fn most_specific_zone_wins() {
        let db = db();
        let z = db.find_zone(&name("fiji.cs.washington.edu")).expect("zone");
        assert_eq!(z.origin().to_string(), "cs.washington.edu");
        let z = db.find_zone(&name("ee.washington.edu")).expect("zone");
        assert_eq!(z.origin().to_string(), "washington.edu");
        assert!(db.find_zone(&name("mit.edu")).is_none());
        let mut db = db;
        for (asked, origin) in [
            ("fiji.cs.washington.edu", "cs.washington.edu"),
            ("cs.washington.edu", "cs.washington.edu"),
            ("ee.washington.edu", "washington.edu"),
        ] {
            let z = db.find_zone_mut(&name(asked)).expect("zone");
            assert_eq!(z.origin().to_string(), origin, "{asked}");
        }
        assert!(db.find_zone_mut(&name("mit.edu")).is_none());
    }

    #[test]
    fn lookup_routes_to_containing_zone() {
        let mut db = db();
        db.find_zone_mut(&name("fiji.cs.washington.edu"))
            .expect("zone")
            .add(ResourceRecord::a(
                name("fiji.cs.washington.edu"),
                60,
                NetAddr::of(HostId(2)),
            ))
            .expect("add");
        let found = db
            .lookup(&name("fiji.cs.washington.edu"), RType::A)
            .expect("lookup");
        assert_eq!(found.len(), 1);
        assert!(matches!(
            db.lookup(&name("x.mit.edu"), RType::A),
            Err(NsError::NotAuthoritative(_))
        ));
    }

    #[test]
    fn zone_accessors() {
        let mut db = db();
        assert_eq!(db.zone_count(), 2);
        assert_eq!(db.origins().len(), 2);
        assert!(db.zone(&name("cs.washington.edu")).is_some());
        assert!(db.zone_mut(&name("cs.washington.edu")).is_some());
        assert!(db.zone(&name("fiji.cs.washington.edu")).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate zone")]
    fn duplicate_zone_panics() {
        let mut db = db();
        db.add_zone(Zone::new(name("cs.washington.edu"), 60));
    }
}
