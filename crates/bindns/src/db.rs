//! The per-server zone database.

use std::ops::Deref;

use crate::error::{NsError, NsResult};
use crate::name::DomainName;
use crate::rr::{RType, Records};
use crate::zone::Zone;

/// All zones held by one authoritative server, in origin order, one slot
/// a zone: a server of one zone holds that zone and nothing beside it.
#[derive(Debug, Default)]
pub struct ZoneDb {
    zones: Vec<Zone>,
}

impl ZoneDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the zone of `origin` is, or would go.
    fn position(&self, origin: &DomainName) -> Result<usize, usize> {
        self.zones
            .binary_search_by(|zone| zone.origin().cmp(origin))
    }

    /// Adds a zone, trimmed to what it holds ([`Zone::shrink_to_fit`]);
    /// one [`Zone::load`] stood up is fitted already and stays as it is.
    ///
    /// # Panics
    ///
    /// Panics if a zone with the same origin already exists.
    pub fn add_zone(&mut self, mut zone: Zone) {
        let at = match self.position(zone.origin()) {
            Ok(_) => panic!("duplicate zone {}", zone.origin()),
            Err(at) => at,
        };
        zone.shrink_to_fit();
        self.zones.reserve_exact(1);
        self.zones.insert(at, zone);
    }

    /// Finds the most specific zone containing `name`.
    pub fn find_zone(&self, name: &DomainName) -> Option<&Zone> {
        deepest(self.zones.iter(), name)
    }

    /// Mutable variant of [`ZoneDb::find_zone`], in the same one pass.
    pub fn find_zone_mut(&mut self, name: &DomainName) -> Option<&mut Zone> {
        deepest(self.zones.iter_mut(), name)
    }

    /// Gets a zone by exact origin.
    pub fn zone(&self, origin: &DomainName) -> Option<&Zone> {
        self.position(origin).ok().map(|at| &self.zones[at])
    }

    /// Authoritative lookup across all zones.
    pub fn lookup(&self, name: &DomainName, rtype: RType) -> NsResult<Records> {
        match self.find_zone(name) {
            Some(zone) => zone.lookup(name, rtype),
            None => Err(NsError::NotAuthoritative(name.to_string())),
        }
    }

    /// All zone origins, in name order.
    pub fn origins(&self) -> Vec<DomainName> {
        self.zones
            .iter()
            .map(|zone| zone.origin().clone())
            .collect()
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
        assert!(db.zone(&name("fiji.cs.washington.edu")).is_none());
        db.add_zone(Zone::new(name("mit.edu"), 3600));
        assert!(db.origins().is_sorted(), "{:?}", db.origins());
        assert!(db.zone(&name("mit.edu")).is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate zone")]
    fn duplicate_zone_panics() {
        let mut db = db();
        db.add_zone(Zone::new(name("cs.washington.edu"), 60));
    }
}
