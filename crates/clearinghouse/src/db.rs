//! The per-domain entry database.
//!
//! Entries and aliases are keyed by the [`ThreePartName`] they are stored
//! under, so a name a client merely asks about leaves nothing behind.
//! Reads and writes alike go through [`ChDb::canonical`]: an alias names
//! its target's entry for `lookup`, `set_item`, `add_member` and
//! `add_entry`. Enumeration paths (`list`, `snapshot`) sort, so their
//! output is in name order.

use std::collections::HashMap;

use crate::error::{ChError, ChResult};
use crate::name::ThreePartName;
use crate::property::{Entry, Property, PropertyId};

/// All entries of the domains one server is responsible for.
#[derive(Debug, Default, Clone)]
pub struct ChDb {
    /// Domains served, as `(domain, organization)` pairs.
    domains: Vec<(String, String)>,
    entries: HashMap<ThreePartName, Entry>,
    /// Alias → canonical name.
    aliases: HashMap<ThreePartName, ThreePartName>,
}

/// What a replica is refreshed from: every entry and every
/// `(alias, target)` pair.
type Snapshot = (
    Vec<(ThreePartName, Entry)>,
    Vec<(ThreePartName, ThreePartName)>,
);

impl ChDb {
    /// Creates a database serving the given domains.
    pub fn new(domains: Vec<(String, String)>) -> Self {
        ChDb {
            domains: domains
                .into_iter()
                .map(|(d, o)| (d.to_ascii_lowercase(), o.to_ascii_lowercase()))
                .collect(),
            entries: HashMap::new(),
            aliases: HashMap::new(),
        }
    }

    /// True if this database is responsible for `name`'s domain.
    pub fn serves(&self, name: &ThreePartName) -> bool {
        let (domain, organization) = (name.domain(), name.organization());
        (self.domains.iter()).any(|(d, o)| d == domain && o == organization)
    }

    fn check_serves(&self, name: &ThreePartName) -> ChResult<()> {
        if self.serves(name) {
            Ok(())
        } else {
            Err(ChError::WrongServer(format!(
                "{}:{}",
                name.domain(),
                name.organization()
            )))
        }
    }

    /// Creates an empty entry (the target's, if `name` is an alias).
    pub fn add_entry(&mut self, name: ThreePartName) -> ChResult<()> {
        self.check_serves(&name)?;
        let canonical = self.canonical(&name);
        if self.entries.contains_key(canonical) {
            return Err(ChError::AlreadyExists(name.to_string()));
        }
        self.entries.insert(canonical.clone(), Entry::new());
        Ok(())
    }

    /// Deletes the entry stored under `name` itself; errors if absent.
    pub fn delete_entry(&mut self, name: &ThreePartName) -> ChResult<()> {
        self.check_serves(name)?;
        self.entries
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ChError::NotFound(name.to_string()))
    }

    /// Runs `write` on the entry `name` resolves to, creating it if
    /// needed; only a new entry copies the name.
    fn write_entry<R>(&mut self, name: &ThreePartName, write: impl FnOnce(&mut Entry) -> R) -> R {
        // `canonical`, spelled out so that only `aliases` stays borrowed.
        let name = self.aliases.get(name).unwrap_or(name);
        match self.entries.get_mut(name) {
            Some(entry) => write(entry),
            None => write(self.entries.entry(name.clone()).or_default()),
        }
    }

    /// Sets an item property, creating the entry if needed.
    pub fn set_item(
        &mut self,
        name: &ThreePartName,
        id: PropertyId,
        value: wire::Value,
    ) -> ChResult<()> {
        self.check_serves(name)?;
        self.write_entry(name, |entry| entry.set_item(id, value));
        Ok(())
    }

    /// Adds a member to a group property, creating the entry if needed.
    pub fn add_member(
        &mut self,
        name: &ThreePartName,
        id: PropertyId,
        member: &str,
    ) -> ChResult<()> {
        self.check_serves(name)?;
        self.write_entry(name, |entry| entry.add_member(id, member))
    }

    /// Resolves one level of aliasing.
    pub fn canonical<'a>(&'a self, name: &'a ThreePartName) -> &'a ThreePartName {
        self.aliases.get(name).unwrap_or(name)
    }

    /// Installs an alias. The alias may not shadow an existing entry, and
    /// aliases do not chain: an alias must target a non-alias and must not
    /// itself be the target of one.
    pub fn add_alias(&mut self, alias: ThreePartName, target: ThreePartName) -> ChResult<()> {
        self.check_serves(&alias)?;
        self.check_serves(&target)?;
        if self.entries.contains_key(&alias) {
            return Err(ChError::AlreadyExists(alias.to_string()));
        }
        if self.aliases.contains_key(&target) {
            return Err(ChError::BadName(format!(
                "alias target {target} is itself an alias"
            )));
        }
        if self.aliases.values().any(|aliased| *aliased == alias) {
            return Err(ChError::BadName(format!(
                "{alias} is the target of an alias"
            )));
        }
        self.aliases.insert(alias, target);
        Ok(())
    }

    /// Reads one property of an entry, following aliases.
    pub fn lookup(&self, name: &ThreePartName, id: PropertyId) -> ChResult<Property> {
        self.check_serves(name)?;
        let entry = self
            .entries
            .get(self.canonical(name))
            .ok_or_else(|| ChError::NotFound(name.to_string()))?;
        entry.get(id).cloned()
    }

    /// Enumerates entry names whose *object* part matches `pattern`
    /// (a literal with an optional trailing `*` wildcard) in the given
    /// domain, in name order. Aliases are not enumerated.
    pub fn list(&self, domain: &str, organization: &str, pattern: &str) -> Vec<ThreePartName> {
        let matcher = |object: &str| match pattern.strip_suffix('*') {
            Some(prefix) => object.starts_with(&prefix.to_ascii_lowercase()),
            None => object == pattern.to_ascii_lowercase(),
        };
        let mut names: Vec<ThreePartName> = self
            .entries
            .keys()
            .filter(|n| {
                n.domain() == domain.to_ascii_lowercase()
                    && n.organization() == organization.to_ascii_lowercase()
                    && matcher(n.object())
            })
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Reads the whole entry stored under `name` itself.
    pub fn entry(&self, name: &ThreePartName) -> ChResult<&Entry> {
        self.check_serves(name)?;
        self.entries
            .get(name)
            .ok_or_else(|| ChError::NotFound(name.to_string()))
    }

    /// All entries and all `(alias, target)` pairs (for replication), each
    /// in name order.
    pub fn snapshot(&self) -> Snapshot {
        fn sorted<V: Clone>(map: &HashMap<ThreePartName, V>) -> Vec<(ThreePartName, V)> {
            let mut pairs: Vec<_> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs
        }
        (sorted(&self.entries), sorted(&self.aliases))
    }

    /// Replaces contents from a snapshot (replica refresh).
    pub fn restore(&mut self, (entries, aliases): Snapshot) {
        self.entries = entries.into_iter().collect();
        self.aliases = aliases.into_iter().collect();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::PROP_ADDRESS;
    use wire::Value;

    fn db() -> ChDb {
        ChDb::new(vec![("cs".into(), "uw".into())])
    }

    fn name(s: &str) -> ThreePartName {
        ThreePartName::parse(s).expect("name")
    }

    #[test]
    fn add_set_lookup() {
        let mut db = db();
        db.add_entry(name("fiji:cs:uw")).expect("add");
        db.set_item(&name("fiji:cs:uw"), PROP_ADDRESS, Value::U32(3))
            .expect("set");
        let p = db
            .lookup(&name("fiji:cs:uw"), PROP_ADDRESS)
            .expect("lookup");
        assert_eq!(p.as_item().expect("item"), &Value::U32(3));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn wrong_domain_rejected() {
        let mut db = db();
        assert!(matches!(
            db.add_entry(name("x:ee:uw")),
            Err(ChError::WrongServer(_))
        ));
        assert!(matches!(
            db.lookup(&name("x:ee:uw"), PROP_ADDRESS),
            Err(ChError::WrongServer(_))
        ));
        assert!(!db.serves(&name("x:ee:uw")));
    }

    #[test]
    fn duplicate_entry_rejected() {
        let mut db = db();
        db.add_entry(name("a:cs:uw")).expect("add");
        assert!(matches!(
            db.add_entry(name("a:cs:uw")),
            Err(ChError::AlreadyExists(_))
        ));
    }

    #[test]
    fn delete_entry() {
        let mut db = db();
        db.add_entry(name("a:cs:uw")).expect("add");
        db.delete_entry(&name("a:cs:uw")).expect("delete");
        assert!(matches!(
            db.delete_entry(&name("a:cs:uw")),
            Err(ChError::NotFound(_))
        ));
        assert!(db.is_empty());
    }

    #[test]
    fn set_item_creates_entry_implicitly() {
        let mut db = db();
        db.set_item(&name("implicit:cs:uw"), PROP_ADDRESS, Value::U32(1))
            .expect("set");
        assert!(db.entry(&name("implicit:cs:uw")).is_ok());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut primary = db();
        primary
            .set_item(&name("a:cs:uw"), PROP_ADDRESS, Value::U32(1))
            .expect("set");
        primary
            .add_member(&name("g:cs:uw"), PropertyId(40), "a:cs:uw")
            .expect("add");
        let mut replica = db();
        replica.restore(primary.snapshot());
        assert_eq!(replica.len(), 2);
        assert_eq!(
            replica
                .lookup(&name("a:cs:uw"), PROP_ADDRESS)
                .expect("lookup"),
            primary
                .lookup(&name("a:cs:uw"), PROP_ADDRESS)
                .expect("lookup")
        );
    }

    #[test]
    fn missing_entry_vs_missing_property() {
        let mut db = db();
        db.add_entry(name("a:cs:uw")).expect("add");
        assert!(matches!(
            db.lookup(&name("b:cs:uw"), PROP_ADDRESS),
            Err(ChError::NotFound(_))
        ));
        assert!(matches!(
            db.lookup(&name("a:cs:uw"), PROP_ADDRESS),
            Err(ChError::NoSuchProperty(_))
        ));
    }
}

#[cfg(test)]
mod alias_tests {
    use super::*;
    use crate::property::PROP_ADDRESS;
    use wire::Value;

    fn db() -> ChDb {
        ChDb::new(vec![("cs".into(), "uw".into())])
    }

    fn name(s: &str) -> ThreePartName {
        ThreePartName::parse(s).expect("name")
    }

    #[test]
    fn alias_resolves_to_target_entry() {
        let mut db = db();
        db.set_item(&name("fiji:cs:uw"), PROP_ADDRESS, Value::U32(7))
            .expect("set");
        db.add_alias(name("mailhub:cs:uw"), name("fiji:cs:uw"))
            .expect("alias");
        let got = db
            .lookup(&name("mailhub:cs:uw"), PROP_ADDRESS)
            .expect("via alias");
        assert_eq!(got.as_item().expect("item"), &Value::U32(7));
        assert_eq!(*db.canonical(&name("mailhub:cs:uw")), name("fiji:cs:uw"));
    }

    #[test]
    fn alias_cannot_shadow_entry_or_chain() {
        let mut db = db();
        db.set_item(&name("fiji:cs:uw"), PROP_ADDRESS, Value::U32(7))
            .expect("set");
        assert!(db
            .add_alias(name("fiji:cs:uw"), name("june:cs:uw"))
            .is_err());
        db.add_alias(name("a:cs:uw"), name("fiji:cs:uw"))
            .expect("alias");
        assert!(
            db.add_alias(name("b:cs:uw"), name("a:cs:uw")).is_err(),
            "aliases must not chain"
        );
    }

    /// A write through an alias lands on the entry a read through it
    /// finds: no shadow entry under the alias's own name.
    #[test]
    fn writes_through_an_alias_reach_the_target_entry() {
        let mut db = db();
        let (hub, fiji) = (name("hub:cs:uw"), name("fiji:cs:uw"));
        db.set_item(&fiji, PROP_ADDRESS, Value::U32(7))
            .expect("set");
        db.add_alias(hub.clone(), fiji.clone()).expect("alias");
        db.set_item(&hub, PROP_ADDRESS, Value::U32(9))
            .expect("set via alias");
        db.add_member(&hub, PropertyId(40), "a:cs:uw")
            .expect("member via alias");
        assert_eq!(db.len(), 1, "no entry was created under the alias");
        for asked in [&hub, &fiji] {
            let got = db.lookup(asked, PROP_ADDRESS).expect("lookup");
            assert_eq!(got.as_item().expect("item"), &Value::U32(9), "{asked}");
            assert!(db.lookup(asked, PropertyId(40)).is_ok(), "{asked}");
        }
        assert!(matches!(
            db.add_entry(hub.clone()),
            Err(ChError::AlreadyExists(_))
        ));
        // An alias whose target does not exist yet creates the target.
        db.add_alias(name("lp:cs:uw"), name("printer:cs:uw"))
            .expect("alias");
        db.set_item(&name("lp:cs:uw"), PROP_ADDRESS, Value::U32(3))
            .expect("set via alias");
        assert!(db.entry(&name("printer:cs:uw")).is_ok());
        assert!(db.entry(&name("lp:cs:uw")).is_err());
    }

    /// `a -> b` exists; `b -> c` would make `a` resolve (one level) to `b`,
    /// which has no entry, for ever.
    #[test]
    fn an_alias_target_cannot_become_an_alias() {
        let mut db = db();
        db.set_item(&name("c:cs:uw"), PROP_ADDRESS, Value::U32(1))
            .expect("set");
        db.add_alias(name("a:cs:uw"), name("b:cs:uw"))
            .expect("alias to a target that does not exist yet");
        assert!(matches!(
            db.add_alias(name("b:cs:uw"), name("c:cs:uw")),
            Err(ChError::BadName(_))
        ));
        // `a` still means `b`: once `b` exists, `a` finds it.
        db.set_item(&name("b:cs:uw"), PROP_ADDRESS, Value::U32(2))
            .expect("set");
        let got = db.lookup(&name("a:cs:uw"), PROP_ADDRESS).expect("lookup");
        assert_eq!(got.as_item().expect("item"), &Value::U32(2));
    }

    #[test]
    fn a_snapshot_carries_the_aliases() {
        let mut primary = db();
        primary
            .set_item(&name("fiji:cs:uw"), PROP_ADDRESS, Value::U32(7))
            .expect("set");
        primary
            .add_alias(name("hub:cs:uw"), name("fiji:cs:uw"))
            .expect("alias");
        let mut replica = db();
        replica.restore(primary.snapshot());
        let got = replica
            .lookup(&name("hub:cs:uw"), PROP_ADDRESS)
            .expect("via alias on the replica");
        assert_eq!(got.as_item().expect("item"), &Value::U32(7));
        // A later snapshot without the alias takes it away again.
        replica.restore(db().snapshot());
        assert!(replica.lookup(&name("hub:cs:uw"), PROP_ADDRESS).is_err());
    }

    #[test]
    fn list_matches_literal_and_wildcard() {
        let mut db = db();
        for object in ["printer1", "printer2", "plotter"] {
            db.set_item(
                &name(&format!("{object}:cs:uw")),
                PROP_ADDRESS,
                Value::U32(1),
            )
            .expect("set");
        }
        db.add_alias(name("printer-alias:cs:uw"), name("printer1:cs:uw"))
            .expect("alias");
        let all = db.list("cs", "uw", "*");
        assert_eq!(all.len(), 3, "aliases are not enumerated");
        let printers = db.list("cs", "uw", "printer*");
        assert_eq!(printers.len(), 2);
        let exact = db.list("cs", "uw", "plotter");
        assert_eq!(exact.len(), 1);
        assert!(db.list("ee", "uw", "*").is_empty());
    }
}
