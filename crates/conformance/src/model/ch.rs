//! The model of a Clearinghouse database: entries by three-part name, each
//! a map from property number to property, and aliases by name. No hash
//! maps and no borrowed probes: each rule of `ChDb` is stated once, where
//! the operation it governs is, and an alias is followed one level
//! wherever a request names one — except by `delete`.

use std::collections::{BTreeMap, BTreeSet};

use clearinghouse::error::{ChError, ChResult};
use clearinghouse::property::{Entry, Property, PropertyId};
use clearinghouse::ThreePartName;
use wire::Value;

/// One entry's properties.
type Properties = BTreeMap<PropertyId, Property>;

/// Every entry and every `(alias, target)`, as `ChDb::snapshot` gives them.
pub type Snapshot = (
    Vec<(ThreePartName, Entry)>,
    Vec<(ThreePartName, ThreePartName)>,
);

/// What a Clearinghouse server holds and answers, stated plainly.
#[derive(Debug, Clone, Default)]
pub struct ChModel {
    /// `(domain, organization)` pairs served, lowercase.
    domains: BTreeSet<(String, String)>,
    entries: BTreeMap<ThreePartName, Properties>,
    /// Alias → the name it stands for.
    aliases: BTreeMap<ThreePartName, ThreePartName>,
}

impl ChModel {
    /// An empty database serving `domain:organization`.
    pub fn new(domain: &str, organization: &str) -> ChModel {
        let served = (
            domain.to_ascii_lowercase(),
            organization.to_ascii_lowercase(),
        );
        ChModel {
            domains: [served].into(),
            ..ChModel::default()
        }
    }

    /// A name outside the served domains is refused before anything else.
    fn served(&self, name: &ThreePartName) -> ChResult<()> {
        let domain = (name.domain().to_string(), name.organization().to_string());
        if self.domains.contains(&domain) {
            Ok(())
        } else {
            Err(ChError::WrongServer(format!("{}:{}", domain.0, domain.1)))
        }
    }

    /// The name an entry is stored under: an alias's target, else itself.
    fn canonical(&self, name: &ThreePartName) -> ThreePartName {
        self.aliases.get(name).unwrap_or(name).clone()
    }

    /// Creates an empty entry (the target's, for an alias) if there is none.
    pub fn add_entry(&mut self, name: &ThreePartName) -> ChResult<()> {
        self.served(name)?;
        let canonical = self.canonical(name);
        if self.entries.contains_key(&canonical) {
            return Err(ChError::AlreadyExists(name.to_string()));
        }
        self.entries.insert(canonical, Properties::new());
        Ok(())
    }

    /// Deletes the entry stored under `name` itself (an alias is not
    /// followed).
    pub fn delete(&mut self, name: &ThreePartName) -> ChResult<()> {
        self.served(name)?;
        match self.entries.remove(name) {
            Some(_) => Ok(()),
            None => Err(ChError::NotFound(name.to_string())),
        }
    }

    /// Sets an item property of the entry `name` stands for, creating it.
    pub fn set_item(
        &mut self,
        name: &ThreePartName,
        prop: PropertyId,
        value: Value,
    ) -> ChResult<()> {
        self.served(name)?;
        let entry = self.entries.entry(self.canonical(name)).or_default();
        entry.insert(prop, Property::Item(value.into()));
        Ok(())
    }

    /// Adds a member to a group property of the entry `name` stands for,
    /// creating both; an item property of that number refuses.
    pub fn add_member(
        &mut self,
        name: &ThreePartName,
        prop: PropertyId,
        member: &str,
    ) -> ChResult<()> {
        self.served(name)?;
        let entry = self.entries.entry(self.canonical(name)).or_default();
        match entry
            .entry(prop)
            .or_insert_with(|| Property::Group(BTreeSet::new()))
        {
            Property::Group(members) => {
                members.insert(member.to_string());
                Ok(())
            }
            Property::Item(_) => Err(ChError::WrongPropertyKind),
        }
    }

    /// Makes `alias` stand for `target`: both served, no entry under the
    /// alias, and no alias one step from another.
    pub fn add_alias(&mut self, alias: &ThreePartName, target: &ThreePartName) -> ChResult<()> {
        self.served(alias)?;
        self.served(target)?;
        if self.entries.contains_key(alias) {
            return Err(ChError::AlreadyExists(alias.to_string()));
        }
        if self.aliases.contains_key(target) {
            return Err(ChError::BadName(format!(
                "alias target {target} is itself an alias"
            )));
        }
        if self.aliases.values().any(|t| t == alias) {
            return Err(ChError::BadName(format!(
                "{alias} is the target of an alias"
            )));
        }
        self.aliases.insert(alias.clone(), target.clone());
        Ok(())
    }

    /// One property of the entry `name` stands for.
    pub fn lookup(&self, name: &ThreePartName, prop: PropertyId) -> ChResult<Property> {
        self.served(name)?;
        let entry = (self.entries.get(&self.canonical(name)))
            .ok_or_else(|| ChError::NotFound(name.to_string()))?;
        entry
            .get(&prop)
            .cloned()
            .ok_or(ChError::NoSuchProperty(prop.0))
    }

    /// The item property `prop` of each of `names` up to the first that
    /// has no entry; any other refusal refuses the run.
    pub fn lookup_run(&self, names: &[ThreePartName], prop: PropertyId) -> ChResult<Vec<Value>> {
        let mut items = Vec::new();
        for name in names {
            match self.lookup(name, prop) {
                Ok(property) => items.push(property.as_item()?.clone()),
                Err(ChError::NotFound(_)) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(items)
    }

    /// The names entries are stored under in `domain:organization` whose
    /// object part is `pattern`, or starts with it less a final `*`,
    /// letters compared in lowercase; in name order.
    pub fn list(&self, domain: &str, organization: &str, pattern: &str) -> Vec<ThreePartName> {
        let pattern = pattern.to_ascii_lowercase();
        let (domain, organization) = (
            domain.to_ascii_lowercase(),
            organization.to_ascii_lowercase(),
        );
        let matches = |object: &str| match pattern.strip_suffix('*') {
            Some(prefix) => object.starts_with(prefix),
            None => object == pattern,
        };
        (self.entries.keys())
            .filter(|n| n.domain() == domain && n.organization() == organization)
            .filter(|n| matches(n.object()))
            .cloned()
            .collect()
    }

    /// Every entry and every `(alias, target)`, each in name order: what
    /// `ChDb::snapshot` must give.
    pub fn snapshot(&self) -> Snapshot {
        let entry = |properties: &Properties| {
            let mut entry = Entry::new();
            for (prop, property) in properties {
                match property {
                    Property::Item(value) => entry.set_item(*prop, value.clone()),
                    Property::Group(members) => {
                        for member in members {
                            entry
                                .add_member(*prop, member.as_str())
                                .expect("a group takes members");
                        }
                    }
                }
            }
            entry
        };
        let entries = self.entries.iter().map(|(n, p)| (n.clone(), entry(p)));
        let aliases = self.aliases.iter().map(|(a, t)| (a.clone(), t.clone()));
        (entries.collect(), aliases.collect())
    }
}
