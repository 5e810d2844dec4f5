//! Property lists.
//!
//! Each Clearinghouse entry carries a set of numbered properties; a
//! property is either an *item* (an opaque value) or a *group* (a set of
//! names). Well-known property numbers let heterogeneous clients agree on
//! meaning.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use wire::message::{Shape, Shaped, Tree};
use wire::Value;

use crate::error::{ChError, ChResult};

/// A property number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropertyId(pub u32);

/// Well-known property: network address of a host entry.
pub const PROP_ADDRESS: PropertyId = PropertyId(4);
/// Well-known property: port of a service entry.
pub const PROP_SERVICE_PORT: PropertyId = PropertyId(5);
/// Well-known property: service program number.
pub const PROP_PROGRAM: PropertyId = PropertyId(6);
/// Well-known property: a user's mailbox location.
pub const PROP_MAILBOX: PropertyId = PropertyId(31);
/// Well-known property: members of a distribution list.
pub const PROP_MEMBERS: PropertyId = PropertyId(40);
/// Well-known property: file service location.
pub const PROP_FILE_SERVICE: PropertyId = PropertyId(50);

/// A property value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Property {
    /// An item property: one opaque value.
    Item(Value),
    /// A group property: a set of names.
    Group(BTreeSet<String>),
}

impl Property {
    /// Extracts an item value.
    pub fn as_item(&self) -> ChResult<&Value> {
        match self {
            Property::Item(v) => Ok(v),
            Property::Group(_) => Err(ChError::WrongPropertyKind),
        }
    }

    /// Takes an item value out.
    pub fn into_item(self) -> ChResult<Value> {
        match self {
            Property::Item(v) => Ok(v),
            Property::Group(_) => Err(ChError::WrongPropertyKind),
        }
    }

    /// Extracts a group.
    pub fn as_group(&self) -> ChResult<&BTreeSet<String>> {
        match self {
            Property::Group(g) => Ok(g),
            Property::Item(_) => Err(ChError::WrongPropertyKind),
        }
    }

    /// Serializes to a wire value.
    pub fn to_value(&self) -> Value {
        self.shape(&Tree)
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> ChResult<Property> {
        let bad = |e: wire::WireError| ChError::BadName(e.to_string());
        match v.u32_field("kind").map_err(bad)? {
            0 => Ok(Property::Item(v.field("value").map_err(bad)?.clone())),
            1 => {
                let members = v.field("members").and_then(Value::as_list).map_err(bad)?;
                let names = members.iter().map(|m| m.as_str().map(str::to_string));
                Ok(Property::Group(
                    names.collect::<Result<_, _>>().map_err(bad)?,
                ))
            }
            k => Err(ChError::BadName(format!("bad property kind {k}"))),
        }
    }
}

/// `LOOKUP`'s reply: an item carries its value as it is.
impl Shaped for Property {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        match self {
            Property::Item(v) => s.record([("kind", s.u32(0)), ("value", s.value(v))]),
            Property::Group(set) => s.record([
                ("kind", s.u32(1)),
                ("members", s.list(set.iter(), |m| s.str(m))),
            ]),
        }
    }
}

/// One Clearinghouse entry: its property list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Entry {
    properties: BTreeMap<PropertyId, Property>,
}

impl Entry {
    /// Creates an empty entry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an item property.
    pub fn set_item(&mut self, id: PropertyId, value: Value) {
        self.properties.insert(id, Property::Item(value));
    }

    /// Adds a member to a group property, creating it if needed.
    ///
    /// Returns an error if the property exists but is an item.
    pub fn add_member(&mut self, id: PropertyId, member: impl Into<String>) -> ChResult<()> {
        match self
            .properties
            .entry(id)
            .or_insert_with(|| Property::Group(BTreeSet::new()))
        {
            Property::Group(set) => {
                set.insert(member.into());
                Ok(())
            }
            Property::Item(_) => Err(ChError::WrongPropertyKind),
        }
    }

    /// Reads a property.
    pub fn get(&self, id: PropertyId) -> ChResult<&Property> {
        self.properties
            .get(&id)
            .ok_or(ChError::NoSuchProperty(id.0))
    }

    /// Removes a property; returns whether it existed.
    pub fn remove(&mut self, id: PropertyId) -> bool {
        self.properties.remove(&id).is_some()
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.properties.len()
    }

    /// True when no properties are set.
    pub fn is_empty(&self) -> bool {
        self.properties.is_empty()
    }

    /// Serializes to a wire value.
    pub fn to_value(&self) -> Value {
        Value::List(
            self.properties
                .iter()
                .map(|(id, p)| match p {
                    Property::Item(v) => Value::record([
                        ("id", Value::U32(id.0)),
                        ("kind", Value::U32(0)),
                        ("value", v.clone()),
                    ]),
                    Property::Group(set) => Value::record([
                        ("id", Value::U32(id.0)),
                        ("kind", Value::U32(1)),
                        (
                            "members",
                            Value::List(set.iter().map(|m| Value::str(m.clone())).collect()),
                        ),
                    ]),
                })
                .collect(),
        )
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> ChResult<Entry> {
        let bad = |e: wire::WireError| ChError::BadName(e.to_string());
        let mut entry = Entry::new();
        for item in v.as_list().map_err(bad)? {
            let id = PropertyId(item.u32_field("id").map_err(bad)?);
            match item.u32_field("kind").map_err(bad)? {
                0 => entry.set_item(id, item.field("value").map_err(bad)?.clone()),
                1 => {
                    for m in item
                        .field("members")
                        .and_then(Value::as_list)
                        .map_err(bad)?
                    {
                        entry.add_member(id, m.as_str().map_err(bad)?)?;
                    }
                    // Preserve empty groups.
                    entry
                        .properties
                        .entry(id)
                        .or_insert_with(|| Property::Group(BTreeSet::new()));
                }
                k => return Err(ChError::BadName(format!("bad property kind {k}"))),
            }
        }
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_properties_roundtrip() {
        let mut e = Entry::new();
        e.set_item(PROP_ADDRESS, Value::U32(7));
        assert_eq!(
            e.get(PROP_ADDRESS).expect("get").as_item().expect("item"),
            &Value::U32(7)
        );
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
    }

    #[test]
    fn group_properties_collect_members() {
        let mut e = Entry::new();
        e.add_member(PROP_MEMBERS, "alice:cs:uw").expect("add");
        e.add_member(PROP_MEMBERS, "bob:cs:uw").expect("add");
        e.add_member(PROP_MEMBERS, "alice:cs:uw").expect("dedup");
        let group = e.get(PROP_MEMBERS).expect("get").as_group().expect("group");
        assert_eq!(group.len(), 2);
    }

    #[test]
    fn kind_confusion_rejected() {
        let mut e = Entry::new();
        e.set_item(PROP_ADDRESS, Value::U32(1));
        assert_eq!(
            e.add_member(PROP_ADDRESS, "x"),
            Err(ChError::WrongPropertyKind)
        );
        e.add_member(PROP_MEMBERS, "x").expect("add");
        assert_eq!(
            e.get(PROP_MEMBERS).expect("get").as_item(),
            Err(ChError::WrongPropertyKind)
        );
    }

    #[test]
    fn missing_property_reported() {
        let e = Entry::new();
        assert_eq!(e.get(PROP_ADDRESS), Err(ChError::NoSuchProperty(4)));
    }

    #[test]
    fn remove_property() {
        let mut e = Entry::new();
        e.set_item(PROP_ADDRESS, Value::U32(1));
        assert!(e.remove(PROP_ADDRESS));
        assert!(!e.remove(PROP_ADDRESS));
        assert!(e.is_empty());
    }

    /// The parent's hand-built `property_to_value`, kept as the reference
    /// the shape is held to.
    #[test]
    fn a_property_is_the_record_built_by_hand() {
        use wire::{Message, WireFormat};
        let item = Property::Item(Value::record([("host", Value::str("fiji"))]));
        let group = Property::Group(["a".to_string(), "b".to_string()].into_iter().collect());
        for p in [item, group] {
            let by_hand = match &p {
                Property::Item(v) => Value::record([("kind", Value::U32(0)), ("value", v.clone())]),
                Property::Group(set) => Value::record([
                    ("kind", Value::U32(1)),
                    (
                        "members",
                        Value::List(set.iter().map(|m| Value::str(m.clone())).collect()),
                    ),
                ]),
            };
            assert_eq!(p.to_value(), by_hand);
            for format in [WireFormat::Xdr, WireFormat::Courier] {
                let bytes = format.encode(&by_hand).expect("encodes");
                assert_eq!(p.encoded_len(format), Ok(bytes.len()), "{format}");
            }
            assert_eq!(Property::from_value(&by_hand), Ok(p));
        }
        let bad_kind = Value::record([("kind", Value::U32(2))]);
        assert!(Property::from_value(&bad_kind).is_err());
        assert!(Property::from_value(&Value::Void).is_err());
    }

    #[test]
    fn value_roundtrip() {
        let mut e = Entry::new();
        e.set_item(PROP_ADDRESS, Value::U32(9));
        e.set_item(PROP_SERVICE_PORT, Value::U32(2049));
        e.add_member(PROP_MEMBERS, "alice:cs:uw").expect("add");
        let v = e.to_value();
        assert_eq!(Entry::from_value(&v).expect("roundtrip"), e);
    }

    #[test]
    fn malformed_value_rejected() {
        assert!(Entry::from_value(&Value::U32(1)).is_err());
        let bad_kind = Value::List(vec![Value::record([
            ("id", Value::U32(1)),
            ("kind", Value::U32(9)),
        ])]);
        assert!(Entry::from_value(&bad_kind).is_err());
    }
}
