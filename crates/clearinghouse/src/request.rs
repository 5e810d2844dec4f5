//! The requests a Clearinghouse server serves, one struct per procedure.
//!
//! Each is shaped as exactly the record a client built by hand before it
//! was typed, field for field and in the same order, so a request costs
//! the bytes and the virtual time it did. Names and credentials are
//! shared strings: a client builds a request for reference-count bumps.
//! Each is a [`wire::record!`]: a caller that sends a tree is decoded into
//! the same struct by `from_value`, once, where the server reads it, and
//! a name in it that is not three parts is refused as the service's
//! failure.

use std::sync::Arc;

use wire::message::Field;
use wire::Value;

use crate::auth::Credentials;
use crate::name::ThreePartName;
use crate::property::PropertyId;

/// What every request carries first: who asks.
pub(crate) trait Request: Field + wire::Message {
    /// The caller's credentials.
    fn creds(&self) -> &Credentials;
}

/// `LOOKUP`: who asks, about which entry, for which property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// The caller's credentials.
    pub creds: Credentials,
    /// The entry.
    pub name: ThreePartName,
    /// The property.
    pub prop: PropertyId,
}

/// `SET_ITEM`: an item property's new value, carried as it is and
/// shared: the server keeps the caller's value, not a copy of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetItem {
    /// The caller's credentials.
    pub creds: Credentials,
    /// The entry (created if absent).
    pub name: ThreePartName,
    /// The property.
    pub prop: PropertyId,
    /// Its value.
    pub value: Arc<Value>,
}

/// `ADD_ENTRY` and `DELETE`: an entry, named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Named {
    /// The caller's credentials.
    pub creds: Credentials,
    /// The entry.
    pub name: ThreePartName,
}

/// `ADD_MEMBER`: one more member of a group property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddMember {
    /// The caller's credentials.
    pub creds: Credentials,
    /// The entry (created if absent).
    pub name: ThreePartName,
    /// The group property.
    pub prop: PropertyId,
    /// The member.
    pub member: String,
}

/// `ADD_ALIAS`: the alias, under `name`, and the entry it stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddAlias {
    /// The caller's credentials.
    pub creds: Credentials,
    /// The alias.
    pub name: ThreePartName,
    /// The entry it names.
    pub target: ThreePartName,
}

/// `LOOKUP_RUN`: one item property of each of a run of entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupRun {
    /// The caller's credentials.
    pub creds: Credentials,
    /// The run, in the order it is read.
    pub names: Vec<ThreePartName>,
    /// The item property.
    pub prop: PropertyId,
}

/// `LIST`: the entries of one domain whose object part matches a
/// pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct List {
    /// The caller's credentials.
    pub creds: Credentials,
    /// `x:<domain>:<organization>` as given: the entry-shaped name every
    /// request carries. The server reads the two parts below instead.
    pub name: String,
    /// The domain.
    pub domain: String,
    /// The organization.
    pub organization: String,
    /// A literal object part, or a prefix ending in `*`.
    pub pattern: String,
}

impl List {
    /// The request for `pattern` in `domain:organization`.
    pub fn new(creds: Credentials, domain: &str, organization: &str, pattern: &str) -> List {
        List {
            creds,
            name: format!("x:{domain}:{organization}"),
            domain: domain.to_string(),
            organization: organization.to_string(),
            pattern: pattern.to_string(),
        }
    }
}

wire::record!(Lookup { creds, name, prop });
wire::record!(SetItem {
    creds,
    name,
    prop,
    value
});
wire::record!(Named { creds, name });
wire::record!(AddMember {
    creds,
    name,
    prop,
    member
});
wire::record!(AddAlias {
    creds,
    name,
    target
});
wire::record!(LookupRun { creds, names, prop });
wire::record!(List {
    creds,
    name,
    domain,
    organization,
    pattern
});

macro_rules! requests {
    ($($request:ty),*) => {$(
        impl Request for $request {
            fn creds(&self) -> &Credentials {
                &self.creds
            }
        }
    )*};
}

requests!(Lookup, SetItem, Named, AddMember, AddAlias, LookupRun, List);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{PROP_ADDRESS, PROP_MEMBERS};
    use wire::{Message, WireError, WireFormat, WireResult};

    /// `request` yields `by_hand`, states its length, and is what
    /// `decode` reads back from it.
    fn is_the_record_built_by_hand<T: Message + PartialEq + std::fmt::Debug>(
        request: &T,
        by_hand: &Value,
        decode: fn(&Value) -> WireResult<T>,
    ) {
        assert_eq!(&request.tree().into_owned(), by_hand);
        for format in [WireFormat::Xdr, WireFormat::Courier] {
            let bytes = format.encode(by_hand).expect("encodes");
            assert_eq!(request.encoded_len(format), Ok(bytes.len()), "{format}");
        }
        assert_eq!(decode(by_hand).as_ref(), Ok(request));
    }

    /// Each request is the record the client built by hand before it was
    /// typed: the credentials and the name, then what the procedure adds.
    #[test]
    fn every_request_is_the_record_the_client_built_by_hand() {
        let tpn = |s: &str| ThreePartName::parse(s).expect("name");
        let creds = Credentials::new(tpn("hns:cs:uw"), 0xC0FFEE);
        let creds_tree = || creds.tree().into_owned();
        let base = |name: &str| vec![("creds", creds_tree()), ("name", Value::str(name))];
        let record = |mut fields: Vec<(&'static str, Value)>, more: Vec<(&'static str, Value)>| {
            fields.extend(more);
            Value::record(fields)
        };
        let lookup = Lookup {
            creds: creds.clone(),
            name: tpn("fiji:cs:uw"),
            prop: PROP_ADDRESS,
        };
        let by_hand = record(base("fiji:cs:uw"), vec![("prop", Value::U32(4))]);
        is_the_record_built_by_hand(&lookup, &by_hand, Lookup::from_value);

        let value = Value::record([("host", Value::str("fiji")), ("port", Value::U32(7))]);
        let set = SetItem {
            creds: creds.clone(),
            name: tpn("fiji:cs:uw"),
            prop: PROP_ADDRESS,
            value: Arc::new(value.clone()),
        };
        let by_hand = record(
            base("fiji:cs:uw"),
            vec![("prop", Value::U32(4)), ("value", value)],
        );
        is_the_record_built_by_hand(&set, &by_hand, SetItem::from_value);

        let named = Named {
            creds: creds.clone(),
            name: tpn("temp:cs:uw"),
        };
        let by_hand = Value::record(base("temp:cs:uw"));
        is_the_record_built_by_hand(&named, &by_hand, Named::from_value);

        let member = AddMember {
            creds: creds.clone(),
            name: tpn("staff:cs:uw"),
            prop: PROP_MEMBERS,
            member: "alice:cs:uw".into(),
        };
        let by_hand = record(
            base("staff:cs:uw"),
            vec![
                ("prop", Value::U32(40)),
                ("member", Value::str("alice:cs:uw")),
            ],
        );
        is_the_record_built_by_hand(&member, &by_hand, AddMember::from_value);

        let alias = AddAlias {
            creds: creds.clone(),
            name: tpn("lp:cs:uw"),
            target: tpn("printer:cs:uw"),
        };
        let by_hand = record(
            base("lp:cs:uw"),
            vec![("target", Value::str("printer:cs:uw"))],
        );
        is_the_record_built_by_hand(&alias, &by_hand, AddAlias::from_value);

        let run = LookupRun {
            creds: creds.clone(),
            names: vec![tpn("link1:cs:uw"), tpn("link2:cs:uw")],
            prop: PROP_ADDRESS,
        };
        let by_hand = Value::record([
            ("creds", creds_tree()),
            (
                "names",
                Value::List(vec![Value::str("link1:cs:uw"), Value::str("link2:cs:uw")]),
            ),
            ("prop", Value::U32(4)),
        ]);
        is_the_record_built_by_hand(&run, &by_hand, LookupRun::from_value);

        let list = List::new(creds.clone(), "cs", "UW", "printer*");
        let by_hand = Value::record([
            ("creds", creds_tree()),
            ("name", Value::str("x:cs:UW")),
            ("domain", Value::str("cs")),
            ("organization", Value::str("UW")),
            ("pattern", Value::str("printer*")),
        ]);
        is_the_record_built_by_hand(&list, &by_hand, List::from_value);
    }

    /// A name that is not three parts is refused where it is read, which
    /// the server answers as its failure; a missing or wrongly kinded
    /// field as the wire's.
    #[test]
    fn a_tree_with_a_bad_name_or_no_field_is_refused() {
        let creds = Credentials::new(ThreePartName::parse("hns:cs:uw").expect("name"), 1);
        let tree = |name: &str| {
            Value::record([
                ("creds", creds.tree().into_owned()),
                ("name", Value::str(name)),
                ("prop", Value::U32(4)),
            ])
        };
        let refused = Lookup::from_value(&tree("two:parts")).unwrap_err();
        assert!(matches!(refused, WireError::Refused(_)), "{refused}");
        assert!(matches!(
            hrpc::RpcError::from(refused),
            hrpc::RpcError::Service(_)
        ));
        assert_eq!(
            SetItem::from_value(&tree("fiji:cs:uw")),
            Err(WireError::FieldMissing("value".into()))
        );
        let names = Value::record([
            ("creds", creds.tree().into_owned()),
            (
                "names",
                Value::List(vec![Value::str("a:cs:uw"), Value::U32(1)]),
            ),
            ("prop", Value::U32(4)),
        ]);
        assert!(matches!(
            LookupRun::from_value(&names),
            Err(WireError::TypeMismatch { .. })
        ));
    }
}
