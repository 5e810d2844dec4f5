//! What crosses the fabric to and from the registration service: one
//! request struct per procedure, and a [`Resolution`] back from those that
//! resolve.
//!
//! Each is a [`wire::record!`], shaped as exactly the record
//! [`crate::RegClient`] built by hand before it was typed, field for field
//! and in the same order, so a call costs the bytes and the virtual time
//! it did. A caller that sends a tree is decoded into the same struct by
//! `from_value`, once, where the server reads it.

use crate::registry::Resolution;

/// `REGISTER`: a name to an owner, bound to a name service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// The owner.
    pub owner: String,
    /// The owner's signing key.
    pub key: u64,
    /// The name.
    pub name: String,
    /// The name service it is bound to.
    pub service: String,
}

/// `UPDATE`: a registered name re-bound, by its holder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Update {
    /// The holder.
    pub owner: String,
    /// The holder's signing key.
    pub key: u64,
    /// The name.
    pub name: String,
    /// The name service it is bound to from now on.
    pub service: String,
}

/// `TRANSFER`: a name handed on, and perhaps re-bound as it goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// The holder giving it up.
    pub owner: String,
    /// The holder's signing key.
    pub key: u64,
    /// The name.
    pub name: String,
    /// The new holder.
    pub to: String,
    /// The name service to re-bind it to, if any.
    pub rebind: Option<String>,
}

/// `RELEASE`: a registered name given up by its holder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Release {
    /// The holder.
    pub owner: String,
    /// The holder's signing key.
    pub key: u64,
    /// The name.
    pub name: String,
}

/// `RESOLVE`: a name to its collapsed chain head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolve {
    /// The name.
    pub name: String,
}

wire::record!(Register {
    owner,
    key,
    name,
    service
});
wire::record!(Update {
    owner,
    key,
    name,
    service
});
wire::record!(Transfer {
    owner,
    key,
    name,
    to,
    rebind
});
wire::record!(Release { owner, key, name });
wire::record!(Resolve { name });
wire::record!(Resolution {
    name,
    owner,
    base_owner,
    service,
    depth,
    walked
});

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{Message, Value, WireError, WireFormat, WireResult};

    /// `message` yields `by_hand`, states its length, and is what
    /// `decode` reads back from it.
    fn is_the_record_built_by_hand<T: Message + PartialEq + std::fmt::Debug>(
        message: &T,
        by_hand: &Value,
        decode: fn(&Value) -> WireResult<T>,
    ) {
        assert_eq!(&message.tree().into_owned(), by_hand);
        for format in [WireFormat::Xdr, WireFormat::Courier] {
            let bytes = format.encode(by_hand).expect("encodes");
            assert_eq!(message.encoded_len(format), Ok(bytes.len()), "{format}");
        }
        assert_eq!(decode(by_hand).as_ref(), Ok(message));
    }

    /// Each request is the record the client built by hand before it was
    /// typed — owner, key and name, then what the procedure adds — and
    /// the resolution the record the server did.
    #[test]
    fn every_message_is_the_record_built_by_hand() {
        let signed = |more: Vec<(&'static str, Value)>| {
            let mut fields = vec![
                ("owner", Value::str("alice")),
                ("key", Value::U64(0xA11CE)),
                ("name", Value::str("svc")),
            ];
            fields.extend(more);
            Value::record(fields)
        };
        let register = Register {
            owner: "alice".into(),
            key: 0xA11CE,
            name: "svc".into(),
            service: "BIND".into(),
        };
        let by_hand = signed(vec![("service", Value::str("BIND"))]);
        is_the_record_built_by_hand(&register, &by_hand, Register::from_value);
        let update = Update {
            owner: "alice".into(),
            key: 0xA11CE,
            name: "svc".into(),
            service: "Clearinghouse".into(),
        };
        let by_hand = signed(vec![("service", Value::str("Clearinghouse"))]);
        is_the_record_built_by_hand(&update, &by_hand, Update::from_value);
        for rebind in [Some("Clearinghouse"), None] {
            let transfer = Transfer {
                owner: "alice".into(),
                key: 0xA11CE,
                name: "svc".into(),
                to: "bob".into(),
                rebind: rebind.map(String::from),
            };
            let by_hand = signed(vec![
                ("to", Value::str("bob")),
                (
                    "rebind",
                    Value::Opt(rebind.map(|s| Box::new(Value::str(s)))),
                ),
            ]);
            is_the_record_built_by_hand(&transfer, &by_hand, Transfer::from_value);
        }
        let release = Release {
            owner: "alice".into(),
            key: 0xA11CE,
            name: "svc".into(),
        };
        is_the_record_built_by_hand(&release, &signed(vec![]), Release::from_value);
        let resolve = Resolve { name: "svc".into() };
        let by_hand = Value::record([("name", Value::str("svc"))]);
        is_the_record_built_by_hand(&resolve, &by_hand, Resolve::from_value);

        let resolution = Resolution {
            name: "svc".into(),
            owner: "bob".into(),
            base_owner: "alice".into(),
            service: "BIND".into(),
            depth: 1,
            walked: true,
        };
        let by_hand = Value::record([
            ("name", Value::str("svc")),
            ("owner", Value::str("bob")),
            ("base_owner", Value::str("alice")),
            ("service", Value::str("BIND")),
            ("depth", Value::U32(1)),
            ("walked", Value::Bool(true)),
        ]);
        is_the_record_built_by_hand(&resolution, &by_hand, Resolution::from_value);
    }

    /// A re-bind that is not an option is refused as a mismatch of kind,
    /// a missing field as missing.
    #[test]
    fn a_malformed_tree_is_refused() {
        let transfer = Value::record([
            ("owner", Value::str("alice")),
            ("key", Value::U64(1)),
            ("name", Value::str("svc")),
            ("to", Value::str("bob")),
            ("rebind", Value::str("BIND")),
        ]);
        let mismatch = WireError::TypeMismatch {
            expected: "opt",
            found: "str",
        };
        assert_eq!(Transfer::from_value(&transfer), Err(mismatch));
        assert_eq!(
            Register::from_value(&Value::record([("owner", Value::str("a"))])),
            Err(WireError::FieldMissing("key".into()))
        );
    }
}
