//! What crosses the fabric to and from the registration service: one
//! request struct per procedure, and a [`Resolution`] back from those that
//! resolve.
//!
//! Each is shaped as exactly the record [`crate::RegClient`] built by
//! hand before it was typed, field for field and in the same order, so a
//! call costs the bytes and the virtual time it did. A caller that sends a
//! tree is decoded into the same struct by `from_value`, once, where the
//! server reads it.

use hrpc::{RpcError, RpcResult};
use wire::message::{Shape, Shaped};
use wire::Value;

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

/// The `(owner, key, name)` every request but `RESOLVE` starts with.
fn signed(v: &Value) -> RpcResult<(String, u64, String)> {
    Ok((
        v.str_field("owner")?.to_string(),
        v.field("key")?.as_u64()?,
        v.str_field("name")?.to_string(),
    ))
}

impl Register {
    /// Decodes an untyped caller's tree.
    pub fn from_value(v: &Value) -> RpcResult<Register> {
        let (owner, key, name) = signed(v)?;
        let service = v.str_field("service")?.to_string();
        Ok(Register {
            owner,
            key,
            name,
            service,
        })
    }
}

impl Update {
    /// Decodes an untyped caller's tree.
    pub fn from_value(v: &Value) -> RpcResult<Update> {
        let (owner, key, name) = signed(v)?;
        let service = v.str_field("service")?.to_string();
        Ok(Update {
            owner,
            key,
            name,
            service,
        })
    }
}

impl Transfer {
    /// Decodes an untyped caller's tree.
    pub fn from_value(v: &Value) -> RpcResult<Transfer> {
        let (owner, key, name) = signed(v)?;
        let to = v.str_field("to")?.to_string();
        let rebind = match v.field("rebind")? {
            Value::Opt(inner) => inner.as_deref().map(Value::as_str).transpose()?,
            other => {
                return Err(RpcError::Service(format!(
                    "rebind must be opt, got {}",
                    other.kind()
                )))
            }
        };
        Ok(Transfer {
            owner,
            key,
            name,
            to,
            rebind: rebind.map(str::to_string),
        })
    }
}

impl Release {
    /// Decodes an untyped caller's tree.
    pub fn from_value(v: &Value) -> RpcResult<Release> {
        let (owner, key, name) = signed(v)?;
        Ok(Release { owner, key, name })
    }
}

impl Resolve {
    /// Decodes an untyped caller's tree.
    pub fn from_value(v: &Value) -> RpcResult<Resolve> {
        Ok(Resolve {
            name: v.str_field("name")?.to_string(),
        })
    }
}

impl Shaped for Register {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("owner", s.str(&self.owner)),
            ("key", s.u64(self.key)),
            ("name", s.str(&self.name)),
            ("service", s.str(&self.service)),
        ])
    }
}

impl Shaped for Update {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("owner", s.str(&self.owner)),
            ("key", s.u64(self.key)),
            ("name", s.str(&self.name)),
            ("service", s.str(&self.service)),
        ])
    }
}

impl Shaped for Transfer {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("owner", s.str(&self.owner)),
            ("key", s.u64(self.key)),
            ("name", s.str(&self.name)),
            ("to", s.str(&self.to)),
            ("rebind", s.opt(self.rebind.as_deref().map(|r| s.str(r)))),
        ])
    }
}

impl Shaped for Release {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("owner", s.str(&self.owner)),
            ("key", s.u64(self.key)),
            ("name", s.str(&self.name)),
        ])
    }
}

impl Shaped for Resolve {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([("name", s.str(&self.name))])
    }
}

impl Resolution {
    /// Decodes the tree an untyped server replies with.
    pub fn from_value(v: &Value) -> RpcResult<Resolution> {
        Ok(Resolution {
            name: v.str_field("name")?.to_string(),
            owner: v.str_field("owner")?.to_string(),
            base_owner: v.str_field("base_owner")?.to_string(),
            service: v.str_field("service")?.to_string(),
            depth: v.u32_field("depth")?,
            walked: v.field("walked")?.as_bool()?,
        })
    }
}

impl Shaped for Resolution {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("name", s.str(&self.name)),
            ("owner", s.str(&self.owner)),
            ("base_owner", s.str(&self.base_owner)),
            ("service", s.str(&self.service)),
            ("depth", s.u32(self.depth)),
            ("walked", s.bool(self.walked)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{Message, WireFormat};

    /// `message` yields `by_hand`, states its length, and is what
    /// `decode` reads back from it.
    fn is_the_record_built_by_hand<T: Message + PartialEq + std::fmt::Debug>(
        message: &T,
        by_hand: &Value,
        decode: fn(&Value) -> RpcResult<T>,
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

    /// A re-bind that is not an option is refused as the server refused
    /// it; a missing field as the wire's.
    #[test]
    fn a_malformed_tree_is_refused() {
        let transfer = Value::record([
            ("owner", Value::str("alice")),
            ("key", Value::U64(1)),
            ("name", Value::str("svc")),
            ("to", Value::str("bob")),
            ("rebind", Value::str("BIND")),
        ]);
        assert_eq!(
            Transfer::from_value(&transfer),
            Err(RpcError::Service("rebind must be opt, got str".into()))
        );
        assert!(matches!(
            Register::from_value(&Value::record([("owner", Value::str("a"))])),
            Err(RpcError::Wire(wire::WireError::FieldMissing(f))) if f == "key"
        ));
    }
}
