//! Per-access authentication.
//!
//! "Clearinghouse accesses are slow because each access is authenticated,
//! and virtually all data is retrieved from disk." The authenticator keeps
//! a key table; every server operation verifies the caller's credentials
//! and charges the calibrated authentication cost.

use std::collections::HashMap;

use parking_lot::RwLock;
use wire::message::{Shape, Shaped, Tree};

use crate::error::{ChError, ChResult};
use crate::name::ThreePartName;

/// Caller credentials: an identity and its secret key. A clone shares the
/// identity's text, so every request a client sends carries its own copy
/// for a reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credentials {
    /// The caller's Clearinghouse name.
    pub identity: ThreePartName,
    /// A shared-secret key.
    pub key: u64,
}

impl Credentials {
    /// Builds credentials.
    pub fn new(identity: ThreePartName, key: u64) -> Self {
        Credentials { identity, key }
    }

    /// Serializes to a wire value (for the procedures that still travel
    /// as trees).
    pub fn to_value(&self) -> wire::Value {
        self.shape(&Tree)
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &wire::Value) -> ChResult<Credentials> {
        let bad = |e: wire::WireError| ChError::BadName(e.to_string());
        Ok(Credentials {
            identity: ThreePartName::parse(v.str_field("identity").map_err(bad)?)?,
            key: v.field("key").and_then(wire::Value::as_u64).map_err(bad)?,
        })
    }
}

impl Shaped for Credentials {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("identity", s.str(self.identity.as_str())),
            ("key", s.u64(self.key)),
        ])
    }
}

/// The server-side key table.
#[derive(Debug, Default)]
pub struct Authenticator {
    keys: RwLock<HashMap<ThreePartName, u64>>,
}

impl Authenticator {
    /// Creates an empty authenticator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an identity's key.
    pub fn register(&self, identity: ThreePartName, key: u64) {
        self.keys.write().insert(identity, key);
    }

    /// Verifies credentials.
    pub fn verify(&self, creds: &Credentials) -> ChResult<()> {
        match self.keys.read().get(&creds.identity) {
            Some(&key) if key == creds.key => Ok(()),
            _ => Err(ChError::AuthFailed(creds.identity.to_string())),
        }
    }

    /// Number of registered identities.
    pub fn len(&self) -> usize {
        self.keys.read().len()
    }

    /// True if no identities are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn who() -> ThreePartName {
        ThreePartName::parse("hns:cs:uw").expect("name")
    }

    #[test]
    fn registered_key_verifies() {
        let auth = Authenticator::new();
        auth.register(who(), 0xBEEF);
        assert!(auth.verify(&Credentials::new(who(), 0xBEEF)).is_ok());
        assert_eq!(auth.len(), 1);
    }

    #[test]
    fn wrong_key_rejected() {
        let auth = Authenticator::new();
        auth.register(who(), 0xBEEF);
        assert!(matches!(
            auth.verify(&Credentials::new(who(), 0xDEAD)),
            Err(ChError::AuthFailed(_))
        ));
    }

    #[test]
    fn unknown_identity_rejected() {
        let auth = Authenticator::new();
        assert!(auth.verify(&Credentials::new(who(), 1)).is_err());
        assert!(auth.is_empty());
    }

    /// The parent's hand-built `to_value`, kept as the reference the
    /// shape is held to.
    #[test]
    fn credentials_are_the_record_built_by_hand() {
        use wire::{Message, Value, WireFormat};
        let c = Credentials::new(who(), u64::MAX);
        let by_hand = Value::record([
            ("identity", Value::str(c.identity.to_string())),
            ("key", Value::U64(c.key)),
        ]);
        assert_eq!(c.to_value(), by_hand);
        for format in [WireFormat::Xdr, WireFormat::Courier] {
            let bytes = format.encode(&by_hand).expect("encodes");
            assert_eq!(c.encoded_len(format), Ok(bytes.len()), "{format}");
        }
    }

    #[test]
    fn credentials_value_roundtrip() {
        let c = Credentials::new(who(), 42);
        assert_eq!(
            Credentials::from_value(&c.to_value()).expect("roundtrip"),
            c
        );
    }

    #[test]
    fn key_replacement_takes_effect() {
        let auth = Authenticator::new();
        auth.register(who(), 1);
        auth.register(who(), 2);
        assert!(auth.verify(&Credentials::new(who(), 1)).is_err());
        assert!(auth.verify(&Credentials::new(who(), 2)).is_ok());
    }
}
