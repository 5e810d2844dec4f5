//! The transfer chain: signed ownership hand-off links.
//!
//! Every registered name carries a base ownership record (the original
//! owner, written once at registration) plus zero or more *links*, one
//! per transfer. Link `seq` records that the holder after `seq - 1`
//! hand-offs passed the name on: `{seq, from, to, sig}`, where `sig` is
//! computed over the link contents with the *from* owner's key — only
//! the current holder can extend the chain. Resolution starts at the
//! base record and follows links `1, 2, 3, …` until one is missing; the
//! last link's `to` is the current holder.
//!
//! This module is pure data: signing, wire encoding, the naive walk
//! over an in-memory link list, and the cycle rule. Storage and RPC
//! live in [`crate::registry`].

use wire::Value;

use crate::error::{RegError, RegResult};

/// One transfer: the `seq`-th hand-off of a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferLink {
    /// Position in the chain, starting at 1 for the first transfer.
    pub seq: u32,
    /// The holder giving the name up (must match the chain head at
    /// `seq - 1`).
    pub from: String,
    /// The new holder.
    pub to: String,
    /// `sign_link` over the other three fields with `from`'s key.
    pub sig: u64,
}

/// Signs a link: an FNV-1a fold over the link's identifying fields and
/// the owner's key. Not cryptography — the simulation's stand-in for
/// the Clearinghouse's authenticated write path, strong enough that a
/// link written with the wrong key is detected on every walk.
pub fn sign_link(name: &str, seq: u32, from: &str, to: &str, key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(name.as_bytes());
    eat(&seq.to_le_bytes());
    eat(from.as_bytes());
    eat(&[0]);
    eat(to.as_bytes());
    eat(&key.to_le_bytes());
    h
}

impl TransferLink {
    /// Builds a link signed with the departing owner's key.
    pub fn signed(name: &str, seq: u32, from: &str, to: &str, key: u64) -> TransferLink {
        TransferLink {
            seq,
            from: from.to_string(),
            to: to.to_string(),
            sig: sign_link(name, seq, from, to, key),
        }
    }

    /// Checks the signature against the departing owner's key.
    pub fn verify(&self, name: &str, key: u64) -> bool {
        self.sig == sign_link(name, self.seq, &self.from, &self.to, key)
    }

    /// Encodes for the Clearinghouse property value.
    pub fn to_value(&self) -> Value {
        Value::record([
            ("seq", Value::U32(self.seq)),
            ("from", Value::str(&*self.from)),
            ("to", Value::str(&*self.to)),
            ("sig", Value::U64(self.sig)),
        ])
    }

    /// Decodes from a Clearinghouse property value.
    pub fn from_value(v: &Value) -> RegResult<TransferLink> {
        let bad = |e: wire::WireError| RegError::BadRecord(format!("link: {e}"));
        Ok(TransferLink {
            seq: v.u32_field("seq").map_err(bad)?,
            from: v.str_field("from").map_err(bad)?.to_string(),
            to: v.str_field("to").map_err(bad)?.to_string(),
            sig: v.field("sig").and_then(Value::as_u64).map_err(bad)?,
        })
    }
}

/// Every holder a chain has had, in order: the base owner, then each
/// link's `to`.
pub fn holders<'a>(base_owner: &'a str, links: &'a [TransferLink]) -> Vec<&'a str> {
    let mut out = Vec::with_capacity(links.len() + 1);
    out.push(base_owner);
    out.extend(links.iter().map(|l| l.to.as_str()));
    out
}

/// The current holder: the last link's `to`, or the base owner for an
/// untransferred name.
pub fn head_owner<'a>(base_owner: &'a str, links: &'a [TransferLink]) -> &'a str {
    links.last().map_or(base_owner, |l| l.to.as_str())
}

/// Checks chain integrity: contiguous `seq` from 1, each link's `from`
/// equal to the head before it. (Signature checks need the key table
/// and happen in the registry.)
pub fn check_linkage(name: &str, base_owner: &str, links: &[TransferLink]) -> RegResult<()> {
    let mut head = base_owner;
    for (i, link) in links.iter().enumerate() {
        let want_seq = i as u32 + 1;
        if link.seq != want_seq {
            return Err(RegError::BadRecord(format!(
                "{name}: link {} carries seq {}",
                want_seq, link.seq
            )));
        }
        if link.from != head {
            return Err(RegError::BadRecord(format!(
                "{name}: link {} from {} but head was {head}",
                link.seq, link.from
            )));
        }
        head = &link.to;
    }
    Ok(())
}

/// The cycle rule: a transfer may never hand a name back to *any*
/// previous holder (the base owner or any link's endpoint) — chains
/// only ever grow forward through fresh owners, so the collapsed head
/// is always well-defined.
pub fn would_cycle(base_owner: &str, links: &[TransferLink], to: &str) -> bool {
    holders(base_owner, links).contains(&to)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Vec<TransferLink> {
        vec![
            TransferLink::signed("n", 1, "alice", "bob", 11),
            TransferLink::signed("n", 2, "bob", "carol", 22),
        ]
    }

    #[test]
    fn sign_and_verify() {
        let l = TransferLink::signed("n", 1, "alice", "bob", 11);
        assert!(l.verify("n", 11));
        assert!(!l.verify("n", 12), "wrong key");
        assert!(!l.verify("m", 11), "wrong name");
        let mut tampered = l.clone();
        tampered.to = "mallory".into();
        assert!(!tampered.verify("n", 11), "tampered target");
    }

    #[test]
    fn signature_separates_fields() {
        // "ab" + "c" must not collide with "a" + "bc": the separator
        // byte between from and to keeps field boundaries in the hash.
        assert_ne!(
            sign_link("n", 1, "ab", "c", 7),
            sign_link("n", 1, "a", "bc", 7)
        );
    }

    #[test]
    fn wire_roundtrip() {
        let l = TransferLink::signed("n", 3, "x", "y", 9);
        assert_eq!(TransferLink::from_value(&l.to_value()).expect("decode"), l);
        assert!(TransferLink::from_value(&Value::U32(1)).is_err());
    }

    #[test]
    fn walk_helpers() {
        let links = chain();
        assert_eq!(holders("alice", &links), vec!["alice", "bob", "carol"]);
        assert_eq!(head_owner("alice", &links), "carol");
        assert_eq!(head_owner("alice", &[]), "alice");
        check_linkage("n", "alice", &links).expect("well linked");
    }

    #[test]
    fn linkage_violations_detected() {
        let mut links = chain();
        links[1].seq = 5;
        assert!(check_linkage("n", "alice", &links).is_err());
        let mut links = chain();
        links[1].from = "mallory".into();
        assert!(check_linkage("n", "alice", &links).is_err());
    }

    #[test]
    fn cycle_rule_covers_every_previous_holder() {
        let links = chain();
        for prev in ["alice", "bob", "carol"] {
            assert!(would_cycle("alice", &links, prev), "{prev}");
        }
        assert!(!would_cycle("alice", &links, "dave"));
    }
}
