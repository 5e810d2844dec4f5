//! The model of `regd`: per registered name, every holder it has had (the
//! base owner first) and the name service it is bound to, over a key
//! table of owners. No collapse cache, no probe, no walk: a name resolves
//! to its last holder because that is what the list says. Every change is
//! also written, as the registry writes it, into a [`ChModel`] — the base
//! record at `reg--<name>`, link `seq` at `reg--<name>--t<seq>` — so the
//! Clearinghouse the registry leaves can be checked entry for entry.

use std::collections::BTreeMap;

use clearinghouse::ThreePartName;
use regd::chain::{sign_link, TransferLink};
use regd::registry::{MAX_NAME_LEN, PROP_REG_LINK, PROP_REG_RECORD};
use regd::{RegError, RegResult};
use wire::{Message, Value};

use super::ch::ChModel;

/// What a resolution of a registered name must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Held {
    /// The current holder.
    pub owner: String,
    /// The holder it was registered to.
    pub base_owner: String,
    /// The name service it is bound to.
    pub service: String,
    /// Transfers since it was registered.
    pub depth: u32,
}

#[derive(Debug, Clone)]
struct Registration {
    /// Every holder, the base owner first and the current one last.
    holders: Vec<String>,
    service: String,
}

impl Registration {
    fn held(&self) -> Held {
        Held {
            owner: self.holders[self.holders.len() - 1].clone(),
            base_owner: self.holders[0].clone(),
            service: self.service.clone(),
            depth: self.holders.len() as u32 - 1,
        }
    }
}

/// What a registration frontend permits and answers, stated plainly.
#[derive(Debug, Clone)]
pub struct RegModel {
    domain: String,
    organization: String,
    keys: BTreeMap<String, u64>,
    names: BTreeMap<String, Registration>,
}

impl RegModel {
    /// No name registered; `owners` and their keys on file; records kept
    /// in `domain:organization`.
    pub fn new(domain: &str, organization: &str, owners: &[(String, u64)]) -> RegModel {
        RegModel {
            domain: domain.into(),
            organization: organization.into(),
            keys: owners.iter().cloned().collect(),
            names: BTreeMap::new(),
        }
    }

    /// A name that can become a context: 1 to [`MAX_NAME_LEN`] bytes of
    /// `[A-Za-z0-9_-]`, no `--` — and no upper case, which three-part
    /// names would lose.
    fn check_name(name: &str) -> RegResult<()> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(RegError::BadRecord(format!(
                "name `{name}` must be 1..={MAX_NAME_LEN} chars"
            )));
        }
        let keyable = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
        if name.contains("--") || !name.bytes().all(keyable) {
            return Err(RegError::BadRecord(format!(
                "name `{name}` may hold only [A-Za-z0-9_-] and no `--`"
            )));
        }
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            return Err(RegError::BadRecord(format!(
                "name `{name}` may not hold upper case"
            )));
        }
        Ok(())
    }

    fn key_of(&self, owner: &str) -> RegResult<u64> {
        (self.keys.get(owner).copied()).ok_or_else(|| RegError::UnknownOwner(owner.to_string()))
    }

    fn authorize(&self, owner: &str, key: u64) -> RegResult<()> {
        if self.key_of(owner)? != key {
            return Err(RegError::BadSignature(format!("key for {owner}")));
        }
        Ok(())
    }

    /// The registration of `name`, if `claimed` holds it.
    fn held_by(&self, name: &str, claimed: &str) -> RegResult<&Registration> {
        let registration = self.registration(name)?;
        let actual = &registration.holders[registration.holders.len() - 1];
        if actual != claimed {
            return Err(RegError::NotOwner {
                name: name.to_string(),
                claimed: claimed.to_string(),
                actual: actual.clone(),
            });
        }
        Ok(registration)
    }

    fn registration(&self, name: &str) -> RegResult<&Registration> {
        Self::check_name(name)?;
        (self.names.get(name)).ok_or_else(|| RegError::NotRegistered(name.to_string()))
    }

    fn entry(&self, object: &str) -> ThreePartName {
        ThreePartName::new(object, &self.domain, &self.organization).expect("a checked name")
    }

    /// Writes `name`'s base record, bound to `service`, into `ch`.
    fn write_base(&self, ch: &mut ChModel, name: &str, base_owner: &str, service: &str) {
        let key = self.keys[base_owner];
        let record = Value::record([
            ("owner", Value::str(base_owner)),
            ("service", Value::str(service)),
            (
                "sig",
                Value::U64(sign_link(name, 0, base_owner, base_owner, key)),
            ),
        ]);
        let base = self.entry(&format!("reg--{name}"));
        ch.set_item(&base, PROP_REG_RECORD, record).expect("served");
    }

    /// Registers `name` to `owner`, bound to `service`.
    pub fn register(
        &mut self,
        ch: &mut ChModel,
        owner: &str,
        key: u64,
        name: &str,
        service: &str,
    ) -> RegResult<Held> {
        Self::check_name(name)?;
        self.authorize(owner, key)?;
        if self.names.contains_key(name) {
            return Err(RegError::AlreadyRegistered(name.to_string()));
        }
        self.write_base(ch, name, owner, service);
        let registration = Registration {
            holders: vec![owner.to_string()],
            service: service.to_string(),
        };
        let held = registration.held();
        self.names.insert(name.to_string(), registration);
        Ok(held)
    }

    /// Re-binds `name`, which `owner` holds, to `service`.
    pub fn update(
        &mut self,
        ch: &mut ChModel,
        owner: &str,
        key: u64,
        name: &str,
        service: &str,
    ) -> RegResult<()> {
        self.authorize(owner, key)?;
        let base_owner = self.held_by(name, owner)?.holders[0].clone();
        self.write_base(ch, name, &base_owner, service);
        if let Some(registration) = self.names.get_mut(name) {
            registration.service = service.to_string();
        }
        Ok(())
    }

    /// Hands `name` from `from` to `to`, a holder it has never had, and
    /// re-binds it if asked.
    pub fn transfer(
        &mut self,
        ch: &mut ChModel,
        from: &str,
        key: u64,
        name: &str,
        to: &str,
        rebind: Option<&str>,
    ) -> RegResult<Held> {
        self.authorize(from, key)?;
        self.key_of(to)?;
        let registration = self.held_by(name, from)?;
        if registration.holders.iter().any(|h| h == to) {
            return Err(RegError::CycleRejected {
                name: name.to_string(),
                owner: to.to_string(),
            });
        }
        let (seq, base_owner) = (
            registration.holders.len() as u32,
            registration.holders[0].clone(),
        );
        let link = TransferLink::signed(name, seq, from, to, key)
            .tree()
            .into_owned();
        let entry = self.entry(&format!("reg--{name}--t{seq}"));
        ch.set_item(&entry, PROP_REG_LINK, link).expect("served");
        if let Some(service) = rebind {
            self.write_base(ch, name, &base_owner, service);
        }
        let registration = self.names.get_mut(name).expect("held, so registered");
        registration.holders.push(to.to_string());
        if let Some(service) = rebind {
            registration.service = service.to_string();
        }
        Ok(registration.held())
    }

    /// Gives up `name`, which `owner` holds: its base record and every
    /// link go.
    pub fn release(
        &mut self,
        ch: &mut ChModel,
        owner: &str,
        key: u64,
        name: &str,
    ) -> RegResult<()> {
        self.authorize(owner, key)?;
        let depth = self.held_by(name, owner)?.holders.len() - 1;
        ch.delete(&self.entry(&format!("reg--{name}")))
            .expect("registered");
        for seq in 1..=depth {
            let link = self.entry(&format!("reg--{name}--t{seq}"));
            ch.delete(&link).expect("linked");
        }
        self.names.remove(name);
        Ok(())
    }

    /// Who holds `name`, and what it is bound to.
    pub fn resolve(&self, name: &str) -> RegResult<Held> {
        Ok(self.registration(name)?.held())
    }
}
