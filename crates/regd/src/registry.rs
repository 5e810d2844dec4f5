//! The registry: ownership records and transfer chains stored in the
//! Clearinghouse, with collapsed-head resolution.
//!
//! # Storage layout
//!
//! A registered name `n` in domain `d:o` occupies one *base* entry
//! `reg--n:d:o` whose [`PROP_REG_RECORD`] item holds `{owner, service,
//! sig}` — the original owner (immutable for the life of the
//! registration), the name service the name is currently bound to, and
//! the registration signature. Each transfer appends one *link* entry
//! `reg--n--t<seq>:d:o` whose [`PROP_REG_LINK`] item holds a
//! [`TransferLink`] signed by the departing owner.
//!
//! Every chain mutation is **one** Clearinghouse `set_item` RPC: the
//! link write for a transfer, the whole-record rewrite for a re-bind.
//! A crash or partition mid-operation therefore leaves the chain either
//! fully linked or fully absent — there is no multi-write window in
//! which a dangling half-link can exist (the chaos suite pins this).
//!
//! # Resolution and the collapse cache
//!
//! A cold resolve reads the base record and walks the chain in
//! coalesced runs of `LINK_BATCH` (16) links per Clearinghouse RPC —
//! `1 + ceil((depth + 1) / LINK_BATCH)` reads for a chain of `depth`
//! links (the short final run confirms the head). The result is cached
//! as the *collapsed head*. A warm resolve issues exactly
//! **one** read: it probes link `depth + 1`. A miss revalidates the
//! cached head in a single hop regardless of chain length; a hit means
//! some other frontend extended the chain, and the resolver walks
//! forward incrementally from there (chain-aware invalidation).
//! Transfers through this registry extend the cache in place, so the
//! probe stays a miss on the hot path.
//!
//! The cache holds at most [`simnet::ttl::CAPACITY`] heads, the bound of
//! every cache in the tower. A head is re-derivable by one chain walk, so
//! a new name finding the cache full simply empties it
//! (`regd/collapse_evictions` counts the heads dropped, `regd/chain_walks`
//! shows what re-deriving them cost).
//!
//! Reads ride [`ChClient`]'s replica failover; writes stay primary and
//! surface `RpcError::HostUnreachable` typed when the primary is
//! partitioned away — degraded write availability is loud, never
//! silent loss. As with every loosely-consistent Clearinghouse read, a
//! failed-over resolve may observe pre-propagation state.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use simnet::topology::HostId;
use simnet::world::World;

use clearinghouse::auth::Credentials;
use clearinghouse::client::ChClient;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::PropertyId;
use hns_core::name::{Context, NameMapping};
use hns_core::service::Hns;
use hrpc::error::RpcError;
use hrpc::net::RpcNet;
use hrpc::HrpcBinding;
use simnet::obs::{LazyCounter, LazyHistogram};
use wire::{Message, Value};

use crate::chain::{self, TransferLink};
use crate::error::{RegError, RegResult};

/// Well-known property: a name's base ownership record.
pub const PROP_REG_RECORD: PropertyId = PropertyId(70);
/// Well-known property: one transfer-chain link.
pub const PROP_REG_LINK: PropertyId = PropertyId(71);

/// Longest accepted registered-name label (the Clearinghouse caps
/// object parts at 64 bytes and we prepend `reg--`/`--t<seq>`).
pub const MAX_NAME_LEN: usize = 40;

/// Chain links requested per coalesced Clearinghouse read during a
/// walk ([`Registry::resolve`] cold path and chain extensions).
const LINK_BATCH: u32 = 16;

/// The base ownership record stored at `reg--<name>`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BaseRecord {
    owner: String,
    service: String,
    sig: u64,
}

impl BaseRecord {
    /// The record of `owner`'s registration, bound to `service`.
    fn value(owner: &str, service: &str, sig: u64) -> Value {
        Value::record([
            ("owner", Value::str(owner)),
            ("service", Value::str(service)),
            ("sig", Value::U64(sig)),
        ])
    }

    fn from_value(v: &Value) -> RegResult<BaseRecord> {
        let bad = |e: wire::WireError| RegError::BadRecord(format!("base record: {e}"));
        Ok(BaseRecord {
            owner: v.str_field("owner").map_err(bad)?.to_string(),
            service: v.str_field("service").map_err(bad)?.to_string(),
            sig: v.field("sig").and_then(Value::as_u64).map_err(bad)?,
        })
    }
}

/// A cached collapsed head: everything a warm resolve needs plus the
/// holder list the cycle rule checks, and the two entries it touches —
/// built when the head changes, not on every operation. The cache holds
/// it shared, so a warm resolve copies no string.
#[derive(Debug, Clone)]
struct CollapsedHead {
    base_owner: String,
    base_sig: u64,
    service: String,
    owner: String,
    depth: u32,
    holders: Vec<String>,
    /// `reg--<name>`, where the base record lives.
    base_entry: ThreePartName,
    /// `reg--<name>--t<depth + 1>`, the link a warm resolve probes for.
    probe: ThreePartName,
}

/// What a name resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The registered name.
    pub name: String,
    /// The current holder (the collapsed chain head).
    pub owner: String,
    /// The original owner from the base record.
    pub base_owner: String,
    /// Name service the name is bound to.
    pub service: String,
    /// Number of links in the chain.
    pub depth: u32,
    /// True when this resolution walked the chain (cold or extended);
    /// false for a single-hop collapse-cache hit.
    pub walked: bool,
}

#[derive(Default)]
struct RegMetrics {
    registers: LazyCounter,
    updates: LazyCounter,
    transfers: LazyCounter,
    releases: LazyCounter,
    resolves: LazyCounter,
    chain_walks: LazyCounter,
    chain_extends: LazyCounter,
    collapse_hits: LazyCounter,
    collapse_evictions: LazyCounter,
    cycle_rejections: LazyCounter,
    write_unreachable: LazyCounter,
    link_gc: LazyCounter,
    chain_depth: LazyHistogram,
}

/// The registration frontend. One instance owns the write path for its
/// domain; read-only instances (resolvers) may point at the same
/// Clearinghouse data.
pub struct Registry {
    ch: ChClient,
    world: Arc<World>,
    domain: String,
    organization: String,
    owners: RwLock<HashMap<String, u64>>,
    collapse: RwLock<HashMap<String, Arc<CollapsedHead>>>,
    rebinder: Option<Arc<Hns>>,
    metrics: RegMetrics,
}

impl Registry {
    /// Creates a registry on `host` writing to the Clearinghouse at
    /// `primary`, managing names in `domain:organization`.
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        primary: HrpcBinding,
        creds: Credentials,
        domain: impl Into<String>,
        organization: impl Into<String>,
    ) -> Registry {
        let world = Arc::clone(net.world());
        Registry {
            ch: ChClient::new(net, host, primary, creds),
            world,
            domain: domain.into(),
            organization: organization.into(),
            owners: RwLock::new(HashMap::new()),
            collapse: RwLock::new(HashMap::new()),
            rebinder: None,
            metrics: RegMetrics::default(),
        }
    }

    /// Installs Clearinghouse replica bindings that *reads* fail over
    /// to; writes always stay on the primary.
    pub fn set_read_fallbacks(&mut self, fallbacks: Vec<HrpcBinding>) {
        self.ch.set_read_fallbacks(fallbacks);
    }

    /// Installs the HNS instance through which registrations and
    /// re-binds propagate into the meta zone (bindns dynamic update):
    /// each registered name becomes a context mapped to its bound name
    /// service, so a `FindNSM` after a re-binding transfer follows the
    /// chain transparently.
    pub fn set_rebinder(&mut self, hns: Option<Arc<Hns>>) {
        self.rebinder = hns;
    }

    /// Registers an owner identity and its signing key.
    pub fn register_owner(&self, owner: impl Into<String>, key: u64) {
        self.owners.write().insert(owner.into(), key);
    }

    fn bump(&self, c: &LazyCounter, name: &'static str) {
        c.get(self.world.metrics(), "regd", name).inc();
    }

    fn key_of(&self, owner: &str) -> RegResult<u64> {
        self.owners
            .read()
            .get(owner)
            .copied()
            .ok_or_else(|| RegError::UnknownOwner(owner.to_string()))
    }

    fn authorize(&self, owner: &str, key: u64) -> RegResult<u64> {
        let on_file = self.key_of(owner)?;
        if on_file != key {
            return Err(RegError::BadSignature(format!("key for {owner}")));
        }
        Ok(key)
    }

    fn check_name(name: &str) -> RegResult<()> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(RegError::BadRecord(format!(
                "name `{name}` must be 1..={MAX_NAME_LEN} chars"
            )));
        }
        // A registered name becomes a context, so it must have a meta key
        // of its own: `my.svc` once rebound `my-svc`'s context record.
        if name.contains("--") || !hns_core::meta::keyable(name) {
            return Err(RegError::BadRecord(format!(
                "name `{name}` may hold only [A-Za-z0-9_-] and no `--`"
            )));
        }
        // Its entries' three-part names are lowercased, but its links are
        // signed as given: `Svc` would fail its own check once `svc` moved.
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            return Err(RegError::BadRecord(format!(
                "name `{name}` may not hold upper case"
            )));
        }
        Ok(())
    }

    fn base_tpn(&self, name: &str) -> RegResult<ThreePartName> {
        ThreePartName::new(&format!("reg--{name}"), &self.domain, &self.organization)
            .map_err(|e| RegError::BadRecord(e.to_string()))
    }

    fn link_tpn(&self, name: &str, seq: u32) -> RegResult<ThreePartName> {
        ThreePartName::new(
            &format!("reg--{name}--t{seq}"),
            &self.domain,
            &self.organization,
        )
        .map_err(|e| RegError::BadRecord(e.to_string()))
    }

    /// Runs a Clearinghouse *write*, counting typed unreachability.
    fn write<T>(&self, r: Result<T, RpcError>) -> RegResult<T> {
        r.map_err(|e| {
            if e.is_unreachable() {
                self.bump(&self.metrics.write_unreachable, "write_unreachable");
            }
            RegError::Rpc(e)
        })
    }

    fn read_base(&self, entry: &ThreePartName) -> RegResult<Option<BaseRecord>> {
        match self.ch.lookup_item(entry, PROP_REG_RECORD) {
            Ok(v) => Ok(Some(BaseRecord::from_value(&v)?)),
            Err(RpcError::NotFound(_)) => Ok(None),
            Err(e) => Err(RegError::Rpc(e)),
        }
    }

    fn read_link(&self, entry: &ThreePartName) -> RegResult<Option<TransferLink>> {
        match self.ch.lookup_item(entry, PROP_REG_LINK) {
            Ok(v) => Ok(Some(TransferLink::from_value(&v)?)),
            Err(RpcError::NotFound(_)) => Ok(None),
            Err(e) => Err(RegError::Rpc(e)),
        }
    }

    /// Verifies a link signature when the departing owner's key is on
    /// file; resolvers without the key table trust the authenticated
    /// Clearinghouse write path instead.
    fn verify_link(&self, name: &str, link: &TransferLink) -> RegResult<()> {
        if let Some(&key) = self.owners.read().get(&link.from) {
            if !link.verify(name, key) {
                return Err(RegError::BadSignature(format!("{name} link {}", link.seq)));
            }
        }
        Ok(())
    }

    /// Walks links `from_seq, from_seq + 1, …` until one is missing,
    /// fetching [`LINK_BATCH`] links per coalesced Clearinghouse read:
    /// a cold walk over a 64-link chain is five run RPCs, not
    /// sixty-five per-link lookups. A run that comes back short ends
    /// the walk — the server stopped at the first missing link, whose
    /// entry is returned: the head's next probe.
    fn walk_links(
        &self,
        name: &str,
        from_seq: u32,
        into: &mut Vec<TransferLink>,
    ) -> RegResult<ThreePartName> {
        let mut seq = from_seq;
        loop {
            let mut run: Vec<ThreePartName> = (seq..seq + LINK_BATCH)
                .map(|s| self.link_tpn(name, s))
                .collect::<RegResult<_>>()?;
            let values = self
                .ch
                .lookup_item_run(&run, PROP_REG_LINK)
                .map_err(RegError::Rpc)?;
            for v in &values {
                let link = TransferLink::from_value(v)?;
                self.verify_link(name, &link)?;
                into.push(link);
            }
            if values.len() < run.len() {
                return Ok(run.swap_remove(values.len()));
            }
            seq += LINK_BATCH;
        }
    }

    fn cache_insert(&self, name: &str, head: Arc<CollapsedHead>) {
        let mut cache = self.collapse.write();
        if cache.len() >= simnet::ttl::CAPACITY && !cache.contains_key(name) {
            self.metrics
                .collapse_evictions
                .get(self.world.metrics(), "regd", "collapse_evictions")
                .add(cache.len() as u64);
            cache.clear();
        }
        cache.insert(name.to_string(), head);
    }

    fn resolution(&self, name: &str, head: &CollapsedHead, walked: bool) -> Resolution {
        Resolution {
            name: name.to_string(),
            owner: head.owner.clone(),
            base_owner: head.base_owner.clone(),
            service: head.service.clone(),
            depth: head.depth,
            walked,
        }
    }

    /// Full chain walk from the base record, bypassing the collapse
    /// cache entirely (and leaving it untouched). Tests and the chaos
    /// suite use this as the ground truth a collapsed resolution must
    /// agree with.
    pub fn resolve_naive(&self, name: &str) -> RegResult<Resolution> {
        Self::check_name(name)?;
        let base = self
            .read_base(&self.base_tpn(name)?)?
            .ok_or_else(|| RegError::NotRegistered(name.to_string()))?;
        let mut links = Vec::new();
        self.walk_links(name, 1, &mut links)?;
        chain::check_linkage(name, &base.owner, &links)?;
        Ok(Resolution {
            name: name.to_string(),
            owner: chain::head_owner(&base.owner, &links).to_string(),
            base_owner: base.owner,
            service: base.service,
            depth: links.len() as u32,
            walked: true,
        })
    }

    /// Resolves a name to its current holder and binding.
    ///
    /// Cold: one base read plus one coalesced run read per
    /// `LINK_BATCH` (16) links (counted in `regd/chain_walks`). Warm:
    /// exactly one Clearinghouse read — the probe of link `depth + 1` —
    /// however long the chain is (`regd/collapse_hits`). A probe that
    /// *hits* means the chain grew under us; the walk resumes from
    /// there (`regd/chain_extends`).
    pub fn resolve(&self, name: &str) -> RegResult<Resolution> {
        let (head, walked) = self.resolve_head(name)?;
        Ok(self.resolution(name, &head, walked))
    }

    /// [`Registry::resolve`] as the write paths need it: the collapsed
    /// head itself (base signature, holder list, entries) and whether it
    /// was walked for. They work from this head, not from a second look
    /// at the cache, which may have been emptied in between.
    fn resolve_head(&self, name: &str) -> RegResult<(Arc<CollapsedHead>, bool)> {
        Self::check_name(name)?;
        self.bump(&self.metrics.resolves, "resolves");
        let cached = self.collapse.read().get(name).cloned();
        if let Some(head) = cached {
            return match self.read_link(&head.probe)? {
                None => {
                    self.bump(&self.metrics.collapse_hits, "collapse_hits");
                    Ok((head, false))
                }
                Some(link) => {
                    // Another frontend extended the chain: walk forward
                    // from the probe, never from the base.
                    self.bump(&self.metrics.chain_extends, "chain_extends");
                    self.verify_link(name, &link)?;
                    let mut head = Arc::unwrap_or_clone(head);
                    let mut fresh = vec![link];
                    head.probe = self.walk_links(name, head.depth + 2, &mut fresh)?;
                    for link in fresh {
                        if link.from != head.owner {
                            return Err(RegError::BadRecord(format!(
                                "{name}: link {} from {} but head was {}",
                                link.seq, link.from, head.owner
                            )));
                        }
                        head.owner.clone_from(&link.to);
                        head.holders.push(link.to);
                        head.depth = link.seq;
                    }
                    let head = Arc::new(head);
                    self.cache_insert(name, Arc::clone(&head));
                    Ok((head, true))
                }
            };
        }
        self.bump(&self.metrics.chain_walks, "chain_walks");
        let base_entry = self.base_tpn(name)?;
        let base = self
            .read_base(&base_entry)?
            .ok_or_else(|| RegError::NotRegistered(name.to_string()))?;
        let mut links = Vec::new();
        let probe = self.walk_links(name, 1, &mut links)?;
        chain::check_linkage(name, &base.owner, &links)?;
        let head = Arc::new(CollapsedHead {
            owner: chain::head_owner(&base.owner, &links).to_string(),
            holders: chain::holders(&base.owner, &links)
                .into_iter()
                .map(String::from)
                .collect(),
            depth: links.len() as u32,
            base_owner: base.owner,
            base_sig: base.sig,
            service: base.service,
            base_entry,
            probe,
        });
        self.cache_insert(name, Arc::clone(&head));
        Ok((head, true))
    }

    /// Propagates a (re-)binding into the HNS meta zone via dynamic
    /// update, when a rebinder is installed.
    fn rebind_zone(&self, name: &str, service: &str) -> RegResult<()> {
        let Some(hns) = &self.rebinder else {
            return Ok(());
        };
        let ctx = Context::new(name).map_err(|e| RegError::BadRecord(e.to_string()))?;
        hns.register_context(&ctx, service, &NameMapping::Identity)
            .map_err(|e| match e {
                hns_core::error::HnsError::Rpc(rpc) => {
                    if rpc.is_unreachable() {
                        self.bump(&self.metrics.write_unreachable, "write_unreachable");
                    }
                    RegError::Rpc(rpc)
                }
                other => RegError::BadRecord(other.to_string()),
            })
    }

    /// Registers `name` to `owner`, bound to `service`.
    ///
    /// The only mutating Clearinghouse RPC is the single base-record
    /// write; the existence probe and orphan-link sweep before it are
    /// reads (plus deletes of leftovers from a crashed release, counted
    /// in `regd/link_gc` — resolution never sees those orphans because
    /// it starts at the base record, which is deleted first).
    pub fn register(
        &self,
        owner: &str,
        key: u64,
        name: &str,
        service: &str,
    ) -> RegResult<Resolution> {
        Self::check_name(name)?;
        let key = self.authorize(owner, key)?;
        let base_entry = self.base_tpn(name)?;
        if self.read_base(&base_entry)?.is_some() {
            return Err(RegError::AlreadyRegistered(name.to_string()));
        }
        let probe = self.link_tpn(name, 1)?;
        let (mut seq, mut orphan) = (1, probe.clone());
        while self.read_link(&orphan)?.is_some() {
            self.write(self.ch.delete(&orphan))?;
            self.bump(&self.metrics.link_gc, "link_gc");
            seq += 1;
            orphan = self.link_tpn(name, seq)?;
        }
        let sig = chain::sign_link(name, 0, owner, owner, key);
        let record = BaseRecord::value(owner, service, sig);
        self.write(self.ch.set_item(&base_entry, PROP_REG_RECORD, record))?;
        self.bump(&self.metrics.registers, "registers");
        let head = CollapsedHead {
            base_owner: owner.to_string(),
            base_sig: sig,
            service: service.to_string(),
            owner: owner.to_string(),
            depth: 0,
            holders: vec![owner.to_string()],
            base_entry,
            probe,
        };
        let resolution = self.resolution(name, &head, false);
        self.cache_insert(name, Arc::new(head));
        self.rebind_zone(name, service)?;
        Ok(resolution)
    }

    /// Re-binds a registered name to a different name service. The
    /// caller must be the current holder. One Clearinghouse write: the
    /// whole base record is rewritten with the new binding.
    pub fn update(&self, owner: &str, key: u64, name: &str, service: &str) -> RegResult<()> {
        self.authorize(owner, key)?;
        let (head, _) = self.resolve_head(name)?;
        if head.owner != owner {
            return Err(RegError::NotOwner {
                name: name.to_string(),
                claimed: owner.to_string(),
                actual: head.owner.clone(),
            });
        }
        self.write_binding(name, head, service)?;
        self.bump(&self.metrics.updates, "updates");
        self.rebind_zone(name, service)
    }

    /// Rewrites the base record of `head`'s name with a new binding, and
    /// the cached head with it. `head` is let go first, so a head nobody
    /// else holds is changed in place.
    fn write_binding(&self, name: &str, head: Arc<CollapsedHead>, service: &str) -> RegResult<()> {
        let record = BaseRecord::value(&head.base_owner, service, head.base_sig);
        self.write(self.ch.set_item(&head.base_entry, PROP_REG_RECORD, record))?;
        drop(head);
        if let Some(head) = self.collapse.write().get_mut(name) {
            Arc::make_mut(head).service = service.to_string();
        }
        Ok(())
    }

    /// Transfers `name` from its current holder to `to`, appending one
    /// signed link. `rebind` optionally re-binds the name to a new name
    /// service in the same operation (the common shape when a name
    /// crosses administrative domains).
    ///
    /// The link write is the single chain-mutating RPC: a crash or
    /// partition leaves the chain fully linked (link durable) or fully
    /// absent (typed `HostUnreachable`, nothing written) — never a
    /// dangling half-link.
    pub fn transfer(
        &self,
        from: &str,
        key: u64,
        name: &str,
        to: &str,
        rebind: Option<&str>,
    ) -> RegResult<Resolution> {
        let key = self.authorize(from, key)?;
        self.key_of(to)?;
        let (head, _) = self.resolve_head(name)?;
        if head.owner != from {
            return Err(RegError::NotOwner {
                name: name.to_string(),
                claimed: from.to_string(),
                actual: head.owner.clone(),
            });
        }
        // The cycle rule: never back to any previous holder (the base
        // owner, a middle holder or the head), so a chain only grows
        // forward through fresh owners and its collapsed head is
        // well-defined.
        if head.holders.iter().any(|h| h == to) {
            self.bump(&self.metrics.cycle_rejections, "cycle_rejections");
            return Err(RegError::CycleRejected {
                name: name.to_string(),
                owner: to.to_string(),
            });
        }
        let link = TransferLink::signed(name, head.depth + 1, from, to, key);
        // The probe is the entry the new link is written to.
        self.write(
            self.ch
                .set_item(&head.probe, PROP_REG_LINK, link.tree().into_owned()),
        )?;
        self.bump(&self.metrics.transfers, "transfers");
        self.metrics
            .chain_depth
            .get(self.world.metrics(), "regd", "chain_depth")
            .record(u64::from(link.seq));
        let mut head = Arc::unwrap_or_clone(head);
        head.probe = self.link_tpn(name, link.seq + 1)?;
        head.owner.clone_from(&link.to);
        head.holders.push(link.to);
        head.depth = link.seq;
        let head = Arc::new(head);
        self.cache_insert(name, Arc::clone(&head));
        let mut resolution = self.resolution(name, &head, false);
        if let Some(service) = rebind {
            self.write_binding(name, head, service)?;
            self.rebind_zone(name, service)?;
            resolution.service = service.to_string();
        }
        Ok(resolution)
    }

    /// Releases a registered name. The base record is deleted *first* —
    /// from that RPC on the name is unregistered and resolution cannot
    /// see the remaining links; they are then deleted, and any survivor
    /// of a crash mid-sweep is garbage-collected by the next
    /// registration of the same name.
    pub fn release(&self, owner: &str, key: u64, name: &str) -> RegResult<()> {
        self.authorize(owner, key)?;
        let (head, _) = self.resolve_head(name)?;
        if head.owner != owner {
            return Err(RegError::NotOwner {
                name: name.to_string(),
                claimed: owner.to_string(),
                actual: head.owner.clone(),
            });
        }
        self.write(self.ch.delete(&head.base_entry))?;
        self.collapse.write().remove(name);
        for seq in 1..=head.depth {
            self.write(self.ch.delete(&self.link_tpn(name, seq)?))?;
        }
        self.bump(&self.metrics.releases, "releases");
        Ok(())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("domain", &self.domain)
            .field("organization", &self.organization)
            .field("owners", &self.owners.read().len())
            .field("collapsed", &self.collapse.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clearinghouse::db::ChDb;
    use clearinghouse::server::{deploy, ChServer};
    use simnet::world::World;

    struct Env {
        world: Arc<World>,
        net: Arc<RpcNet>,
        binding: HrpcBinding,
    }

    impl Env {
        fn registry(&self) -> Registry {
            let identity = ThreePartName::parse("regd:cs:uw").expect("name");
            let reg = Registry::new(
                Arc::clone(&self.net),
                self.world.add_host("frontend"),
                self.binding,
                Credentials::new(identity, 7),
                "cs",
                "uw",
            );
            reg.register_owner("alice", 0xA11CE);
            reg.register_owner("bob", 0xB0B);
            reg.register_owner("carol", 0xCA401);
            reg
        }
    }

    fn setup() -> (Env, Registry) {
        let world = World::paper();
        let ch_host = world.add_host("ch");
        let net = RpcNet::new(Arc::clone(&world));
        let server = ChServer::new("ch", ChDb::new(vec![("cs".into(), "uw".into())]));
        let identity = ThreePartName::parse("regd:cs:uw").expect("name");
        server.register_key(identity, 7);
        let dep = deploy(&net, ch_host, server);
        let env = Env {
            world,
            net,
            binding: dep.binding,
        };
        let reg = env.registry();
        (env, reg)
    }

    #[test]
    fn register_resolve_lifecycle() {
        let (_world, reg) = setup();
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        let r = reg.resolve("svc").expect("resolve");
        assert_eq!(r.owner, "alice");
        assert_eq!(r.base_owner, "alice");
        assert_eq!(r.service, "BIND");
        assert_eq!(r.depth, 0);
        assert!(!r.walked, "registration seeds the collapse cache");
        assert_eq!(
            reg.register("alice", 0xA11CE, "svc", "BIND").unwrap_err(),
            RegError::AlreadyRegistered("svc".into())
        );
        assert!(matches!(
            reg.resolve("ghost").unwrap_err(),
            RegError::NotRegistered(_)
        ));
    }

    #[test]
    fn bad_keys_and_unknown_owners_rejected() {
        let (_world, reg) = setup();
        assert!(matches!(
            reg.register("alice", 0xBAD, "svc", "BIND").unwrap_err(),
            RegError::BadSignature(_)
        ));
        assert!(matches!(
            reg.register("mallory", 1, "svc", "BIND").unwrap_err(),
            RegError::UnknownOwner(_)
        ));
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        assert!(matches!(
            reg.transfer("alice", 0xA11CE, "svc", "mallory", None)
                .unwrap_err(),
            RegError::UnknownOwner(_)
        ));
    }

    #[test]
    fn transfer_moves_the_head_and_updates_binding() {
        let (_env, reg) = setup();
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        let r = reg
            .transfer("alice", 0xA11CE, "svc", "bob", Some("Clearinghouse"))
            .expect("transfer");
        assert_eq!(r.owner, "bob");
        assert_eq!(r.depth, 1);
        assert_eq!(r.service, "Clearinghouse");
        // Not the holder any more.
        assert!(matches!(
            reg.transfer("alice", 0xA11CE, "svc", "carol", None)
                .unwrap_err(),
            RegError::NotOwner { .. }
        ));
        // Cycle: back to a previous holder.
        let err = reg
            .transfer("bob", 0xB0B, "svc", "alice", None)
            .unwrap_err();
        assert!(matches!(err, RegError::CycleRejected { .. }), "{err}");
        // Naive walk agrees with the collapsed view.
        let naive = reg.resolve_naive("svc").expect("naive");
        let fast = reg.resolve("svc").expect("fast");
        assert_eq!(naive.owner, fast.owner);
        assert_eq!(naive.depth, fast.depth);
        assert_eq!(naive.service, fast.service);
    }

    #[test]
    fn a_transfer_back_to_any_previous_holder_is_a_cycle() {
        let (_env, reg) = setup();
        reg.register_owner("dave", 0xDA7E);
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        reg.transfer("alice", 0xA11CE, "svc", "bob", None)
            .expect("to bob");
        reg.transfer("bob", 0xB0B, "svc", "carol", None)
            .expect("to carol");
        // The base owner, a middle holder and the head itself.
        for prev in ["alice", "bob", "carol"] {
            let err = reg
                .transfer("carol", 0xCA401, "svc", prev, None)
                .unwrap_err();
            assert!(
                matches!(err, RegError::CycleRejected { .. }),
                "{prev}: {err}"
            );
        }
        let r = reg
            .transfer("carol", 0xCA401, "svc", "dave", None)
            .expect("a fresh owner");
        assert_eq!((r.owner.as_str(), r.depth), ("dave", 3));
    }

    #[test]
    fn update_requires_the_current_holder() {
        let (_world, reg) = setup();
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        reg.transfer("alice", 0xA11CE, "svc", "bob", None)
            .expect("transfer");
        assert!(matches!(
            reg.update("alice", 0xA11CE, "svc", "Clearinghouse")
                .unwrap_err(),
            RegError::NotOwner { .. }
        ));
        reg.update("bob", 0xB0B, "svc", "Clearinghouse")
            .expect("holder re-binds");
        assert_eq!(
            reg.resolve("svc").expect("resolve").service,
            "Clearinghouse"
        );
        assert_eq!(
            reg.resolve_naive("svc").expect("naive").service,
            "Clearinghouse",
            "the re-bind is durable, not cache-only"
        );
    }

    #[test]
    fn release_then_reregister_starts_a_fresh_chain() {
        let (_world, reg) = setup();
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        reg.transfer("alice", 0xA11CE, "svc", "bob", None)
            .expect("transfer");
        assert!(matches!(
            reg.release("alice", 0xA11CE, "svc").unwrap_err(),
            RegError::NotOwner { .. }
        ));
        reg.release("bob", 0xB0B, "svc").expect("release");
        assert!(matches!(
            reg.resolve("svc").unwrap_err(),
            RegError::NotRegistered(_)
        ));
        // Re-register: alice can hold it again (the old chain is gone,
        // so no cycle), and the chain starts at depth 0.
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("re-register");
        let r = reg.resolve("svc").expect("resolve");
        assert_eq!((r.owner.as_str(), r.depth), ("alice", 0));
        reg.transfer("alice", 0xA11CE, "svc", "bob", None)
            .expect("bob may hold it again in the new epoch");
    }

    #[test]
    fn warm_resolve_is_one_clearinghouse_read() {
        let (env, reg) = setup();
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        for (owner, key, to) in [("alice", 0xA11CE, "bob"), ("bob", 0xB0B, "carol")] {
            reg.transfer(owner, key, "svc", to, None).expect("transfer");
        }
        let before = env.world.counters().ns_lookups;
        let r = reg.resolve("svc").expect("warm");
        let after = env.world.counters().ns_lookups;
        assert_eq!(after - before, 1, "exactly the depth+1 probe");
        assert!(!r.walked);
        assert_eq!(r.owner, "carol");
    }

    #[test]
    fn foreign_extension_is_discovered_incrementally() {
        let (env, reg) = setup();
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        let r1 = reg.resolve("svc").expect("warm");
        assert!(!r1.walked, "collapse hit before the foreign write");

        // A second frontend over the same Clearinghouse extends the
        // chain behind the first one's back.
        let other = env.registry();
        other
            .transfer("alice", 0xA11CE, "svc", "bob", None)
            .expect("t1");
        other
            .transfer("bob", 0xB0B, "svc", "carol", None)
            .expect("t2");

        // The stale frontend's probe at depth+1 hits, and it walks
        // forward from there — two links plus the trailing miss, never
        // back to the base record.
        let before = env.world.counters().ns_lookups;
        let r2 = reg.resolve("svc").expect("extended");
        let probes = env.world.counters().ns_lookups - before;
        assert_eq!(r2.owner, "carol");
        assert_eq!(r2.depth, 2);
        assert!(r2.walked, "extension is a (partial) walk");
        assert_eq!(probes, 2, "probe-hit + one coalesced run (link 2 + miss)");

        // And the refreshed head collapses again.
        let r3 = reg.resolve("svc").expect("re-collapsed");
        assert!(!r3.walked);
        assert_eq!(r3.owner, "carol");
    }

    /// One name more than the collapse cache holds: the last one empties
    /// it, every name still resolves to what was registered, and a name
    /// that was dropped costs one chain walk and collapses again.
    #[test]
    fn the_collapse_cache_is_emptied_when_full_and_refills_by_walking() {
        const CAPACITY: usize = simnet::ttl::CAPACITY;
        let (env, reg) = setup();
        let counter = |name| env.world.metrics().snapshot().counter("regd", name);
        for i in 0..CAPACITY {
            reg.register("alice", 0xA11CE, &format!("svc-{i}"), "BIND")
                .expect("register");
        }
        reg.transfer("alice", 0xA11CE, "svc-7", "bob", Some("CH"))
            .expect("transfer");
        assert_eq!(reg.collapse.read().len(), CAPACITY);
        assert_eq!(counter("collapse_evictions"), None);
        assert_eq!(counter("chain_walks"), None);

        reg.register("alice", 0xA11CE, "one-more", "BIND")
            .expect("register");
        assert_eq!(reg.collapse.read().len(), 1);
        assert_eq!(counter("collapse_evictions"), Some(CAPACITY as u64));

        for (name, owner, service, depth) in [
            ("svc-0", "alice", "BIND", 0),
            ("svc-7", "bob", "CH", 1),
            ("one-more", "alice", "BIND", 0),
        ] {
            let cold = reg.resolve(name).expect("resolve");
            assert_eq!(
                (&*cold.owner, &*cold.service, cold.depth),
                (owner, service, depth)
            );
            assert_eq!(cold.walked, name != "one-more", "{name}");
            let warm = reg.resolve(name).expect("resolve");
            assert!(!warm.walked, "{name} collapsed again");
            assert_eq!(warm.owner, owner);
        }
        assert_eq!(counter("chain_walks"), Some(2));
        // The write paths work from the head they resolved, cache or no.
        reg.update("alice", 0xA11CE, "svc-1", "CH").expect("update");
        assert_eq!(reg.resolve("svc-1").expect("resolve").service, "CH");
        assert_eq!(reg.collapse.read().len(), 4);
    }

    #[test]
    fn name_validation() {
        let (env, reg) = setup();
        let before = env.world.counters().remote_calls;
        for bad in ["", "a--b", "a:b", "my.svc", "my/svc", &"x".repeat(41)] {
            assert!(
                matches!(
                    reg.register("alice", 0xA11CE, bad, "BIND").unwrap_err(),
                    RegError::BadRecord(_)
                ),
                "{bad:?}"
            );
        }
        let calls = env.world.counters().remote_calls - before;
        assert_eq!(calls, 0, "refused before the first Clearinghouse write");
    }

    /// `Svc` used to be registered: stored under `reg--svc` (three-part
    /// names are lowercased) but signed as `Svc`, so once `svc` had been
    /// transferred, `resolve("Svc")` failed `BadSignature`. Upper case is
    /// refused, in every operation, before anything is written.
    #[test]
    fn a_name_in_upper_case_is_refused_before_anything_is_written() {
        let (env, reg) = setup();
        let before = env.world.counters().remote_calls;
        let refused = |r: RegResult<Resolution>| matches!(r, Err(RegError::BadRecord(_)));
        assert!(refused(reg.register("alice", 0xA11CE, "Svc", "BIND")));
        assert_eq!(env.world.counters().remote_calls, before, "nothing written");
        reg.register("alice", 0xA11CE, "svc", "BIND")
            .expect("register");
        assert!(refused(reg.transfer("alice", 0xA11CE, "Svc", "bob", None)));
        reg.transfer("alice", 0xA11CE, "svc", "bob", None)
            .expect("transfer");
        assert!(refused(reg.resolve("Svc")));
        assert!(refused(reg.resolve_naive("Svc")));
        assert!(matches!(
            reg.update("bob", 0xB0B, "Svc", "CH"),
            Err(RegError::BadRecord(_))
        ));
        let r = reg.resolve_naive("svc").expect("resolve");
        assert_eq!((r.owner.as_str(), r.depth), ("bob", 1));
    }
}
