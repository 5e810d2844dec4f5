//! The name-service adapters: steps one and two of every NSM.
//!
//! An NSM "translates the individual name to the local name, interrogates
//! its name service, and returns the query class's standard result
//! format". Only the third step knows the query class; the first two are
//! an [`Adapter`]'s. It owns the context's [`NameMapping`] and a client of
//! the service, and hides the translation with its one error mapping, the
//! parse of the local name, the lookup, and what "not there" means.

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::resolver::StdResolver;
use bindns::rr::{RData, RType};
use clearinghouse::client::ChClient;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::{PropertyId, PROP_ADDRESS};
use hns_core::name::{HnsName, NameMapping};
use hns_core::META_TTL;
use hrpc::error::{RpcError, RpcResult};
use hrpc::ComponentSet;
use simnet::topology::HostId;
use wire::{Value, WireResult};

/// Steps one and two over the name service whose client is `S`.
#[derive(Debug)]
pub struct Adapter<S> {
    service: Arc<S>,
    mapping: NameMapping,
}

/// The adapter over BIND, through a standard resolver.
pub type BindAdapter = Adapter<StdResolver>;
/// The adapter over the Clearinghouse, through an authenticated client.
pub type ChAdapter = Adapter<ChClient>;

fn service_err(e: impl ToString) -> RpcError {
    RpcError::Service(e.to_string())
}

impl<S> Adapter<S> {
    /// An adapter for a context whose names `mapping` translates.
    pub fn new(service: Arc<S>, mapping: NameMapping) -> Self {
        Adapter { service, mapping }
    }

    /// Step one: the local name behind `hns_name`'s individual name, a
    /// slice of it.
    pub fn translate<'a>(&self, hns_name: &'a HnsName) -> RpcResult<&'a str> {
        self.mapping
            .to_local(&hns_name.individual)
            .map_err(service_err)
    }
}

impl BindAdapter {
    /// Steps one and two: the data of the first `rtype` record at
    /// `hns_name`'s local name, read through the resolver's cache, as
    /// `shape` takes it (`None`: not the data an `rtype` record holds).
    pub fn lookup<T>(
        &self,
        hns_name: &HnsName,
        rtype: RType,
        shape: impl FnOnce(&RData) -> Option<T>,
    ) -> RpcResult<T> {
        let local = self.translate(hns_name)?;
        self.first(local, rtype, true, |_, rdata| shape(rdata))
    }

    /// Steps one and two for a structured value, which BIND holds as a
    /// `TXT` record of the form `k=v;k=v`: the values of the two `keys`
    /// (the last, where one repeats) as `shape` takes them. `what` names
    /// the record in the error for one that lacks either.
    pub fn lookup_pair<T>(
        &self,
        hns_name: &HnsName,
        what: &str,
        keys: [&str; 2],
        shape: impl FnOnce(&str, &str) -> T,
    ) -> RpcResult<T> {
        self.lookup(hns_name, RType::Txt, |rdata| match rdata {
            RData::Text(text) => {
                let value = |key| {
                    let mut pairs = text.rsplit(';').filter_map(|piece| piece.split_once('='));
                    pairs.find(|(k, _)| *k == key).map(|(_, v)| v)
                };
                Some(match (value(keys[0]), value(keys[1])) {
                    (Some(first), Some(second)) => Ok(shape(first, second)),
                    _ => Err(RpcError::Service(format!("bad {what} record `{text}`"))),
                })
            }
            _ => None,
        })?
    }

    /// Step two: `NotFound(local)` unless a record of `rtype` came back;
    /// its TTL and data as `shape` takes them. Through the cache, the
    /// record is read where the resolver keeps it.
    fn first<T>(
        &self,
        local: &str,
        rtype: RType,
        cached: bool,
        shape: impl FnOnce(u32, &RData) -> Option<T>,
    ) -> RpcResult<T> {
        let read = |found: Option<(u32, &RData)>| {
            let (ttl, rdata) = found.ok_or_else(|| RpcError::NotFound(local.to_string()))?;
            let bad = || RpcError::Service(format!("bad {rtype} rdata {rdata:?}"));
            shape(ttl, rdata).ok_or_else(bad)
        };
        if cached {
            let found = self.service.query_first(local, rtype)?;
            read(found.as_ref().map(|(ttl, rdata)| (*ttl, rdata)))
        } else {
            let domain = DomainName::parse(local).map_err(service_err)?;
            let records = self.service.query_uncached(&domain, rtype)?;
            let found = records.iter().find(|(_, body)| body.rtype == rtype);
            read(found.map(|(_, body)| (body.ttl, &body.rdata)))
        }
    }
}

impl ChAdapter {
    /// Steps one and two: the item `prop` of the entry at `hns_name`'s
    /// local name, by an authenticated lookup, as `read` takes it. Under
    /// the identity mapping the entry's name shares the individual name's
    /// text when that is already canonical; the item is read where the
    /// server keeps it, so `read` copies only what it hands back.
    pub fn lookup<T>(
        &self,
        hns_name: &HnsName,
        prop: PropertyId,
        read: impl FnOnce(&Value) -> WireResult<T>,
    ) -> RpcResult<T> {
        self.item(&self.entry(hns_name)?, prop, read)
    }

    /// Step one: the name of the entry at `hns_name`'s local name, sharing
    /// the individual name's text under the identity mapping when that is
    /// already canonical, parsed otherwise.
    fn entry(&self, hns_name: &HnsName) -> RpcResult<ThreePartName> {
        match self.mapping {
            NameMapping::Identity => ThreePartName::share(&hns_name.individual),
            _ => ThreePartName::parse(self.translate(hns_name)?),
        }
        .map_err(service_err)
    }

    fn item<T>(
        &self,
        name: &ThreePartName,
        prop: PropertyId,
        read: impl FnOnce(&Value) -> WireResult<T>,
    ) -> RpcResult<T> {
        let item = self.service.lookup_shared_item(name, prop)?;
        Ok(read(&item)?)
    }
}

/// What the NSMs written once for both services — host address, HRPC
/// binding — ask of an adapter besides [`Adapter::translate`].
pub(crate) trait HostLookup: Send + Sync {
    /// The emulation suite native to the systems this service names.
    fn suite() -> ComponentSet;

    /// Steps one and two for a host's name: its address, and the seconds
    /// the answer may be kept. Never through a resolver cache: the callers
    /// keep what they learn in caches of their own.
    fn address(&self, hns_name: &HnsName) -> RpcResult<(HostId, u32)>;
}

impl HostLookup for BindAdapter {
    fn suite() -> ComponentSet {
        ComponentSet::sun()
    }

    fn address(&self, hns_name: &HnsName) -> RpcResult<(HostId, u32)> {
        let local = self.translate(hns_name)?;
        self.first(local, RType::A, false, |ttl, rdata| match rdata {
            RData::Addr(addr) => Some((addr.host, ttl)),
            _ => None,
        })
    }
}

impl HostLookup for ChAdapter {
    fn suite() -> ComponentSet {
        ComponentSet::courier()
    }

    /// The Clearinghouse has no per-record TTLs: what it says lives as
    /// long as a meta record.
    fn address(&self, hns_name: &HnsName) -> RpcResult<(HostId, u32)> {
        let host = self.item(&self.entry(hns_name)?, PROP_ADDRESS, Value::as_u32)?;
        Ok((HostId(host), META_TTL))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Testbed;
    use clearinghouse::property::PROP_MAILBOX;
    use hrpc::BindingProtocol;

    fn adapters(tb: &Testbed, mapping: NameMapping) -> (BindAdapter, ChAdapter) {
        (
            Adapter::new(tb.std_resolver(tb.hosts.client), mapping.clone()),
            Adapter::new(tb.ch_client(tb.hosts.client), mapping),
        )
    }

    fn name(tb: &Testbed, individual: &str) -> HnsName {
        HnsName::new(tb.ctx_bind(), individual).expect("name")
    }

    fn not_found<T>(result: RpcResult<T>) -> bool {
        matches!(result, Err(RpcError::NotFound(_)))
    }

    fn refused<T>(result: RpcResult<T>) -> bool {
        matches!(result, Err(RpcError::Service(_)))
    }

    #[test]
    fn translation_fails_before_any_lookup() {
        // A prefixed context: global name "uw-fiji…", local name "fiji…".
        let tb = Testbed::build();
        let prefix = "uw-".to_string();
        let (bind, ch) = adapters(&tb, NameMapping::Prefixed { prefix });
        let global = name(&tb, "uw-fiji.cs.washington.edu");
        let local = bind.translate(&global).expect("local");
        assert_eq!(local, "fiji.cs.washington.edu");
        assert!(bind.lookup(&global, RType::A, |_| Some(())).is_ok());
        // A name the mapping does not cover is refused with no remote call.
        let bare = name(&tb, "fiji.cs.washington.edu");
        let (all_refused, ledger) = tb.world.measure(|| {
            refused(bind.lookup(&bare, RType::A, |_| Some(())))
                && refused(ch.lookup(&bare, PROP_ADDRESS, Value::as_u32))
        });
        let delta = ledger.counters();
        assert!(all_refused);
        assert_eq!(delta.remote_calls, 0);
    }

    #[test]
    fn bind_lookup_hands_over_the_first_record_of_the_type_or_says_why_not() {
        let tb = Testbed::build();
        let (bind, _) = adapters(&tb, NameMapping::Identity);
        let alice = name(&tb, "alice.cs.washington.edu");
        let target = |rdata: &RData| match rdata {
            RData::Domain(target) => Some(target.to_string()),
            _ => None,
        };
        let mx = bind.lookup(&alice, RType::Mx, target);
        assert_eq!(mx.expect("mx"), "fiji.cs.washington.edu");
        // Through the resolver's cache: the repeat goes nowhere.
        let (_, ledger) = tb.world.measure(|| bind.lookup(&alice, RType::Mx, target));
        let delta = ledger.counters();
        assert_eq!(delta.remote_calls, 0);
        // No such name, no record of that type there: `NotFound(local)`.
        for who in ["nobody.cs.washington.edu", "fiji.cs.washington.edu"] {
            assert!(not_found(bind.lookup(&name(&tb, who), RType::Mx, target)));
        }
        // Data the NSM cannot shape, and a local name BIND cannot hold.
        let unshaped = bind.lookup(&alice, RType::Mx, |_| None::<()>).unwrap_err();
        assert!(unshaped.to_string().contains("bad MX rdata"), "{unshaped}");
        let unparsed = bind.lookup(&name(&tb, "a..b"), RType::A, |_| Some(()));
        assert!(refused(unparsed));
        // A structured value lacking one of its keys names its record.
        let sources = name(&tb, "sources.cs.washington.edu");
        let lacking = bind.lookup_pair(&sources, "file", ["root", "nope"], |_, _| ());
        assert!(lacking.unwrap_err().to_string().contains("bad file record"));
    }

    #[test]
    fn ch_lookup_reads_the_item_or_says_why_not() {
        let tb = Testbed::build();
        let (_, ch) = adapters(&tb, NameMapping::Identity);
        let prop = PROP_MAILBOX;
        let item = |individual| ch.lookup(&name(&tb, individual), prop, |v| Ok(v.clone()));
        assert_eq!(
            item("bob:cs:uw").expect("item"),
            Value::str("printserver:cs:uw")
        );
        assert!(not_found(item("ghost:cs:uw")));
        assert!(refused(item("two:parts")));
    }

    #[test]
    fn each_service_answers_for_a_host_in_its_own_terms() {
        let tb = Testbed::build();
        let (bind, ch) = adapters(&tb, NameMapping::Identity);
        // BIND: the record's own TTL, and never from the resolver's cache.
        let host = |individual| name(&tb, individual);
        for _ in 0..2 {
            let fiji = host("fiji.cs.washington.edu");
            let (found, ledger) = tb.world.measure(|| bind.address(&fiji));
            let delta = ledger.counters();
            assert_eq!(found.expect("A"), (tb.hosts.fiji, 86_400));
            assert_eq!(delta.remote_calls, 1);
        }
        assert!(not_found(bind.address(&host("ghost.cs.washington.edu"))));
        // Clearinghouse: no TTL of its own, so a meta record's.
        let found = ch.address(&host("printserver:cs:uw"));
        assert_eq!(found.expect("address item"), (tb.hosts.printer, META_TTL));
        assert!(not_found(ch.address(&host("ghost:cs:uw"))));
        let suites = (BindAdapter::suite(), ChAdapter::suite());
        assert_eq!(suites.0.binding, BindingProtocol::SunPortmapper);
        assert_eq!(suites.1.binding, BindingProtocol::CourierExchange);
    }
}
