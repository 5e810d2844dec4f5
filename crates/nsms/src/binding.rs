//! The HRPC-binding NSMs.
//!
//! This is the paper's worked example: "The NSM looks up the local name
//! ('fiji.cs.washington.edu') in the name service, and then determines the
//! needed port number for the ServiceName, using whatever binding protocol
//! is appropriate for that particular system." The NSM is written once,
//! over the adapter of either service, and what differs completely
//! between the two is the adapter's: a public BIND lookup and the Sun
//! portmapper on one side, an authenticated Clearinghouse lookup and the
//! Courier exchange protocol on the other. "The client does not need to be
//! aware of which name service it is calling."
//!
//! Client interface for the `HRPCBinding` query class (identical across
//! NSMs): the request's own fields `service` and `program`
//! ([`hns_core::nsm::QueryArgs::Binding`]); reply: the [`HrpcBinding`]
//! itself. A completed binding is cached under the query laid out as
//! bytes over its own strings — local name, service, program — so a probe
//! copies nothing and an insert copies the key once, into the cache's
//! arena.

use std::sync::Arc;

use bindns::resolver::StdResolver;
use clearinghouse::client::ChClient;
use hns_core::name::NameMapping;
use hns_core::nsm::{Nsm, NsmRequest};
use hns_core::query::QueryClass;
use hrpc::bindproto;
use hrpc::error::RpcResult;
use hrpc::net::RpcNet;
use hrpc::server::ReplySlot;
use hrpc::HrpcBinding;
use simnet::obs::CounterSource;
use simnet::topology::{HostId, NetAddr};
use simnet::ttl::END;

use crate::adapter::{Adapter, HostLookup};
use crate::nsm_cache::{NsmCache, NsmCacheForm};

/// Resource records' worth of marshalling a completed binding structure
/// costs through the generated routines (the multi-field binding record).
const BINDING_MARSHAL_RRS: usize = 6;
/// Records a cached completed binding occupies.
const CACHED_BINDING_RRS: usize = 2;

/// What a completed binding is cached under: the query, field by field —
/// `local ‖ FF ‖ service ‖ FF ‖ program`, the program little-endian — so
/// that no two queries share an entry. Laid out over the query's own
/// strings, to probe and to insert.
fn key<'a>(local: &'a str, service: &'a str, program: &'a [u8; 4]) -> [&'a [u8]; 5] {
    [
        local.as_bytes(),
        &[END],
        service.as_bytes(),
        &[END],
        program,
    ]
}

/// The binding NSM over the name service whose client is `S`. Its adapter
/// supplies the host lookup, the emulation suite native to the target
/// service, and how long a completed binding may be cached.
#[derive(Debug)]
pub struct BindingNsm<S> {
    name: String,
    net: Arc<RpcNet>,
    host: HostId,
    adapter: Adapter<S>,
    cache: NsmCache<HrpcBinding>,
}

/// The binding NSM for BIND/Sun systems.
pub type BindingBindNsm = BindingNsm<StdResolver>;
/// The binding NSM for Clearinghouse/Courier systems.
pub type BindingChNsm = BindingNsm<ChClient>;

impl<S> BindingNsm<S> {
    /// Creates the NSM under a custom registered name — used when a second
    /// subsystem of the same kind joins the federation and needs its own
    /// NSM instance.
    ///
    /// `host` is where this NSM instance executes (its calls originate
    /// there — the colocation arrangement decides this).
    pub fn named(
        name: impl Into<String>,
        net: Arc<RpcNet>,
        host: HostId,
        service: Arc<S>,
        mapping: NameMapping,
        cache_form: NsmCacheForm,
    ) -> Arc<Self> {
        Arc::new(BindingNsm {
            name: name.into(),
            net,
            host,
            adapter: Adapter::new(service, mapping),
            cache: NsmCache::of(cache_form),
        })
    }

    /// Cache statistics (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Clears the result cache.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

/// A snapshot reads the NSM's result cache.
impl<S: Send + Sync> CounterSource for BindingNsm<S> {
    fn rows(&self, row: &mut dyn FnMut(&'static str, u64)) {
        self.cache.rows(row);
    }
}

impl BindingBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-hrpcbinding-bind";

    /// Creates the NSM.
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        resolver: Arc<StdResolver>,
        mapping: NameMapping,
        cache_form: NsmCacheForm,
    ) -> Arc<Self> {
        Self::named(Self::NAME, net, host, resolver, mapping, cache_form)
    }
}

impl BindingChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-hrpcbinding-ch";

    /// Creates the NSM.
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        client: Arc<ChClient>,
        mapping: NameMapping,
        cache_form: NsmCacheForm,
    ) -> Arc<Self> {
        Self::named(Self::NAME, net, host, client, mapping, cache_form)
    }
}

impl<S> Nsm for BindingNsm<S>
where
    Adapter<S>: HostLookup,
{
    fn nsm_name(&self) -> &str {
        &self.name
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::hrpc_binding()
    }

    fn handle(&self, request: &NsmRequest, reply: &mut ReplySlot<'_>) -> RpcResult<()> {
        let world = self.net.world();
        let (service, program) = request.args.binding()?;

        // Translate the individual name to the local name.
        let local = self.adapter.translate(&request.name)?;

        let program_bytes = program.0.to_le_bytes();
        let key = key(local, service, &program_bytes);
        if let Some(cached) = self.cache.get(world, &key) {
            world.charge_ms(world.costs.nsm_assemble);
            reply.put(*cached);
            return Ok(());
        }

        // 1. Look the host up in the name service.
        let (host, ttl) = self.adapter.address(&request.name)?;

        // 2. Determine the port with the system's own binding protocol
        //    (Sun portmapper, Courier exchange).
        let components = Adapter::<S>::suite();
        let port =
            bindproto::resolve_port(&self.net, self.host, host, program, service, components)?;

        // 3. Assemble the completed binding, charged as marshalled
        //    through the generated routines.
        let binding = HrpcBinding {
            host,
            addr: NetAddr::of(host),
            program,
            port,
            components,
        };
        world.charge_ms(world.costs.generated_miss(BINDING_MARSHAL_RRS) + world.costs.nsm_assemble);
        self.cache
            .insert(world, key, &binding, CACHED_BINDING_RRS, ttl);
        reply.put(binding);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrpc::{ComponentSet, ProgramId};

    /// Two queries whose strings run together the same way are two keys,
    /// and two entries.
    #[test]
    fn queries_split_at_two_places_are_two_entries() {
        let program = 7u32.to_le_bytes();
        let (a, b) = (key("ab", "c", &program), key("a", "bc", &program));
        assert_ne!(a.concat(), b.concat());
        let world = simnet::World::paper();
        let cache = NsmCache::of(NsmCacheForm::Demarshalled);
        let binding = |host| HrpcBinding {
            host: HostId(host),
            addr: NetAddr::of(HostId(host)),
            program: ProgramId(7),
            port: 1024,
            components: ComponentSet::sun(),
        };
        cache.insert(&world, a, &binding(1), CACHED_BINDING_RRS, 600);
        cache.insert(&world, b, &binding(2), CACHED_BINDING_RRS, 600);
        assert_eq!(cache.get(&world, &a).as_deref(), Some(&binding(1)));
        assert_eq!(cache.get(&world, &b).as_deref(), Some(&binding(2)));
        assert_eq!(cache.stats(), (2, 0));
    }
}
