//! Registration testbed: the full write-path environment.
//!
//! Extends the [`nsms::harness::Testbed`] with a replicated
//! Clearinghouse (one primary, one lazy replica) and a registration
//! frontend wired for the paper's loose-consistency regime: writes go
//! to the primary, reads fail over to the replica, registrations and
//! re-binds propagate into the HNS meta zone so `FindNSM` follows a
//! transferred name transparently. The experiments and the chaos suite
//! build on this.

use std::sync::Arc;

use clearinghouse::db::ChDb;
use clearinghouse::replication::ChCluster;
use clearinghouse::server::{deploy as deploy_ch, ChServer};
use hns_core::cache::CacheMode;
use hrpc::HrpcBinding;
use nsms::harness::Testbed;
use simnet::topology::HostId;

use crate::registry::Registry;

/// Deterministic signing key for the `i`-th seeded owner.
pub fn owner_key(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed_0bad_cafe_f00d
}

/// Name of the `i`-th seeded owner.
pub fn owner_name(i: usize) -> String {
    format!("owner{i}")
}

/// The write-path environment: testbed + replicated Clearinghouse +
/// registration frontend.
pub struct RegTestbed {
    /// The underlying HCS environment (primary Clearinghouse included).
    pub tb: Testbed,
    /// Primary + replica with lazy propagation.
    pub cluster: ChCluster,
    /// Host of the Clearinghouse replica.
    pub replica_host: HostId,
    /// Binding of the replica (the read-failover target).
    pub replica_binding: HrpcBinding,
    /// The registration frontend (runs on `tb.hosts.agent`).
    pub registry: Arc<Registry>,
}

impl RegTestbed {
    /// Builds the environment with `owners` seeded identities
    /// (`owner0..`, keys from [`owner_key`]) and zone propagation
    /// enabled so registered names become HNS contexts.
    pub fn build(owners: usize) -> RegTestbed {
        let tb = Testbed::build();
        let replica_host = tb.world.add_host("chreplica.cs.washington.edu");
        let replica = ChServer::new(
            "clearinghouse-replica",
            ChDb::new(vec![("cs".into(), "uw".into())]),
        );
        replica.register_key(tb.creds.identity.clone(), tb.creds.key);
        let replica_dep = deploy_ch(&tb.net, replica_host, replica);
        let cluster = ChCluster::new(
            Arc::clone(&tb.world),
            Arc::clone(&tb.ch.server),
            tb.hosts.ch,
            vec![(Arc::clone(&replica_dep.server), replica_host)],
        );

        let mut registry = Registry::new(
            Arc::clone(&tb.net),
            tb.hosts.agent,
            tb.ch.binding,
            tb.creds.clone(),
            "cs",
            "uw",
        );
        registry.set_read_fallbacks(vec![replica_dep.binding]);
        registry.set_rebinder(Some(tb.make_hns(tb.hosts.meta, CacheMode::Disabled)));
        let registry = Arc::new(registry);
        for i in 0..owners {
            registry.register_owner(owner_name(i), owner_key(i));
        }

        RegTestbed {
            tb,
            cluster,
            replica_host,
            replica_binding: replica_dep.binding,
            registry,
        }
    }

    /// A fresh resolver-only frontend on `host` with a cold collapse
    /// cache, sharing the cluster (primary reads, replica failover) and
    /// the seeded owner keys of the main registry so walked links
    /// verify. Tests use this to observe cold-walk / collapse behaviour
    /// and what a *different* frontend sees after foreign writes.
    pub fn reader(&self, host: HostId, owners: usize) -> Registry {
        let mut reader = Registry::new(
            Arc::clone(&self.tb.net),
            host,
            self.tb.ch.binding,
            self.tb.creds.clone(),
            "cs",
            "uw",
        );
        reader.set_read_fallbacks(vec![self.replica_binding]);
        for i in 0..owners {
            reader.register_owner(owner_name(i), owner_key(i));
        }
        reader
    }
}

impl std::fmt::Debug for RegTestbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegTestbed")
            .field("replica_host", &self.replica_host)
            .field("registry", &self.registry)
            .finish()
    }
}
