//! Lazy primary/replica propagation.
//!
//! Clearinghouse replicates each domain across servers with loose
//! consistency; updates reach replicas lazily. This module models that:
//! writes go to the primary, `propagate` pushes a snapshot to the replicas
//! (paying a transfer cost), and until then readers of a replica observe
//! stale data — the same weak-consistency regime the HNS inherits from its
//! underlying services.

use std::sync::Arc;

use simnet::topology::HostId;
use simnet::world::World;

use crate::server::ChServer;

/// A replicated Clearinghouse domain: one primary, N replicas.
pub struct ChCluster {
    primary: Arc<ChServer>,
    replicas: Vec<Arc<ChServer>>,
    world: Arc<World>,
    /// Hosts, parallel to `[primary, replicas...]` (for diagnostics).
    hosts: Vec<HostId>,
}

impl ChCluster {
    /// Creates a cluster.
    pub fn new(
        world: Arc<World>,
        primary: Arc<ChServer>,
        primary_host: HostId,
        replicas: Vec<(Arc<ChServer>, HostId)>,
    ) -> Self {
        let mut hosts = vec![primary_host];
        let mut servers = Vec::new();
        for (server, host) in replicas {
            servers.push(server);
            hosts.push(host);
        }
        ChCluster {
            primary,
            replicas: servers,
            world,
            hosts,
        }
    }

    /// The primary server (all writes go here).
    pub fn primary(&self) -> &Arc<ChServer> {
        &self.primary
    }

    /// The replicas.
    pub fn replicas(&self) -> &[Arc<ChServer>] {
        &self.replicas
    }

    /// Hosts of `[primary, replicas...]`.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// Pushes the primary's state to every replica, charging a per-replica
    /// propagation cost proportional to the snapshot size.
    pub fn propagate(&self) {
        let snapshot = self.primary.with_db(|db| db.snapshot());
        let (entries, aliases) = &snapshot;
        let size: usize = entries
            .iter()
            .map(|(n, e)| n.to_string().len() + e.len() * 16 + 8)
            .chain(
                aliases
                    .iter()
                    .map(|(alias, target)| alias.to_string().len() + target.to_string().len() + 8),
            )
            .sum();
        for replica in &self.replicas {
            // One courier round trip plus bytes on the wire per replica.
            self.world.charge_ms(
                self.world.costs.rpc_rtt_courier + self.world.costs.per_kb * size as f64 / 1024.0,
            );
            replica.with_db(|db| db.restore(snapshot.clone()));
        }
    }
}

impl std::fmt::Debug for ChCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChCluster")
            .field("replicas", &self.replicas.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ChDb;
    use crate::name::ThreePartName;
    use crate::property::PROP_ADDRESS;
    use wire::Value;

    fn server() -> Arc<ChServer> {
        ChServer::new("ch", ChDb::new(vec![("cs".into(), "uw".into())]))
    }

    fn cluster(world: &Arc<World>) -> ChCluster {
        let h0 = world.add_host("primary");
        let h1 = world.add_host("replica1");
        let h2 = world.add_host("replica2");
        ChCluster::new(
            Arc::clone(world),
            server(),
            h0,
            vec![(server(), h1), (server(), h2)],
        )
    }

    #[test]
    fn replicas_are_stale_until_propagation() {
        let world = World::paper();
        let c = cluster(&world);
        let name = ThreePartName::parse("fiji:cs:uw").expect("name");
        c.primary()
            .with_db(|db| db.set_item(&name, PROP_ADDRESS, Value::U32(1)))
            .expect("set");

        // Replica does not see the write yet.
        let stale = c.replicas()[0].with_db(|db| db.lookup(&name, PROP_ADDRESS));
        assert!(stale.is_err(), "replica should be stale");

        c.propagate();
        let fresh = c.replicas()[0]
            .with_db(|db| db.lookup(&name, PROP_ADDRESS))
            .expect("propagated");
        assert_eq!(fresh.as_item().expect("item"), &Value::U32(1));
    }

    #[test]
    fn propagation_charges_per_replica() {
        let world = World::paper();
        let c = cluster(&world);
        let name = ThreePartName::parse("fiji:cs:uw").expect("name");
        c.primary()
            .with_db(|db| db.set_item(&name, PROP_ADDRESS, Value::U32(1)))
            .expect("set");
        let (_, took, _) = world.measure(|| c.propagate());
        // Two replicas, one courier rtt each.
        assert!(took.as_ms_f64() >= 2.0 * 38.0, "took {took}");
    }

    #[test]
    fn accessors() {
        let world = World::paper();
        let c = cluster(&world);
        assert_eq!(c.replicas().len(), 2);
        assert_eq!(c.hosts().len(), 3);
    }
}
