//! A typed Clearinghouse client.

use std::collections::BTreeSet;
use std::sync::Arc;

use simnet::topology::HostId;
use simnet::trace::TraceKind;

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::server::Reply;
use hrpc::HrpcBinding;
use wire::{Message, Value};

use crate::auth::Credentials;
use crate::error::ChError;
use crate::name::ThreePartName;
use crate::property::{Property, PropertyId};
use crate::server::{
    Lookup, PROC_ADD_ALIAS, PROC_ADD_ENTRY, PROC_ADD_MEMBER, PROC_DELETE, PROC_LIST, PROC_LOOKUP,
    PROC_LOOKUP_RUN, PROC_SET_ITEM,
};

fn service_err(e: ChError) -> RpcError {
    RpcError::Service(e.to_string())
}

/// A client of one Clearinghouse server.
///
/// Reads can fail over: the Clearinghouse replicates each domain with
/// loose consistency, so any replica may answer a read. When replica
/// bindings are installed ([`ChClient::set_read_fallbacks`]) and the
/// primary is unreachable (crashed or partitioned under a `FaultPlan`),
/// `lookup`/`list` retry against the replicas in order. Writes always go
/// to the primary — replication is lazy, so a failed-over read may
/// observe pre-propagation state, exactly as the real system would.
pub struct ChClient {
    net: Arc<RpcNet>,
    host: HostId,
    server: HrpcBinding,
    creds: Credentials,
    fallbacks: Vec<HrpcBinding>,
}

impl ChClient {
    /// Creates a client on `host` with the given credentials.
    pub fn new(net: Arc<RpcNet>, host: HostId, server: HrpcBinding, creds: Credentials) -> Self {
        ChClient {
            net,
            host,
            server,
            creds,
            fallbacks: Vec::new(),
        }
    }

    /// Installs replica bindings that reads fail over to when the
    /// primary is unreachable (in order; replaces any previous set).
    pub fn set_read_fallbacks(&mut self, fallbacks: Vec<HrpcBinding>) {
        self.fallbacks = fallbacks;
    }

    /// Calls a read procedure, failing over to the installed replica
    /// bindings when the primary is unreachable. Returns the primary's
    /// error when every candidate is unreachable; a replica's
    /// non-transport error (e.g. `NotFound`) is returned as-is — the
    /// replica *answered*, it just didn't have the entry.
    fn call_read(&self, proc: u32, args: &dyn Message) -> RpcResult<Reply> {
        let primary = match self.net.call_msg(self.host, &self.server, proc, args) {
            Err(err) if err.is_unreachable() && !self.fallbacks.is_empty() => err,
            other => return other,
        };
        for replica in &self.fallbacks {
            if replica.host == self.server.host {
                continue;
            }
            match self.net.call_msg(self.host, replica, proc, args) {
                Err(err) if err.is_unreachable() => continue,
                other => {
                    let world = self.net.world();
                    world.metrics().inc("faults", "ch_read_failovers");
                    world.trace(Some(self.host), TraceKind::NameService, || {
                        format!(
                            "CH read failover: {} -> {} ({primary})",
                            self.server.host, replica.host
                        )
                    });
                    return other;
                }
            }
        }
        Err(primary)
    }

    fn base_args(&self, name: &ThreePartName) -> Vec<(&'static str, Value)> {
        vec![
            ("creds", self.creds.to_value()),
            ("name", Value::str(name.as_str())),
        ]
    }

    /// Reads one property: a [`Lookup`] out, the [`Property`] back.
    pub fn lookup(&self, name: &ThreePartName, prop: PropertyId) -> RpcResult<Property> {
        let request = Lookup {
            creds: self.creds.clone(),
            name: name.clone(),
            prop,
        };
        let reply = self.call_read(PROC_LOOKUP, &request)?;
        reply.read(Property::from_value).map_err(service_err)
    }

    /// Reads an item property's value.
    pub fn lookup_item(&self, name: &ThreePartName, prop: PropertyId) -> RpcResult<Value> {
        self.lookup(name, prop)?.into_item().map_err(service_err)
    }

    /// Reads the same item property for each of `names` in one RPC,
    /// returning the values of the longest prefix of `names` that
    /// exists (a shorter result means the run hit a missing entry).
    /// Rides the same read failover as [`ChClient::lookup`].
    pub fn lookup_item_run(
        &self,
        names: &[ThreePartName],
        prop: PropertyId,
    ) -> RpcResult<Vec<Value>> {
        let args = Value::record([
            ("creds", self.creds.to_value()),
            (
                "names",
                Value::List(names.iter().map(|n| Value::str(n.as_str())).collect()),
            ),
            ("prop", Value::U32(prop.0)),
        ]);
        let reply = self.call_read(PROC_LOOKUP_RUN, &args)?.into_value();
        Ok(reply.as_list()?.to_vec())
    }

    /// Reads a group property's members.
    pub fn lookup_group(
        &self,
        name: &ThreePartName,
        prop: PropertyId,
    ) -> RpcResult<BTreeSet<String>> {
        let p = self.lookup(name, prop)?;
        p.as_group().cloned().map_err(service_err)
    }

    /// Creates an entry.
    pub fn add_entry(&self, name: &ThreePartName) -> RpcResult<()> {
        let args = Value::record(self.base_args(name));
        self.net
            .call(self.host, &self.server, PROC_ADD_ENTRY, &args)?;
        Ok(())
    }

    /// Sets an item property.
    pub fn set_item(&self, name: &ThreePartName, prop: PropertyId, value: Value) -> RpcResult<()> {
        let mut args = self.base_args(name);
        args.push(("prop", Value::U32(prop.0)));
        args.push(("value", value));
        self.net
            .call(self.host, &self.server, PROC_SET_ITEM, &Value::record(args))?;
        Ok(())
    }

    /// Adds a group member.
    pub fn add_member(
        &self,
        name: &ThreePartName,
        prop: PropertyId,
        member: &str,
    ) -> RpcResult<()> {
        let mut args = self.base_args(name);
        args.push(("prop", Value::U32(prop.0)));
        args.push(("member", Value::str(member)));
        self.net.call(
            self.host,
            &self.server,
            PROC_ADD_MEMBER,
            &Value::record(args),
        )?;
        Ok(())
    }

    /// Deletes an entry.
    pub fn delete(&self, name: &ThreePartName) -> RpcResult<()> {
        let args = Value::record(self.base_args(name));
        self.net.call(self.host, &self.server, PROC_DELETE, &args)?;
        Ok(())
    }

    /// Installs an alias for an existing entry.
    pub fn add_alias(&self, alias: &ThreePartName, target: &ThreePartName) -> RpcResult<()> {
        let mut args = self.base_args(alias);
        args.push(("target", Value::str(target.as_str())));
        self.net.call(
            self.host,
            &self.server,
            PROC_ADD_ALIAS,
            &Value::record(args),
        )?;
        Ok(())
    }

    /// Enumerates entries whose object part matches `pattern` (literal or
    /// trailing-`*` wildcard).
    pub fn list(
        &self,
        domain: &str,
        organization: &str,
        pattern: &str,
    ) -> RpcResult<Vec<ThreePartName>> {
        let args = Value::record([
            ("creds", self.creds.to_value()),
            ("name", Value::str(format!("x:{domain}:{organization}"))),
            ("domain", Value::str(domain)),
            ("organization", Value::str(organization)),
            ("pattern", Value::str(pattern)),
        ]);
        let reply = self.call_read(PROC_LIST, &args)?.into_value();
        reply
            .as_list()?
            .iter()
            .map(|v| ThreePartName::parse(v.as_str()?).map_err(service_err))
            .collect()
    }
}

impl std::fmt::Debug for ChClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChClient")
            .field("host", &self.host)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ChDb;
    use crate::property::{PROP_ADDRESS, PROP_MEMBERS};
    use crate::server::{deploy, ChServer};
    use simnet::world::World;

    fn setup() -> (Arc<simnet::World>, ChClient) {
        let world = World::paper();
        let client_host = world.add_host("client");
        let ch_host = world.add_host("xerox-d0");
        let net = RpcNet::new(Arc::clone(&world));
        let server = ChServer::new("clearinghouse", ChDb::new(vec![("cs".into(), "uw".into())]));
        let identity = ThreePartName::parse("app:cs:uw").expect("name");
        server.register_key(identity.clone(), 7);
        let dep = deploy(&net, ch_host, server);
        let client = ChClient::new(net, client_host, dep.binding, Credentials::new(identity, 7));
        (world, client)
    }

    #[test]
    fn full_entry_lifecycle() {
        let (_world, client) = setup();
        let name = ThreePartName::parse("fiji:cs:uw").expect("name");
        client.add_entry(&name).expect("add entry");
        client
            .set_item(&name, PROP_ADDRESS, Value::U32(5))
            .expect("set");
        assert_eq!(
            client.lookup_item(&name, PROP_ADDRESS).expect("lookup"),
            Value::U32(5)
        );
        client
            .add_member(&name, PROP_MEMBERS, "alice:cs:uw")
            .expect("member");
        assert!(client
            .lookup_group(&name, PROP_MEMBERS)
            .expect("group")
            .contains("alice:cs:uw"));
        client.delete(&name).expect("delete");
        assert!(client.lookup(&name, PROP_ADDRESS).is_err());
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let (_world, client) = setup();
        let name = ThreePartName::parse("fiji:cs:uw").expect("name");
        client
            .set_item(&name, PROP_ADDRESS, Value::U32(5))
            .expect("set");
        assert!(client.lookup_group(&name, PROP_ADDRESS).is_err());
    }

    #[test]
    fn item_run_returns_the_existing_prefix_in_one_rpc() {
        let (world, client) = setup();
        let names: Vec<ThreePartName> = (0..4)
            .map(|i| ThreePartName::parse(&format!("link{i}:cs:uw")).expect("name"))
            .collect();
        for (i, n) in names[..2].iter().enumerate() {
            client
                .set_item(n, PROP_ADDRESS, Value::U32(i as u32))
                .expect("set");
        }
        let before = world.counters().ns_lookups;
        let run = client.lookup_item_run(&names, PROP_ADDRESS).expect("run");
        assert_eq!(world.counters().ns_lookups - before, 1, "one coalesced RPC");
        assert_eq!(
            run,
            vec![Value::U32(0), Value::U32(1)],
            "existing prefix only"
        );
        // A run headed by a missing entry is empty, not an error.
        let empty = client
            .lookup_item_run(&names[2..], PROP_ADDRESS)
            .expect("empty run");
        assert!(empty.is_empty());
    }

    #[test]
    fn each_access_is_slow() {
        let (world, client) = setup();
        let name = ThreePartName::parse("fiji:cs:uw").expect("name");
        client
            .set_item(&name, PROP_ADDRESS, Value::U32(5))
            .expect("set");
        let (_, took, _) = world.measure(|| client.lookup_item(&name, PROP_ADDRESS));
        assert!((took.as_ms_f64() - 156.0).abs() < 1.0, "took {took}");
    }
}

#[cfg(test)]
mod failover_tests {
    use super::*;
    use crate::db::ChDb;
    use crate::property::{PROP_ADDRESS, PROP_MEMBERS};
    use crate::replication::ChCluster;
    use crate::server::{deploy, ChServer};
    use hrpc::RpcError;
    use simnet::faults::FaultPlan;
    use simnet::world::World;

    struct Env {
        world: Arc<simnet::World>,
        cluster: ChCluster,
        client: ChClient,
        replica_binding: HrpcBinding,
        client_host: HostId,
        primary_host: HostId,
        name: ThreePartName,
    }

    /// A primary + one replica, the entry written to the primary but not
    /// yet propagated; the client points at the primary with no
    /// fallbacks installed.
    fn env() -> Env {
        let world = World::paper();
        let client_host = world.add_host("client");
        let primary_host = world.add_host("xerox-d0");
        let replica_host = world.add_host("xerox-d1");
        let net = RpcNet::new(Arc::clone(&world));
        let identity = ThreePartName::parse("app:cs:uw").expect("name");
        let domains = vec![("cs".to_string(), "uw".to_string())];
        let primary = ChServer::new("ch-primary", ChDb::new(domains.clone()));
        let replica = ChServer::new("ch-replica", ChDb::new(domains));
        primary.register_key(identity.clone(), 7);
        replica.register_key(identity.clone(), 7);
        let cluster = ChCluster::new(
            Arc::clone(&world),
            Arc::clone(&primary),
            primary_host,
            vec![(Arc::clone(&replica), replica_host)],
        );
        let pdep = deploy(&net, primary_host, primary);
        let rdep = deploy(&net, replica_host, replica);
        let client = ChClient::new(
            net,
            client_host,
            pdep.binding,
            Credentials::new(identity, 7),
        );
        let name = ThreePartName::parse("fiji:cs:uw").expect("name");
        client
            .set_item(&name, PROP_ADDRESS, Value::U32(5))
            .expect("write to primary");
        Env {
            world,
            cluster,
            client,
            replica_binding: rdep.binding,
            client_host,
            primary_host,
            name,
        }
    }

    fn crash_primary(env: &Env) {
        let mut plan = FaultPlan::new();
        plan.crash(env.primary_host, env.world.now(), None);
        env.world.set_faults(Some(plan));
    }

    /// Cuts the link between the client and the primary only: the
    /// primary is alive (other hosts still reach it) but this client
    /// cannot, which is the partition regime rather than a crash.
    fn partition_primary(env: &Env) {
        let mut plan = FaultPlan::new();
        plan.partition(env.client_host, env.primary_host, env.world.now(), None);
        env.world.set_faults(Some(plan));
    }

    #[test]
    fn reads_fail_over_to_a_replica_when_the_primary_crashes() {
        let mut env = env();
        env.cluster.propagate();
        crash_primary(&env);

        // Without fallbacks, a crashed primary is a typed fast failure.
        let err = env.client.lookup_item(&env.name, PROP_ADDRESS).unwrap_err();
        assert!(err.is_unreachable(), "{err}");

        // With the replica installed the read fails over…
        env.client.set_read_fallbacks(vec![env.replica_binding]);
        assert_eq!(
            env.client
                .lookup_item(&env.name, PROP_ADDRESS)
                .expect("served by replica"),
            Value::U32(5)
        );
        let snap = env.world.metrics().snapshot();
        assert_eq!(snap.counter("faults", "ch_read_failovers"), Some(1));

        // …while writes still go to the (crashed) primary only.
        let err = env
            .client
            .set_item(&env.name, PROP_ADDRESS, Value::U32(6))
            .unwrap_err();
        assert!(err.is_unreachable(), "writes must not fail over: {err}");

        // Healed: the primary answers again, no further failovers.
        env.world.set_faults(None);
        assert_eq!(
            env.client
                .lookup_item(&env.name, PROP_ADDRESS)
                .expect("healed"),
            Value::U32(5)
        );
        let snap = env.world.metrics().snapshot();
        assert_eq!(snap.counter("faults", "ch_read_failovers"), Some(1));
    }

    #[test]
    fn group_and_list_reads_fail_over_to_a_replica() {
        let mut env = env();
        env.client
            .add_member(&env.name, PROP_MEMBERS, "alice:cs:uw")
            .expect("write to primary");
        env.cluster.propagate();
        crash_primary(&env);
        env.client.set_read_fallbacks(vec![env.replica_binding]);

        // Both structured read shapes ride the same failover path as
        // item lookups: the group read and the enumeration are answered
        // by the replica.
        assert!(env
            .client
            .lookup_group(&env.name, PROP_MEMBERS)
            .expect("group served by replica")
            .contains("alice:cs:uw"));
        assert_eq!(
            env.client
                .list("cs", "uw", "fiji*")
                .expect("list served by replica"),
            vec![env.name.clone()]
        );
        let snap = env.world.metrics().snapshot();
        assert_eq!(snap.counter("faults", "ch_read_failovers"), Some(2));
    }

    #[test]
    fn a_partitioned_primary_fails_writes_but_serves_reads_from_a_replica() {
        // The partition regime, not a crash: the primary is alive but
        // unreachable from this client. Every read shape keeps
        // answering via the replica while every write surfaces
        // `RpcError::HostUnreachable` — degraded, never silently lost.
        let mut env = env();
        env.client
            .add_member(&env.name, PROP_MEMBERS, "alice:cs:uw")
            .expect("write to primary");
        env.cluster.propagate();
        partition_primary(&env);
        env.client.set_read_fallbacks(vec![env.replica_binding]);

        assert_eq!(
            env.client
                .lookup_item(&env.name, PROP_ADDRESS)
                .expect("item read served by replica"),
            Value::U32(5)
        );
        assert!(env
            .client
            .lookup_group(&env.name, PROP_MEMBERS)
            .expect("group read served by replica")
            .contains("alice:cs:uw"));
        assert_eq!(
            env.client
                .list("cs", "uw", "*")
                .expect("list served by replica"),
            vec![env.name.clone()]
        );

        for (what, result) in [
            (
                "set_item",
                env.client.set_item(&env.name, PROP_ADDRESS, Value::U32(6)),
            ),
            (
                "add_member",
                env.client.add_member(&env.name, PROP_MEMBERS, "bob:cs:uw"),
            ),
            ("delete", env.client.delete(&env.name)),
        ] {
            let err = result.expect_err(what);
            assert!(
                matches!(err, RpcError::HostUnreachable { .. }),
                "{what}: writes surface typed unreachability, got {err}"
            );
        }

        // Healed: the write path works again.
        env.world.set_faults(None);
        env.client
            .set_item(&env.name, PROP_ADDRESS, Value::U32(6))
            .expect("write after heal");
    }

    #[test]
    fn failed_over_reads_may_observe_pre_propagation_state() {
        // The write has not been propagated: a failed-over read gets the
        // replica's answer — "no such property" — not a transport error.
        // That is the loose-consistency regime the paper's Clearinghouse
        // inherits, surfaced under faults.
        let mut env = env();
        crash_primary(&env);
        env.client.set_read_fallbacks(vec![env.replica_binding]);
        let err = env.client.lookup_item(&env.name, PROP_ADDRESS).unwrap_err();
        assert!(!err.is_unreachable(), "the replica answered: {err}");

        // After propagation the same failed-over read sees the write.
        env.cluster.propagate();
        assert_eq!(
            env.client
                .lookup_item(&env.name, PROP_ADDRESS)
                .expect("propagated"),
            Value::U32(5)
        );
    }

    #[test]
    fn a_failed_over_read_through_an_alias_is_served_by_the_replica() {
        // Propagation carries the alias table: with the primary crashed,
        // the replica resolves the alias as the primary did — a stale
        // answer at worst, never `NotFound` for a name that exists.
        let mut env = env();
        let alias = ThreePartName::parse("hub:cs:uw").expect("name");
        env.client.add_alias(&alias, &env.name).expect("alias");
        env.cluster.propagate();
        crash_primary(&env);
        env.client.set_read_fallbacks(vec![env.replica_binding]);
        assert_eq!(
            env.client
                .lookup_item(&alias, PROP_ADDRESS)
                .expect("served by replica through the alias"),
            Value::U32(5)
        );
        let snap = env.world.metrics().snapshot();
        assert_eq!(snap.counter("faults", "ch_read_failovers"), Some(1));
    }

    #[test]
    fn fallback_on_the_primary_host_is_skipped() {
        // A fallback that points back at the primary's host cannot help
        // (same crash domain) and must not burn a retry.
        let mut env = env();
        env.cluster.propagate();
        crash_primary(&env);
        let primary_binding = {
            // Re-use the client's own server binding as the degenerate
            // fallback.
            env.client.server
        };
        env.client.set_read_fallbacks(vec![primary_binding]);
        let err = env.client.lookup_item(&env.name, PROP_ADDRESS).unwrap_err();
        assert!(err.is_unreachable(), "{err}");
        let snap = env.world.metrics().snapshot();
        assert_eq!(snap.counter("faults", "ch_read_failovers"), None);
    }
}

#[cfg(test)]
mod alias_list_tests {
    use super::*;
    use crate::db::ChDb;
    use crate::property::PROP_ADDRESS;
    use crate::server::{deploy, ChServer};
    use simnet::world::World;

    fn setup() -> ChClient {
        let world = World::paper();
        let client_host = world.add_host("client");
        let ch_host = world.add_host("xerox-d0");
        let net = RpcNet::new(Arc::clone(&world));
        let server = ChServer::new("clearinghouse", ChDb::new(vec![("cs".into(), "uw".into())]));
        let identity = ThreePartName::parse("app:cs:uw").expect("name");
        server.register_key(identity.clone(), 7);
        let dep = deploy(&net, ch_host, server);
        ChClient::new(net, client_host, dep.binding, Credentials::new(identity, 7))
    }

    #[test]
    fn alias_and_list_through_the_wire() {
        let client = setup();
        let printer = ThreePartName::parse("printer1:cs:uw").expect("name");
        client
            .set_item(&printer, PROP_ADDRESS, Value::U32(9))
            .expect("set");
        let alias = ThreePartName::parse("lp:cs:uw").expect("name");
        client.add_alias(&alias, &printer).expect("alias");
        assert_eq!(
            client.lookup_item(&alias, PROP_ADDRESS).expect("via alias"),
            Value::U32(9)
        );

        let names = client.list("cs", "uw", "printer*").expect("list");
        assert_eq!(names, vec![printer]);
    }

    #[test]
    fn a_write_through_an_alias_is_read_back_under_both_names() {
        let client = setup();
        let printer = ThreePartName::parse("printer1:cs:uw").expect("name");
        client
            .set_item(&printer, PROP_ADDRESS, Value::U32(7))
            .expect("set");
        let alias = ThreePartName::parse("lp:cs:uw").expect("name");
        client.add_alias(&alias, &printer).expect("alias");
        // Acknowledged, so it must be visible — under either name.
        client
            .set_item(&alias, PROP_ADDRESS, Value::U32(9))
            .expect("set via alias");
        for asked in [&alias, &printer] {
            assert_eq!(
                client.lookup_item(asked, PROP_ADDRESS).expect("lookup"),
                Value::U32(9),
                "{asked}"
            );
        }
        assert_eq!(client.list("cs", "uw", "*").expect("list"), vec![printer]);
    }

    #[test]
    fn alias_to_missing_target_is_lazy() {
        // Clearinghouse aliases are name-level: the target need not exist
        // yet, but lookups through the alias fail until it does.
        let client = setup();
        let alias = ThreePartName::parse("lp:cs:uw").expect("name");
        let target = ThreePartName::parse("ghost:cs:uw").expect("name");
        client
            .add_alias(&alias, &target)
            .expect("alias to missing target");
        assert!(client.lookup_item(&alias, PROP_ADDRESS).is_err());
    }
}
