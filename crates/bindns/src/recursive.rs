//! Iterative resolution across delegated zones.
//!
//! The flat HCS testbed needs only one public BIND, but real BIND
//! deployments form a delegation tree: a parent zone holds `NS` records at
//! each zone cut and glue addresses for the delegated servers. The
//! [`RecursiveResolver`] chases referrals downward until an authoritative
//! answer arrives — and keeps what the referrals taught it: each one is
//! cached under its cut, and a later miss starts at the deepest cached
//! cut enclosing the name instead of at the root (RFC 1034 §5.3.3, "find
//! the best servers to ask"). DESIGN.md "Iterative resolution keeps what
//! referrals teach it" is the spec.

use std::sync::Arc;

use simnet::costs::Term;
use simnet::obs::LazyCounter;
use simnet::time::SimTime;
use simnet::topology::HostId;
use simnet::world::World;

use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::{ComponentSet, HrpcBinding};

use crate::cache::{Entry, TtlCache};
use crate::error::{NsError, Rcode};
use crate::message::{decoded, Answer, Question, PROC_QUERY};
use crate::name::DomainName;
use crate::rr::{RData, RType, Records, ResourceRecord};
use crate::server::DNS_PORT;

/// Maximum servers asked in one walk before reporting a delegation loop.
pub const MAX_REFERRALS: usize = 8;

/// A resolver that chases referrals from a root server.
pub struct RecursiveResolver {
    net: Arc<RpcNet>,
    host: HostId,
    root: HrpcBinding,
    /// Answers, under (question name, type).
    cache: Arc<TtlCache>,
    /// Referral record sets (the cut's `NS` + glue `A`), under
    /// (cut name, `NS`).
    cuts: Arc<TtlCache>,
    cut_fallbacks: LazyCounter,
}

/// Where a walk stands: a zone, as its depth in labels (every zone a
/// walk visits encloses the question name, so depth orders them), and the
/// server to ask about it.
#[derive(Clone, Copy)]
struct Hop {
    depth: usize,
    server: HrpcBinding,
}

/// A walk that produced no records.
struct WalkError {
    error: RpcError,
    /// The walk hit a server that was unreachable, not authoritative, or
    /// referred no deeper: a delegation learnt afresh might do better.
    dead_end: bool,
}

impl WalkError {
    /// An error no other route to the name would change.
    fn conclusive(error: RpcError) -> Self {
        WalkError {
            error,
            dead_end: false,
        }
    }
}

impl RecursiveResolver {
    /// Creates a resolver on `host` rooted at `root` (a native-DNS
    /// binding of the topmost server).
    pub fn new(net: Arc<RpcNet>, host: HostId, root: HrpcBinding) -> Self {
        let cache = TtlCache::exported(net.world(), "bindns_recursive_cache");
        let cuts = TtlCache::exported(net.world(), "bindns_cut_cache");
        RecursiveResolver {
            net,
            host,
            root,
            cache,
            cuts,
            cut_fallbacks: LazyCounter::new(),
        }
    }

    fn ask(&self, server: &HrpcBinding, question: &Question) -> RpcResult<Answer> {
        let decode = decoded(Answer::from_value);
        let answer = (self.net).call_msg(self.host, server, PROC_QUERY, question, decode)?;
        let world = self.net.world();
        world.charge(Term::FastMarshal {
            rrs: answer.records.len(),
        });
        Ok(answer)
    }

    /// Picks the next server from a referral's NS + glue records.
    fn next_server(referral: &[ResourceRecord]) -> RpcResult<HrpcBinding> {
        for rr in referral.iter().filter(|r| r.rtype == RType::Ns) {
            let RData::Domain(target) = &rr.rdata else {
                continue;
            };
            // Glue: an A record for the target among the referral records.
            let glue = referral
                .iter()
                .find(|g| g.rtype == RType::A && g.name == *target);
            if let Some(glue) = glue {
                if let RData::Addr(addr) = &glue.rdata {
                    return Ok(HrpcBinding {
                        host: addr.host,
                        addr: *addr,
                        program: crate::server::BIND_PROGRAM,
                        port: DNS_PORT,
                        components: ComponentSet::native_dns(DNS_PORT),
                    });
                }
            }
        }
        Err(RpcError::Service("referral without usable glue".into()))
    }

    /// The cut a referral delegates, if it may be followed: one cut, which
    /// encloses `name` (bailiwick) and lies strictly below the zone of
    /// `depth` labels whose server sent it (progress).
    fn referred_cut<'r>(
        referral: &'r [ResourceRecord],
        name: &DomainName,
        depth: usize,
    ) -> Option<&'r DomainName> {
        let mut ns = referral.iter().filter(|r| r.rtype == RType::Ns);
        let cut = &ns.next()?.name;
        (ns.all(|r| r.name == *cut) && name.is_within(cut) && cut.depth() > depth).then_some(cut)
    }

    /// The deepest cached cut enclosing `name` — its text, a suffix of
    /// the name's, and where it sends a walk. Ancestors are probed
    /// deepest-first, the name itself included (a cut may sit at the
    /// question name), on borrowed text: no `DomainName` is built and
    /// nothing is allocated to probe.
    fn deepest_cut<'n>(
        &self,
        world: &World,
        now: SimTime,
        name: &'n DomainName,
    ) -> Option<(&'n str, Hop)> {
        if name.is_root() {
            return None;
        }
        let mut cut = name.as_str();
        let mut depth = name.depth();
        loop {
            world.charge(Term::CacheProbe);
            if let Some(referral) = self.cuts.get_text(now, cut, RType::Ns) {
                world.charge(Term::CacheHit {
                    form: simnet::CacheForm::Demarshalled,
                    rrs: referral.len(),
                });
                // Only referrals with usable glue are ever stored.
                let server = Self::next_server(&referral).ok()?;
                return Some((cut, Hop { depth, server }));
            }
            cut = cut.split_once('.')?.1;
            depth -= 1;
        }
    }

    /// Asks `at.server` and follows referrals downward until a server
    /// answers for itself, keeping every referral followed.
    fn walk(&self, question: &Question, mut at: Hop) -> Result<Records, WalkError> {
        let world = self.net.world();
        let name = &question.name;
        for _ in 0..MAX_REFERRALS {
            let answer = self.ask(&at.server, question).map_err(|error| WalkError {
                dead_end: error.is_unreachable(),
                error,
            })?;
            if answer.rcode != Rcode::Referral {
                let dead_end = answer.rcode == Rcode::NotAuth;
                return answer.into_result(question).map_err(|e| WalkError {
                    error: match e {
                        NsError::NameError(n) | NsError::NoData(n) => RpcError::NotFound(n),
                        other => RpcError::Service(other.to_string()),
                    },
                    dead_end,
                });
            }
            let referral: Arc<[ResourceRecord]> = answer.records.whole().collect();
            let Some(cut) = Self::referred_cut(&referral, name, at.depth) else {
                return Err(WalkError {
                    error: RpcError::Service(format!(
                        "refused a referral resolving {name}: referrals must name one \
                         deeper cut that encloses the question"
                    )),
                    dead_end: true,
                });
            };
            at = Hop {
                depth: cut.depth(),
                server: Self::next_server(&referral).map_err(WalkError::conclusive)?,
            };
            let cut = cut.clone();
            self.cuts.insert(world.now(), cut, RType::Ns, referral);
        }
        Err(WalkError::conclusive(RpcError::Service(format!(
            "more than {MAX_REFERRALS} referrals resolving {name}"
        ))))
    }

    /// Resolves `name`/`rtype`: from the answer cache, else by a walk of
    /// at most [`MAX_REFERRALS`] servers from the deepest cached cut. A
    /// walk from a cached cut that dead-ends costs that cut its entry and
    /// is retried from the root, once.
    pub fn resolve(&self, name: &DomainName, rtype: RType) -> RpcResult<Records> {
        self.lookup(name, rtype, |entry| entry.to_records(|| name.clone()))
    }

    /// [`RecursiveResolver::resolve`] as a shared set of whole records: a
    /// hit shares the cached set, and a one-record set, which the cache
    /// keeps as its body, is rebuilt on `name`.
    ///
    /// Pinned by `benchmark/`; goes in ROADMAP item 1(c).
    pub fn query(&self, name: &DomainName, rtype: RType) -> RpcResult<Arc<[ResourceRecord]>> {
        let entry = self.lookup(name, rtype, Entry::clone)?;
        Ok(entry.records(|| name.clone()))
    }

    /// The one lookup under [`RecursiveResolver::resolve`] and
    /// [`RecursiveResolver::query`]: probes the answer cache and hands a
    /// live entry to `read` in place, charging the probe and a
    /// demarshalled hit of the set's length; on a miss walks, files the
    /// answer and reads it.
    fn lookup<T>(
        &self,
        name: &DomainName,
        rtype: RType,
        read: impl Fn(&Entry) -> T,
    ) -> RpcResult<T> {
        let world = self.net.world();
        world.charge(Term::CacheProbe);
        let now = world.now();
        let read = |entry: &Entry| (entry.len(), read(entry));
        if let Some((rrs, value)) = self.cache.read(now, name.as_str(), rtype, read) {
            let form = simnet::CacheForm::Demarshalled;
            world.charge(Term::CacheHit { form, rrs });
            return Ok(value);
        }
        let question = Question::new(name.clone(), rtype);
        let root = Hop {
            depth: 0,
            server: self.root,
        };
        let start = self.deepest_cut(world, now, name);
        let mut walked = self.walk(&question, start.map_or(root, |(_, hop)| hop));
        if let (Some((cut, _)), Err(WalkError { dead_end: true, .. })) = (start, &walked) {
            self.cuts.discard(cut, RType::Ns);
            self.cut_fallbacks
                .get(world.metrics(), "bind_resolver", "cut_fallbacks")
                .inc();
            walked = self.walk(&question, root);
        }
        let records: Arc<[ResourceRecord]> = walked.map_err(|e| e.error)?.whole().collect();
        let (_, value) = read(&Entry::Records(Arc::clone(&records)));
        self.cache.insert(world.now(), name.clone(), rtype, records);
        Ok(value)
    }

    /// The answer cache's statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }
}

impl std::fmt::Debug for RecursiveResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecursiveResolver")
            .field("host", &self.host)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ZoneDb;
    use crate::server::{deploy, single_zone_server, BindDeployment, BIND_PROGRAM};
    use crate::zone::Zone;
    use hrpc::server::{CallCtx, RpcService};
    use simnet::faults::FaultPlan;
    use simnet::time::SimDuration;
    use simnet::topology::NetAddr;
    use simnet::world::World;
    use wire::Value;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    /// The delegation of `cut` to `server` at `host`: NS plus glue.
    fn delegate(zone: &mut Zone, cut: &str, server: &str, host: HostId, ttl: u32) {
        zone.add(ResourceRecord {
            name: name(cut),
            rtype: RType::Ns,
            ttl,
            rdata: RData::Domain(name(server)),
        })
        .expect("ns");
        zone.add(ResourceRecord::a(name(server), ttl, NetAddr::of(host)))
            .expect("glue");
    }

    struct Tree {
        world: Arc<World>,
        net: Arc<RpcNet>,
        client: HostId,
        root: HrpcBinding,
        uw: BindDeployment,
        cs: BindDeployment,
        fiji: HostId,
    }

    impl Tree {
        fn resolver(&self) -> RecursiveResolver {
            RecursiveResolver::new(Arc::clone(&self.net), self.client, self.root)
        }

        /// Remote calls one query makes, which must succeed.
        fn calls(&self, resolver: &RecursiveResolver, target: &str) -> u64 {
            let (r, _, delta) = self
                .world
                .measure(|| resolver.resolve(&name(target), RType::A));
            r.unwrap_or_else(|e| panic!("{target}: {e}"));
            delta.remote_calls
        }

        fn cut_fallbacks(&self) -> Option<u64> {
            self.world
                .metrics()
                .snapshot()
                .counter("bind_resolver", "cut_fallbacks")
        }

        /// Moves `cs.washington.edu` to a new server: the parent
        /// re-delegates, the new server holds the zone.
        fn redelegate_cs(&self) -> BindDeployment {
            let host = self.world.add_host("ns2.cs.washington.edu");
            self.uw.server.with_db(|db| {
                let uw_zone = db.zone_mut(&name("washington.edu")).expect("uw zone");
                uw_zone.remove(&name("cs.washington.edu"), RType::Ns);
                delegate(
                    uw_zone,
                    "cs.washington.edu",
                    "ns2.cs.washington.edu",
                    host,
                    86_400,
                );
            });
            deploy(
                &self.net,
                host,
                single_zone_server("cs2", cs_zone(self.fiji), false),
            )
        }
    }

    fn cs_zone(fiji: HostId) -> Zone {
        let mut zone = Zone::new(name("cs.washington.edu"), 86_400);
        for leaf in ["fiji.cs.washington.edu", "june.cs.washington.edu"] {
            zone.add(ResourceRecord::a(name(leaf), 3600, NetAddr::of(fiji)))
                .expect("leaf");
        }
        zone
    }

    /// Builds a three-level delegation: root("edu") -> washington.edu ->
    /// cs.washington.edu, each zone on its own server.
    fn tree() -> Tree {
        let world = World::paper();
        let client = world.add_host("client");
        let root_host = world.add_host("a.root-servers.net");
        let uw_host = world.add_host("ns.washington.edu");
        let cs_host = world.add_host("ns.cs.washington.edu");
        let fiji = world.add_host("fiji.cs.washington.edu");
        let net = RpcNet::new(Arc::clone(&world));

        let mut root_zone = Zone::new(name("edu"), 86_400);
        delegate(
            &mut root_zone,
            "washington.edu",
            "ns.washington.edu",
            uw_host,
            86_400,
        );
        let root_dep = deploy(
            &net,
            root_host,
            single_zone_server("root", root_zone, false),
        );

        let mut uw_zone = Zone::new(name("washington.edu"), 86_400);
        delegate(
            &mut uw_zone,
            "cs.washington.edu",
            "ns.cs.washington.edu",
            cs_host,
            86_400,
        );
        uw_zone
            .add(ResourceRecord::a(
                name("www.washington.edu"),
                3600,
                NetAddr::of(uw_host),
            ))
            .expect("own data");
        let uw = deploy(&net, uw_host, single_zone_server("uw", uw_zone, false));
        let cs = deploy(
            &net,
            cs_host,
            single_zone_server("cs", cs_zone(fiji), false),
        );

        Tree {
            world,
            net,
            client,
            root: root_dep.std_binding,
            uw,
            cs,
            fiji,
        }
    }

    #[test]
    fn resolves_through_two_referrals() {
        let t = tree();
        let resolver = t.resolver();
        let (records, took, delta) = t
            .world
            .measure(|| resolver.resolve(&name("fiji.cs.washington.edu"), RType::A));
        let records = records.expect("resolved");
        assert_eq!(records.len(), 1);
        match &records.bodies()[0].rdata {
            RData::Addr(addr) => assert_eq!(addr.host, t.fiji),
            other => panic!("unexpected {other:?}"),
        }
        // Three servers were consulted: root, uw, cs.
        assert_eq!(delta.remote_calls, 3);
        assert_eq!(delta.ns_lookups, 3);
        assert!(took.as_ms_f64() > 3.0 * 26.0, "took {took}");
    }

    #[test]
    fn mid_tree_data_needs_one_referral() {
        let t = tree();
        let records = t
            .resolver()
            .resolve(&name("www.washington.edu"), RType::A)
            .expect("resolved");
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn missing_leaf_reports_not_found_from_authoritative_server() {
        let t = tree();
        let resolver = t.resolver();
        assert!(matches!(
            resolver.resolve(&name("ghost.cs.washington.edu"), RType::A),
            Err(RpcError::NotFound(_))
        ));
        // From the cut's server too: its NameError is authoritative, not
        // a reason to distrust the delegation.
        let (r, _, delta) = t
            .world
            .measure(|| resolver.resolve(&name("ghoul.cs.washington.edu"), RType::A));
        assert!(matches!(r, Err(RpcError::NotFound(_))));
        assert_eq!(delta.remote_calls, 1);
        assert_eq!(t.cut_fallbacks(), None);
    }

    #[test]
    fn answers_are_cached() {
        let t = tree();
        let resolver = t.resolver();
        resolver
            .resolve(&name("fiji.cs.washington.edu"), RType::A)
            .expect("cold");
        let (r, took, delta) = t
            .world
            .measure(|| resolver.resolve(&name("fiji.cs.washington.edu"), RType::A));
        assert!(r.is_ok());
        assert_eq!(delta.remote_calls, 0);
        assert!(took.as_ms_f64() < 2.0);
        assert_eq!(resolver.cache_stats().hits, 1);
    }

    #[test]
    fn a_miss_starts_at_the_deepest_cached_cut() {
        let t = tree();
        let resolver = t.resolver();
        assert_eq!(t.calls(&resolver, "fiji.cs.washington.edu"), 3);
        // A sibling under the same cut goes straight to the cut's server,
        // and a name the middle zone holds itself to that zone's.
        assert_eq!(t.calls(&resolver, "june.cs.washington.edu"), 1);
        assert_eq!(t.calls(&resolver, "www.washington.edu"), 1);
        // The answer cache's view is its own: three misses, no hits.
        let stats = resolver.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
        assert_eq!(t.cut_fallbacks(), None);
    }

    #[test]
    fn an_expired_cut_sends_the_next_miss_back_through_the_root() {
        let t = tree();
        let resolver = t.resolver();
        assert_eq!(t.calls(&resolver, "fiji.cs.washington.edu"), 3);
        // Just short of the referrals' TTL the cuts still serve...
        t.world.wait(SimDuration::from_ms(86_300_000));
        assert_eq!(t.calls(&resolver, "june.cs.washington.edu"), 1);
        // ...past it (fiji's own hour is long gone) the walk is whole again,
        // and relearns them.
        t.world.wait(SimDuration::from_ms(200_000));
        assert_eq!(t.calls(&resolver, "fiji.cs.washington.edu"), 3);
        t.world.wait(SimDuration::from_ms(3_700_000));
        assert_eq!(t.calls(&resolver, "fiji.cs.washington.edu"), 1);
        assert_eq!(t.cut_fallbacks(), None);
    }

    #[test]
    fn a_lame_cut_is_replaced_after_one_restart_from_the_root() {
        let t = tree();
        let resolver = t.resolver();
        assert_eq!(t.calls(&resolver, "fiji.cs.washington.edu"), 3);
        t.redelegate_cs();
        // The old server dropped the zone and is authoritative for nothing.
        t.cs.server.with_db(|db| *db = ZoneDb::new());
        // One call to learn the cached cut is lame (NotAuth), three for
        // the walk from the root, which replaces it.
        assert_eq!(t.calls(&resolver, "june.cs.washington.edu"), 1 + 3);
        assert_eq!(t.cut_fallbacks(), Some(1));
        t.world.wait(SimDuration::from_ms(3_700_000));
        assert_eq!(t.calls(&resolver, "fiji.cs.washington.edu"), 1);
        assert_eq!(t.cut_fallbacks(), Some(1));
    }

    /// One step of the readers' comparison: the records answered, whole,
    /// the virtual time and remote calls it took, the cut fallbacks
    /// counted, and the answer cache's statistics after it.
    type Seen = (
        RpcResult<Vec<ResourceRecord>>,
        simnet::time::SimDuration,
        u64,
        Option<u64>,
        crate::cache::CacheStats,
    );

    /// A script on a fresh tree, each step through the pinned `query`
    /// or through `resolve`: a miss through two referrals and its hit, a
    /// `CNAME` set the cut's server answers (two owners) and its hit, a
    /// name not there, and a sibling asked through a lame cut, which
    /// falls back to the root.
    fn readers(via_resolve: bool) -> Vec<Seen> {
        let t = tree();
        t.cs.server.with_db(|db| {
            let zone = db.zone_mut(&name("cs.washington.edu")).expect("cs zone");
            let (www, fiji) = (
                name("www.cs.washington.edu"),
                name("fiji.cs.washington.edu"),
            );
            zone.add(ResourceRecord::cname(www, 600, fiji))
                .expect("alias");
        });
        let resolver = t.resolver();
        let mut seen = Vec::new();
        let mut step = |target: &str| {
            let ask = || -> RpcResult<Vec<ResourceRecord>> {
                if via_resolve {
                    Ok(resolver.resolve(&name(target), RType::A)?.whole().collect())
                } else {
                    Ok(resolver.query(&name(target), RType::A)?.to_vec())
                }
            };
            let (answer, took, delta) = t.world.measure(ask);
            let stats = resolver.cache_stats();
            seen.push((answer, took, delta.remote_calls, t.cut_fallbacks(), stats));
        };
        for target in [
            "fiji.cs.washington.edu",
            "fiji.cs.washington.edu",
            "www.cs.washington.edu",
            "www.cs.washington.edu",
            "ghost.cs.washington.edu",
        ] {
            step(target);
        }
        t.redelegate_cs();
        t.cs.server.with_db(|db| *db = ZoneDb::new());
        step("june.cs.washington.edu");
        seen
    }

    /// `resolve` is `query` in another form: the same records, virtual
    /// time, calls, counters and cache statistics at every step.
    #[test]
    fn resolve_answers_and_charges_as_query_does() {
        let by_resolve = readers(true);
        assert_eq!(by_resolve, readers(false));
        let calls: Vec<_> = by_resolve.iter().map(|(_, _, calls, ..)| *calls).collect();
        assert_eq!(calls, [3, 0, 1, 0, 1, 1 + 3]);
        let www = by_resolve[2].0.as_ref().expect("the alias");
        let owners: Vec<_> = www.iter().map(|r| (r.name.as_str(), r.rtype)).collect();
        assert_eq!(
            owners,
            [
                ("www.cs.washington.edu", RType::Cname),
                ("fiji.cs.washington.edu", RType::A)
            ]
        );
        assert_eq!(
            by_resolve[3].0, by_resolve[2].0,
            "the hit keeps both owners"
        );
        assert!(matches!(by_resolve[4].0, Err(RpcError::NotFound(_))));
        assert_eq!(by_resolve[5].3, Some(1), "the lame cut fell back");
        let stats = by_resolve[5].4;
        assert_eq!((stats.hits, stats.misses), (2, 4));
    }

    #[test]
    fn a_crashed_cut_server_costs_one_restart_and_fails_only_if_that_fails() {
        let t = tree();
        let resolver = t.resolver();
        assert_eq!(t.calls(&resolver, "fiji.cs.washington.edu"), 3);
        let moved = t.redelegate_cs();
        let mut plan = FaultPlan::new();
        plan.crash(t.cs.host, t.world.now(), None);
        t.world.set_faults(Some(plan.clone()));
        // The cached cut's server is down; the delegation learnt afresh
        // names one that is up.
        resolver
            .resolve(&name("june.cs.washington.edu"), RType::A)
            .expect("resolved through the new delegation");
        assert_eq!(t.cut_fallbacks(), Some(1));

        // Now the new server is down too: the cached cut fails, the walk
        // from the root ends at the same dead host, and that is the answer.
        plan.crash(moved.host, t.world.now(), None);
        t.world.set_faults(Some(plan));
        t.world.wait(SimDuration::from_ms(3_700_000));
        let err = resolver
            .resolve(&name("fiji.cs.washington.edu"), RType::A)
            .unwrap_err();
        assert!(err.is_unreachable(), "{err}");
        assert_eq!(t.cut_fallbacks(), Some(2));
    }

    /// 10^4 names never seen before each go straight to the cut's server,
    /// and neither cache keeps anything of them: no answer of absence, no
    /// cut beyond the two learnt on the way to the first name.
    #[test]
    fn names_never_seen_go_straight_to_the_cut_and_leave_nothing_cached() {
        let t = tree();
        let resolver = t.resolver();
        assert_eq!(t.calls(&resolver, "fiji.cs.washington.edu"), 3);
        assert_eq!(t.calls(&resolver, "june.cs.washington.edu"), 1);
        let calls_before = t.world.counters().remote_calls;
        for i in 0..10_000 {
            let ghost = name(&format!("host-{i}.lab-{i}.cs.washington.edu"));
            assert!(matches!(
                resolver.resolve(&ghost, RType::A),
                Err(RpcError::NotFound(_))
            ));
        }
        assert_eq!(t.world.counters().remote_calls - calls_before, 10_000);
        assert_eq!(
            (resolver.cache.resident(), resolver.cuts.resident()),
            (2, 2)
        );
    }

    /// A server that holds an address for every name it is asked about.
    struct Anything;

    impl RpcService for Anything {
        fn service_name(&self) -> &str {
            "anything"
        }

        fn dispatch(&self, _ctx: &CallCtx<'_>, _proc_id: u32, args: &Value) -> RpcResult<Value> {
            let question = Question::from_value(args)?;
            let record = ResourceRecord::a(question.name, 600, NetAddr::of(HostId(1)));
            let answer = Answer::ok([record].into_iter().collect()).to_value();
            answer.map_err(|e| RpcError::Service(e.to_string()))
        }
    }

    /// Ten times the capacity in distinct names, the clock advancing with
    /// every round trip: the answer cache stays within its bound by
    /// shedding what has expired, pins nothing outside itself, and still
    /// serves stale from what it has not swept.
    #[test]
    fn ten_capacities_of_distinct_names_stay_within_the_bound() {
        const CAPACITY: usize = simnet::ttl::CAPACITY;
        let world = World::paper();
        let client = world.add_host("client");
        let server = world.add_host("server");
        let net = RpcNet::new(Arc::clone(&world));
        net.export_at(server, DNS_PORT, BIND_PROGRAM, Arc::new(Anything));
        let root = HrpcBinding {
            host: server,
            addr: NetAddr::of(server),
            program: BIND_PROGRAM,
            port: DNS_PORT,
            components: ComponentSet::native_dns(DNS_PORT),
        };
        let resolver = RecursiveResolver::new(net, client, root);
        let mut peak = 0;
        for i in 0..10 * CAPACITY {
            let n = name(&format!("n{i}.flood.edu"));
            resolver.resolve(&n, RType::A).expect("answered");
            peak = peak.max(resolver.cache.resident());
        }
        assert!(peak <= CAPACITY, "{peak} resident");
        let stats = resolver.cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 10 * CAPACITY as u64));

        // The newest entry outlives its TTL unswept — nothing is inserted
        // after it — and is there for the serve-stale fallback.
        let last = name(&format!("n{}.flood.edu", 10 * CAPACITY - 1));
        world.wait(SimDuration::from_ms(601_000));
        assert!(resolver.cache.get(world.now(), &last, RType::A).is_none());
        assert!(resolver
            .cache
            .get_stale(world.now(), &last, RType::A)
            .is_some());

        let snap = world.metrics().snapshot();
        let row = |name| snap.counter("bindns_recursive_cache", name);
        assert!(row("evictions") >= Some(9 * CAPACITY as u64));
        assert_eq!(row("resident"), Some(resolver.cache.resident() as u64));
    }

    /// A server that answers every query with one fixed answer.
    struct Scripted(Answer);

    impl RpcService for Scripted {
        fn service_name(&self) -> &str {
            "scripted"
        }

        fn dispatch(&self, _ctx: &CallCtx<'_>, _proc_id: u32, _args: &Value) -> RpcResult<Value> {
            self.0
                .to_value()
                .map_err(|e| RpcError::Service(e.to_string()))
        }
    }

    /// The server for `a.edu`, asked about `x.a.edu`, refers sideways,
    /// upward or to its own cut: refused after that one round trip, and
    /// nothing it said is kept.
    #[test]
    fn a_referral_that_makes_no_progress_is_refused_at_once() {
        for bad_cut in ["b.edu", "edu", "a.edu"] {
            let world = World::paper();
            let client = world.add_host("client");
            let root_host = world.add_host("root");
            let evil_host = world.add_host("ns.a.edu");
            let net = RpcNet::new(Arc::clone(&world));
            let mut root_zone = Zone::new(name("edu"), 60);
            delegate(&mut root_zone, "a.edu", "ns.a.edu", evil_host, 60);
            let root = deploy(
                &net,
                root_host,
                single_zone_server("root", root_zone, false),
            );
            let mut referral = Zone::new(name("edu"), 60);
            delegate(&mut referral, bad_cut, "ns.evil.edu", evil_host, 60);
            net.export_at(
                evil_host,
                DNS_PORT,
                BIND_PROGRAM,
                Arc::new(Scripted(Answer {
                    rcode: Rcode::Referral,
                    records: referral.all_records().into_iter().collect(),
                })),
            );

            let resolver = RecursiveResolver::new(net, client, root.std_binding);
            let (r, _, delta) = world.measure(|| resolver.resolve(&name("x.a.edu"), RType::A));
            let err = r.unwrap_err();
            assert!(matches!(err, RpcError::Service(_)), "{bad_cut}: {err}");
            assert!(err.to_string().contains("referrals"), "{bad_cut}: {err}");
            assert_eq!(delta.remote_calls, 2, "{bad_cut}");
            // Only the root's own delegation of a.edu was kept.
            let kept = resolver.cuts.get_text(world.now(), bad_cut, RType::Ns);
            assert_eq!(kept.is_some(), bad_cut == "a.edu", "{bad_cut}");
            let evil = RData::Domain(name("ns.evil.edu"));
            assert!(
                kept.as_deref()
                    .unwrap_or_default()
                    .iter()
                    .all(|r| r.rdata != evil),
                "{bad_cut}: the refused referral was kept"
            );
        }
    }

    #[test]
    fn delegation_loop_is_bounded() {
        // A zone that delegates to itself: ns records point back at the
        // same server.
        let world = World::paper();
        let client = world.add_host("client");
        let evil_host = world.add_host("evil");
        let net = RpcNet::new(Arc::clone(&world));
        let mut zone = Zone::new(name("edu"), 60);
        delegate(&mut zone, "loop.edu", "ns.loop.edu", evil_host, 60);
        let dep = deploy(&net, evil_host, single_zone_server("evil", zone, false));
        let resolver = RecursiveResolver::new(net, client, dep.std_binding);
        // The second referral names the cut just asked: one round trip
        // beyond the first, not MAX_REFERRALS of them.
        let (r, _, delta) = world.measure(|| resolver.resolve(&name("x.loop.edu"), RType::A));
        let err = r.unwrap_err();
        assert!(err.to_string().contains("referrals"), "{err}");
        assert_eq!(delta.remote_calls, 2);
        // Asked again, the cached cut dead-ends at once, and so does the
        // one restart from the root.
        let (r, _, delta) = world.measure(|| resolver.resolve(&name("y.loop.edu"), RType::A));
        assert!(r.unwrap_err().to_string().contains("referrals"));
        assert_eq!(delta.remote_calls, 1 + 2);
    }

    #[test]
    fn max_referrals_bounds_a_walk_that_keeps_descending() {
        // Ten zones, each delegating the next label down to its own
        // server: every referral makes progress, and there are too many.
        let world = World::paper();
        let client = world.add_host("client");
        let net = RpcNet::new(Arc::clone(&world));
        let origins: Vec<String> = (1..=10)
            .map(|depth| {
                let labels: Vec<String> = (1..=depth).rev().map(|d| format!("z{d}")).collect();
                labels.join(".")
            })
            .collect();
        let hosts: Vec<HostId> = origins
            .iter()
            .map(|origin| world.add_host(format!("ns.{origin}")))
            .collect();
        let mut root = None;
        for (i, origin) in origins.iter().enumerate() {
            let mut zone = Zone::new(name(origin), 60);
            if let Some(child) = origins.get(i + 1) {
                delegate(&mut zone, child, &format!("ns.{child}"), hosts[i + 1], 60);
            }
            let dep = deploy(&net, hosts[i], single_zone_server(origin, zone, false));
            root.get_or_insert(dep.std_binding);
        }
        let resolver = RecursiveResolver::new(net, client, root.expect("ten servers"));
        let leaf = name(&format!("leaf.{}", origins[9]));
        let (r, _, delta) = world.measure(|| resolver.resolve(&leaf, RType::A));
        let err = r.unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("more than {MAX_REFERRALS} referrals")),
            "{err}"
        );
        assert_eq!(delta.remote_calls, MAX_REFERRALS as u64);
    }

    #[test]
    fn referral_without_glue_fails_cleanly() {
        let world = World::paper();
        let client = world.add_host("client");
        let host = world.add_host("server");
        let net = RpcNet::new(Arc::clone(&world));
        let mut zone = Zone::new(name("edu"), 60);
        zone.add(ResourceRecord {
            name: name("gap.edu"),
            rtype: RType::Ns,
            ttl: 60,
            rdata: RData::Domain(name("ns.elsewhere.org")),
        })
        .expect("ns without glue");
        let dep = deploy(&net, host, single_zone_server("gapped", zone, false));
        let resolver = RecursiveResolver::new(net, client, dep.std_binding);
        let err = resolver.resolve(&name("x.gap.edu"), RType::A).unwrap_err();
        assert!(err.to_string().contains("glue"), "{err}");
    }
}
