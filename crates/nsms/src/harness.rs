//! A complete simulated HCS environment — the reproduction's testbed.
//!
//! Builds the paper's §3 environment: a public BIND holding the
//! `cs.washington.edu` zone, a Clearinghouse serving the `cs:uw` domain, a
//! *modified* BIND holding the `hns` meta zone, target services (a Sun RPC
//! service on `fiji`, a Courier service on `printserver`), and helpers to
//! instantiate HNS copies and deploy NSMs under any colocation
//! arrangement. Examples, integration tests, and the experiment harness
//! all build on this.

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::resolver::StdResolver;
use bindns::rr::ResourceRecord;
use bindns::server::{deploy as deploy_bind, single_zone_server, BindDeployment};
use bindns::zone::Zone;
use clearinghouse::auth::Credentials;
use clearinghouse::client::ChClient;
use clearinghouse::db::ChDb;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::{PROP_ADDRESS, PROP_FILE_SERVICE, PROP_MAILBOX};
use clearinghouse::server::{deploy as deploy_ch, ChDeployment, ChServer};
use hns_core::cache::CacheMode;
use hns_core::name::{Context, NameMapping};
use hns_core::nsm::{Nsm, NsmService};
use hns_core::query::QueryClass;
use hns_core::service::Hns;
use hrpc::net::RpcNet;
use hrpc::server::ProcServer;
use hrpc::{HrpcBinding, ProgramId};
use simnet::topology::{HostId, NetAddr};
use simnet::world::World;
use wire::Value;

use crate::binding::{BindingBindNsm, BindingChNsm};
use crate::file_loc::{FileBindNsm, FileChNsm};
use crate::hostaddr::{HostAddrBindNsm, HostAddrChNsm};
use crate::mail::{MailBindNsm, MailChNsm};
use crate::nsm_cache::NsmCacheForm;
use crate::user_info::{UserBindNsm, UserChNsm, PROP_USER};

/// The name service name under which BIND is registered with the HNS.
pub const NS_BIND: &str = "BIND";
/// The name service name under which the Clearinghouse is registered.
pub const NS_CH: &str = "Clearinghouse";
/// The BIND-backed context.
pub const CTX_BIND: &str = "bind-uw";
/// The Clearinghouse-backed context.
pub const CTX_CH: &str = "ch-uw";
/// The dedicated context under which NSM hosts themselves are named.
pub const CTX_NSM_HOSTS: &str = "hns-hosts";
/// Program number of the Sun target service on `fiji`.
pub const DESIRED_SERVICE_PROGRAM: ProgramId = ProgramId(100_005);
/// Name of the Sun target service.
pub const DESIRED_SERVICE: &str = "DesiredService";
/// Program number of the Courier print service.
pub const PRINT_SERVICE_PROGRAM: ProgramId = ProgramId(200_005);
/// Name of the Courier print service.
pub const PRINT_SERVICE: &str = "PrintService";
/// Program under which NSM services are exported.
pub const NSM_EXPORT_PROGRAM: ProgramId = ProgramId(310_001);

/// The testbed's hosts (MicroVAX-IIs and friends on one Ethernet).
#[derive(Debug, Clone, Copy)]
pub struct Hosts {
    /// The client workstation.
    pub client: HostId,
    /// Host for a remotely located HNS.
    pub hns: HostId,
    /// Host for remotely located NSMs.
    pub nsm: HostId,
    /// Host for the agent arrangement.
    pub agent: HostId,
    /// Host of the modified BIND (meta store).
    pub meta: HostId,
    /// Host of the public BIND.
    pub bind: HostId,
    /// Host of the Clearinghouse.
    pub ch: HostId,
    /// Sun host running `DesiredService`.
    pub fiji: HostId,
    /// Xerox host running `PrintService`.
    pub printer: HostId,
}

/// The full environment.
pub struct Testbed {
    /// The simulation environment.
    pub world: Arc<World>,
    /// The RPC fabric.
    pub net: Arc<RpcNet>,
    /// All hosts.
    pub hosts: Hosts,
    /// The public BIND.
    pub public_bind: BindDeployment,
    /// The modified BIND holding the meta zone.
    pub meta_bind: BindDeployment,
    /// The Clearinghouse.
    pub ch: ChDeployment,
    /// Credentials every HCS component uses with the Clearinghouse.
    pub creds: Credentials,
    /// Origin of the meta zone.
    pub meta_origin: DomainName,
}

/// The binding NSMs deployed for one arrangement.
pub struct DeployedBindingNsms {
    /// The BIND-backed binding NSM.
    pub bind: Arc<BindingBindNsm>,
    /// The Clearinghouse-backed binding NSM.
    pub ch: Arc<BindingChNsm>,
    /// Host they were exported on.
    pub host: HostId,
}

fn dn(s: &str) -> DomainName {
    DomainName::parse(s).expect("static domain name")
}

fn tpn(s: &str) -> ThreePartName {
    ThreePartName::parse(s).expect("static three-part name")
}

impl Testbed {
    /// Builds the full environment.
    pub fn build() -> Testbed {
        let world = World::paper();
        let hosts = Hosts {
            client: world.add_host("client.cs.washington.edu"),
            hns: world.add_host("hnsserv.cs.washington.edu"),
            nsm: world.add_host("nsmserv.cs.washington.edu"),
            agent: world.add_host("agent.cs.washington.edu"),
            meta: world.add_host("hnsbind.cs.washington.edu"),
            bind: world.add_host("ns.cs.washington.edu"),
            ch: world.add_host("dlion.cs.washington.edu"),
            fiji: world.add_host("fiji.cs.washington.edu"),
            printer: world.add_host("printserver.cs.washington.edu"),
        };
        let net = RpcNet::new(Arc::clone(&world));

        // Public BIND: the cs.washington.edu zone with every host's
        // address, plus mail and file records for the extension NSMs.
        let mut zone = Zone::new(dn("cs.washington.edu"), 86_400);
        for host in [
            hosts.client,
            hosts.hns,
            hosts.nsm,
            hosts.agent,
            hosts.meta,
            hosts.bind,
            hosts.ch,
            hosts.fiji,
            hosts.printer,
        ] {
            let name = world.topology.host_name(host).expect("host exists");
            zone.add(ResourceRecord::a(dn(&name), 86_400, NetAddr::of(host)))
                .expect("seed zone");
        }
        zone.add(ResourceRecord {
            name: dn("alice.cs.washington.edu"),
            rtype: bindns::rr::RType::Mx,
            ttl: 3600,
            rdata: bindns::rr::RData::Domain(dn("fiji.cs.washington.edu")),
        })
        .expect("seed mx");
        zone.add(ResourceRecord::txt(
            dn("sources.cs.washington.edu"),
            3600,
            "fileservice=fiji.cs.washington.edu;root=/usr/src",
        ))
        .expect("seed txt");
        zone.add(ResourceRecord::txt(
            dn("mfs.cs.washington.edu"),
            3600,
            "name=Michael F. Schwartz;host=fiji.cs.washington.edu",
        ))
        .expect("seed user");
        let public_bind = deploy_bind(
            &net,
            hosts.bind,
            single_zone_server("public-bind", zone, false),
        );

        // Modified BIND: the empty hns meta zone, updates enabled.
        let meta_origin = dn("hns");
        let meta_zone = Zone::new(meta_origin.clone(), hns_core::META_TTL);
        let meta_bind = deploy_bind(
            &net,
            hosts.meta,
            single_zone_server("meta-bind", meta_zone, true),
        );
        // Server-side mapping chaser: lets batched (MQUERY) FindNSM fetches
        // pick up mappings 2-5 as piggybacked additional record sets.
        meta_bind
            .server
            .set_additional_provider(hns_core::MetaChaser::new(meta_origin.clone()));

        // Clearinghouse: the cs:uw domain.
        let ch_server = ChServer::new("clearinghouse", ChDb::new(vec![("cs".into(), "uw".into())]));
        const HCS_KEY: u64 = 0x4843_5331_3938_3755;
        let identity = tpn("hcs:cs:uw");
        ch_server.register_key(identity.clone(), HCS_KEY);
        let creds = Credentials::new(identity, HCS_KEY);
        ch_server.with_db(|db| {
            db.set_item(
                &tpn("printserver:cs:uw"),
                PROP_ADDRESS,
                Value::U32(hosts.printer.0),
            )
            .expect("seed ch");
            db.set_item(&tpn("dlion:cs:uw"), PROP_ADDRESS, Value::U32(hosts.ch.0))
                .expect("seed ch");
            db.set_item(
                &tpn("bob:cs:uw"),
                PROP_MAILBOX,
                Value::str("printserver:cs:uw"),
            )
            .expect("seed ch");
            db.set_item(
                &tpn("bob:cs:uw"),
                PROP_USER,
                Value::record([
                    ("name", Value::str("Bob on the Xerox side")),
                    ("host", Value::str("printserver:cs:uw")),
                ]),
            )
            .expect("seed ch user");
            db.set_item(
                &tpn("designs:cs:uw"),
                PROP_FILE_SERVICE,
                Value::record([
                    ("host", Value::str("printserver:cs:uw")),
                    ("root", Value::str("/designs")),
                ]),
            )
            .expect("seed ch");
        });
        let ch = deploy_ch(&net, hosts.ch, ch_server);

        // Target services.
        let desired = Arc::new(
            ProcServer::new(DESIRED_SERVICE)
                .with_proc(1, |_c, a| Ok(Value::record([("echo", a.clone())]))),
        );
        net.export(hosts.fiji, DESIRED_SERVICE_PROGRAM, desired);
        let print = Arc::new(
            ProcServer::new(PRINT_SERVICE).with_proc(1, |_c, _a| Ok(Value::str("queued"))),
        );
        net.export(hosts.printer, PRINT_SERVICE_PROGRAM, print);

        let testbed = Testbed {
            world,
            net,
            hosts,
            public_bind,
            meta_bind,
            ch,
            creds,
            meta_origin,
        };
        testbed.register_contexts();
        testbed
    }

    /// The BIND context.
    pub fn ctx_bind(&self) -> Context {
        Context::new(CTX_BIND).expect("static context")
    }

    /// The Clearinghouse context.
    pub fn ctx_ch(&self) -> Context {
        Context::new(CTX_CH).expect("static context")
    }

    /// The context NSM host names are registered under.
    pub fn ctx_nsm_hosts(&self) -> Context {
        Context::new(CTX_NSM_HOSTS).expect("static context")
    }

    fn register_contexts(&self) {
        // Registrations go through the wire like any other client; use a
        // bootstrap HNS on the meta host.
        let bootstrap = self.make_hns_unlinked(self.hosts.meta, CacheMode::Disabled);
        bootstrap
            .register_context(&self.ctx_bind(), NS_BIND, &NameMapping::Identity)
            .expect("register bind context");
        bootstrap
            .register_context(&self.ctx_ch(), NS_CH, &NameMapping::Identity)
            .expect("register ch context");
        bootstrap
            .register_context(&self.ctx_nsm_hosts(), NS_BIND, &NameMapping::Identity)
            .expect("register nsm-hosts context");
        bootstrap
            .register_nsm(NS_BIND, &QueryClass::host_address(), HostAddrBindNsm::NAME)
            .expect("register ha-bind");
        bootstrap
            .register_nsm(NS_CH, &QueryClass::host_address(), HostAddrChNsm::NAME)
            .expect("register ha-ch");
    }

    /// A standard resolver to the public BIND, originating from `host`.
    pub fn std_resolver(&self, host: HostId) -> Arc<StdResolver> {
        Arc::new(StdResolver::new(
            Arc::clone(&self.net),
            host,
            self.public_bind.std_binding,
        ))
    }

    /// A Clearinghouse client originating from `host`.
    pub fn ch_client(&self, host: HostId) -> Arc<ChClient> {
        Arc::new(ChClient::new(
            Arc::clone(&self.net),
            host,
            self.ch.binding,
            self.creds.clone(),
        ))
    }

    /// The linked host-address NSMs for an HNS instance running on `host`.
    pub fn host_addr_nsms(&self, host: HostId) -> Vec<Arc<dyn Nsm>> {
        vec![
            HostAddrBindNsm::new(self.std_resolver(host), NameMapping::Identity),
            HostAddrChNsm::new(self.ch_client(host), NameMapping::Identity),
        ]
    }

    fn make_hns_unlinked(&self, host: HostId, mode: CacheMode) -> Arc<Hns> {
        Arc::new(Hns::new(
            Arc::clone(&self.net),
            host,
            self.meta_bind.hrpc_binding,
            self.meta_origin.clone(),
            mode,
        ))
    }

    /// Creates an HNS instance on `host` with its host-address NSMs linked.
    pub fn make_hns(&self, host: HostId, mode: CacheMode) -> Arc<Hns> {
        let hns = self.make_hns_unlinked(host, mode);
        for nsm in self.host_addr_nsms(host) {
            hns.link_nsm(nsm);
        }
        hns
    }

    /// Registers `nsms`, each with the name service it serves, through a
    /// bootstrap HNS on the meta host: exported on `host` under consecutive
    /// programs from `NSM_EXPORT_PROGRAM + first`.
    fn deploy_nsms<const N: usize>(
        &self,
        host: HostId,
        first: u32,
        nsms: [(Arc<dyn Nsm>, &str); N],
    ) {
        let registrar = self.make_hns_unlinked(self.hosts.meta, CacheMode::Disabled);
        let hosts_ctx = self.ctx_nsm_hosts();
        for (offset, (nsm, name_service)) in (first..).zip(nsms) {
            let program = ProgramId(NSM_EXPORT_PROGRAM.0 + offset);
            registrar
                .deploy_nsm(name_service, nsm, host, program, &hosts_ctx, "hcs-project")
                .expect("register NSM");
        }
    }

    fn binding_bind_nsm(&self, host: HostId, form: NsmCacheForm) -> Arc<BindingBindNsm> {
        let (net, resolver) = (Arc::clone(&self.net), self.std_resolver(host));
        BindingBindNsm::new(net, host, resolver, NameMapping::Identity, form)
    }

    /// Deploys the two binding NSMs on `host` and registers them with the
    /// HNS meta store (replacing any previous registration).
    pub fn deploy_binding_nsms(&self, host: HostId, form: NsmCacheForm) -> DeployedBindingNsms {
        let bind = self.binding_bind_nsm(host, form);
        let (net, identity) = (Arc::clone(&self.net), NameMapping::Identity);
        let ch = BindingChNsm::new(net, host, self.ch_client(host), identity, form);

        // Flush the bind-backed NSM's result cache on every
        // `World::export_all_caches` under the component name the traced
        // experiment established (`nsm_cache`); a Disabled cache stays
        // silent. The CH NSM's cache is not registered — one component,
        // one instance, last-writer-wins.
        if form != NsmCacheForm::Disabled {
            let weak = Arc::downgrade(&bind);
            self.world.register_cache_exporter(Box::new(move |metrics| {
                if let Some(nsm) = weak.upgrade() {
                    nsm.export_metrics(metrics, "nsm_cache");
                }
            }));
        }
        self.deploy_nsms(host, 0, [(bind.clone(), NS_BIND), (ch.clone(), NS_CH)]);
        DeployedBindingNsms { bind, ch, host }
    }

    /// Deploys a replica of the BIND-backed binding NSM on `host` and
    /// returns its binding, *without* touching the meta-store
    /// registration: `FindNSM` keeps designating the primary, and the
    /// replica only serves as an [`crate::import::Importer`] failover
    /// target when the primary's host is crashed or partitioned away.
    pub fn deploy_binding_bind_replica(&self, host: HostId, form: NsmCacheForm) -> HrpcBinding {
        let program = ProgramId(NSM_EXPORT_PROGRAM.0 + 8);
        NsmService::export(&self.net, host, program, self.binding_bind_nsm(host, form))
    }

    /// Deploys the mail and file NSMs on `host` and registers them.
    pub fn deploy_extension_nsms(&self, host: HostId) {
        let (bind, ch) = (|| self.std_resolver(host), || self.ch_client(host));
        let identity = || NameMapping::Identity;
        self.deploy_nsms(
            host,
            2,
            [
                (MailBindNsm::new(bind(), identity()), NS_BIND),
                (MailChNsm::new(ch(), identity()), NS_CH),
                (FileBindNsm::new(bind(), identity()), NS_BIND),
                (FileChNsm::new(ch(), identity()), NS_CH),
            ],
        );
    }

    /// Deploys the user-information NSMs on `host` and registers them
    /// (kept separate from [`Testbed::deploy_extension_nsms`] so the
    /// preload experiments keep the paper-calibrated meta zone size).
    pub fn deploy_user_nsms(&self, host: HostId) {
        let (bind, ch) = (self.std_resolver(host), self.ch_client(host));
        let identity = || NameMapping::Identity;
        self.deploy_nsms(
            host,
            6,
            [
                (UserBindNsm::new(bind, identity()), NS_BIND),
                (UserChNsm::new(ch, identity()), NS_CH),
            ],
        );
    }
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("hosts", &self.hosts)
            .finish()
    }
}
