//! Per-NSM behaviour tests over the testbed: what each concrete NSM adds
//! to its adapter — arguments, the shape of its reply, cache behaviour.
//! Translation, local-name parsing and "first record or `NotFound`" are
//! the adapters' and are tested once, in `nsms::adapter`'s unit tests.

use std::sync::Arc;

use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::RpcError;
use nsms::file_loc::{FileBindNsm, FileChNsm};
use nsms::harness::Testbed;
use nsms::hostaddr::{HostAddrBindNsm, HostAddrChNsm};
use nsms::mail::{MailBindNsm, MailChNsm};
use nsms::nsm_cache::NsmCacheForm;
use nsms::{BindingBindNsm, BindingChNsm};
use wire::Value;

fn bind_name(tb: &Testbed, individual: &str) -> HnsName {
    HnsName::new(tb.ctx_bind(), individual).expect("name")
}

fn ch_name(tb: &Testbed, individual: &str) -> HnsName {
    HnsName::new(tb.ctx_ch(), individual).expect("name")
}

#[test]
fn hostaddr_nsms_share_an_interface() {
    // The identical-interface property, checked mechanically: the same
    // reply schema from both NSMs, each with its service's own TTL (the
    // record's; `META_TTL`, the Clearinghouse having none).
    let tb = Testbed::build();
    let bind = HostAddrBindNsm::new(tb.std_resolver(tb.hosts.client), NameMapping::Identity);
    let ch = HostAddrChNsm::new(tb.ch_client(tb.hosts.client), NameMapping::Identity);
    assert_eq!(bind.query_class(), QueryClass::host_address());
    assert_eq!(ch.query_class(), QueryClass::host_address());
    let a = bind
        .handle(&bind_name(&tb, "fiji.cs.washington.edu"), &Value::Void)
        .expect("bind reply");
    let b = ch
        .handle(&ch_name(&tb, "printserver:cs:uw"), &Value::Void)
        .expect("ch reply");
    let fields = |v: &Value| (v.u32_field("host").ok(), v.u32_field("ttl").ok());
    assert_eq!(fields(&a), (Some(tb.hosts.fiji.0), Some(86_400)));
    assert_eq!(
        fields(&b),
        (Some(tb.hosts.printer.0), Some(hns_core::META_TTL))
    );
    let (desc_a, desc_b) = (wire::TypeDesc::describe(&a), wire::TypeDesc::describe(&b));
    assert_eq!(desc_a, desc_b, "replies must share the query class schema");
}

#[test]
fn binding_bind_nsm_requires_service_args() {
    let tb = Testbed::build();
    let nsm = BindingBindNsm::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        tb.std_resolver(tb.hosts.client),
        NameMapping::Identity,
        NsmCacheForm::Disabled,
    );
    let err = nsm
        .handle(&bind_name(&tb, "fiji.cs.washington.edu"), &Value::Void)
        .expect_err("missing args");
    assert!(matches!(err, RpcError::Wire(_)));
}

#[test]
fn binding_nsm_cache_serves_repeat_queries() {
    let tb = Testbed::build();
    let nsm = BindingBindNsm::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        tb.std_resolver(tb.hosts.client),
        NameMapping::Identity,
        NsmCacheForm::Demarshalled,
    );
    let args = Value::record(vec![
        ("service", Value::str(nsms::harness::DESIRED_SERVICE)),
        (
            "program",
            Value::U32(nsms::harness::DESIRED_SERVICE_PROGRAM.0),
        ),
    ]);
    let name = bind_name(&tb, "fiji.cs.washington.edu");
    let first = nsm.handle(&name, &args).expect("miss path");
    let (second, took, delta) = tb.world.measure(|| nsm.handle(&name, &args));
    assert_eq!(second.expect("hit path"), first);
    assert_eq!(delta.remote_calls, 0, "hit must avoid remote work");
    assert!(took.as_ms_f64() < 5.0, "hit took {took}");
    let (hits, misses) = nsm.cache_stats();
    assert_eq!((hits, misses), (1, 1));
}

#[test]
fn binding_ch_nsm_returns_courier_binding() {
    let tb = Testbed::build();
    let nsm = BindingChNsm::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        tb.ch_client(tb.hosts.client),
        NameMapping::Identity,
        NsmCacheForm::Disabled,
    );
    let args = Value::record(vec![
        ("service", Value::str(nsms::harness::PRINT_SERVICE)),
        (
            "program",
            Value::U32(nsms::harness::PRINT_SERVICE_PROGRAM.0),
        ),
    ]);
    let reply = nsm
        .handle(&ch_name(&tb, "printserver:cs:uw"), &args)
        .expect("bind");
    let binding = hrpc::HrpcBinding::from_value(&reply).expect("decode");
    assert_eq!(binding.host, tb.hosts.printer);
    assert_eq!(
        binding.components.suite_kind(),
        simnet::costs::RpcSuiteKind::Courier
    );
    assert_eq!(nsm.cache_stats(), (0, 0), "disabled cache records nothing");
}

#[test]
fn mail_nsms_share_an_interface() {
    let tb = Testbed::build();
    let bind = MailBindNsm::new(tb.std_resolver(tb.hosts.client), NameMapping::Identity);
    let ch = MailChNsm::new(tb.ch_client(tb.hosts.client), NameMapping::Identity);
    assert_eq!(bind.query_class(), QueryClass::mailbox_location());
    assert_eq!(ch.query_class(), QueryClass::mailbox_location());
    let a = bind
        .handle(&bind_name(&tb, "alice.cs.washington.edu"), &Value::Void)
        .expect("bind mail");
    let b = ch
        .handle(&ch_name(&tb, "bob:cs:uw"), &Value::Void)
        .expect("ch mail");
    assert_eq!(
        a.str_field("mailbox_host").expect("field"),
        "fiji.cs.washington.edu"
    );
    assert_eq!(
        b.str_field("mailbox_host").expect("field"),
        "printserver:cs:uw"
    );
}

#[test]
fn file_nsms_compose_paths() {
    let tb = Testbed::build();
    let bind = FileBindNsm::new(tb.std_resolver(tb.hosts.client), NameMapping::Identity);
    let ch = FileChNsm::new(tb.ch_client(tb.hosts.client), NameMapping::Identity);
    let args = Value::record(vec![("path", Value::str("hrpc/stubs.c"))]);
    let a = bind
        .handle(&bind_name(&tb, "sources.cs.washington.edu"), &args)
        .expect("bind files");
    assert_eq!(
        a.str_field("file_host").expect("field"),
        "fiji.cs.washington.edu"
    );
    assert_eq!(
        a.str_field("local_path").expect("field"),
        "/usr/src/hrpc/stubs.c"
    );

    let args = Value::record(vec![("path", Value::str("board.dwg"))]);
    let b = ch
        .handle(&ch_name(&tb, "designs:cs:uw"), &args)
        .expect("ch files");
    assert_eq!(
        b.str_field("local_path").expect("field"),
        "/designs/board.dwg"
    );
    // The path is the query class's own argument: required.
    assert!(bind
        .handle(&bind_name(&tb, "sources.cs.washington.edu"), &Value::Void)
        .is_err());
}

#[test]
fn testbed_accessors_are_consistent() {
    let tb = Testbed::build();
    assert_ne!(tb.ctx_bind(), tb.ctx_ch());
    assert_ne!(tb.ctx_bind(), tb.ctx_nsm_hosts());
    assert_eq!(
        tb.world.topology.host_name(tb.hosts.fiji).as_deref(),
        Some("fiji.cs.washington.edu")
    );
    assert!(tb.world.topology.len() >= 9);
}

#[test]
fn nsm_names_are_distinct_across_the_complement() {
    let tb = Testbed::build();
    let names = [
        HostAddrBindNsm::new(tb.std_resolver(tb.hosts.client), NameMapping::Identity)
            .nsm_name()
            .to_string(),
        HostAddrChNsm::new(tb.ch_client(tb.hosts.client), NameMapping::Identity)
            .nsm_name()
            .to_string(),
        BindingBindNsm::NAME.to_string(),
        BindingChNsm::NAME.to_string(),
        MailBindNsm::NAME.to_string(),
        MailChNsm::NAME.to_string(),
        FileBindNsm::NAME.to_string(),
        FileChNsm::NAME.to_string(),
    ];
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len());
}

#[test]
fn user_info_nsms_share_an_interface() {
    use nsms::user_info::{UserBindNsm, UserChNsm};
    let tb = Testbed::build();
    let bind = UserBindNsm::new(tb.std_resolver(tb.hosts.client), NameMapping::Identity);
    let ch = UserChNsm::new(tb.ch_client(tb.hosts.client), NameMapping::Identity);
    assert_eq!(bind.query_class(), QueryClass::user_info());
    assert_eq!(ch.query_class(), QueryClass::user_info());
    let a = bind
        .handle(&bind_name(&tb, "mfs.cs.washington.edu"), &Value::Void)
        .expect("bind user");
    let b = ch
        .handle(&ch_name(&tb, "bob:cs:uw"), &Value::Void)
        .expect("ch user");
    assert_eq!(
        a.str_field("full_name").expect("field"),
        "Michael F. Schwartz"
    );
    assert_eq!(b.str_field("host").expect("field"), "printserver:cs:uw");
    assert_eq!(wire::TypeDesc::describe(&a), wire::TypeDesc::describe(&b));
}

#[test]
fn user_info_resolves_through_findnsm() {
    use hns_core::cache::CacheMode;
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    tb.deploy_extension_nsms(tb.hosts.nsm);
    tb.deploy_user_nsms(tb.hosts.nsm);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let nsm_client = hns_core::nsm::NsmClient::new(Arc::clone(&tb.net), tb.hosts.client);
    for name in [
        bind_name(&tb, "mfs.cs.washington.edu"),
        ch_name(&tb, "bob:cs:uw"),
    ] {
        let binding = hns
            .find_nsm(&QueryClass::user_info(), &name)
            .expect("user NSM findable");
        let reply = nsm_client
            .call(&binding, &name, vec![])
            .expect("user query");
        assert!(reply.str_field("full_name").is_ok());
    }
}
