//! Per-NSM behaviour tests over the testbed: what each concrete NSM adds
//! to its adapter — arguments, the shape of its reply, cache behaviour.
//! Translation, local-name parsing and "first record or `NotFound`" are
//! the adapters' and are tested once, in `nsms::adapter`'s unit tests.

use std::sync::Arc;

use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::{HostAddress, Nsm, NsmRequest, QueryArgs};
use hns_core::query::QueryClass;
use hrpc::{HrpcBinding, RpcError, RpcResult};
use nsms::file_loc::{FileBindNsm, FileChNsm, FileLocation};
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use nsms::hostaddr::{HostAddrBindNsm, HostAddrChNsm};
use nsms::mail::{MailBindNsm, MailChNsm, MailboxLocation};
use nsms::nsm_cache::NsmCacheForm;
use nsms::{BindingBindNsm, BindingChNsm};
use wire::Message;

fn bind_name(tb: &Testbed, individual: &str) -> HnsName {
    HnsName::new(tb.ctx_bind(), individual).expect("name")
}

fn ch_name(tb: &Testbed, individual: &str) -> HnsName {
    HnsName::new(tb.ctx_ch(), individual).expect("name")
}

/// Asks `nsm` about `name` with the query class's own `args`; a typed NSM
/// answers with its reply struct, which is handed back as it came.
fn ask<T: Message>(nsm: &dyn Nsm, name: HnsName, args: QueryArgs) -> RpcResult<T> {
    let reply = nsm.handle(&NsmRequest::new(name, args))?;
    Ok(reply.downcast::<T>().expect("the NSM's own struct"))
}

fn binding_args(service: &str) -> QueryArgs {
    QueryArgs::Binding {
        service: service.into(),
        program: DESIRED_SERVICE_PROGRAM,
    }
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
    let name = bind_name(&tb, "fiji.cs.washington.edu");
    let a: HostAddress = ask(&*bind, name, QueryArgs::None).expect("bind reply");
    let name = ch_name(&tb, "printserver:cs:uw");
    let b: HostAddress = ask(&*ch, name, QueryArgs::None).expect("ch reply");
    assert_eq!((a.host, a.ttl), (tb.hosts.fiji, 86_400));
    assert_eq!((b.host, b.ttl), (tb.hosts.printer, hns_core::META_TTL));
    let (desc_a, desc_b) = (
        wire::TypeDesc::describe(&a.tree()),
        wire::TypeDesc::describe(&b.tree()),
    );
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
    let name = bind_name(&tb, "fiji.cs.washington.edu");
    let err = ask::<HrpcBinding>(&*nsm, name, QueryArgs::None).expect_err("missing args");
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
    let name = bind_name(&tb, "fiji.cs.washington.edu");
    let query = || ask::<HrpcBinding>(&*nsm, name.clone(), binding_args(DESIRED_SERVICE));
    let first = query().expect("miss path");
    let (second, took, delta) = tb.world.measure(query);
    assert_eq!(second.expect("hit path"), first);
    assert_eq!(delta.remote_calls, 0, "hit must avoid remote work");
    assert!(took.as_ms_f64() < 5.0, "hit took {took}");
    let (hits, misses) = nsm.cache_stats();
    assert_eq!((hits, misses), (1, 1));
}

/// A cached binding answers the query it was made for and no other. The
/// cache used to key on `format!("{local}|{service}|{program}")`, so the
/// host `fiji.cs.washington.edu|x` with service `y` and the host
/// `fiji.cs.washington.edu` with service `x|y` shared an entry: once the
/// second had been answered, the first — a name BIND cannot hold — was
/// answered with its binding.
#[test]
fn a_cached_binding_answers_only_the_query_it_was_made_for() {
    let tb = Testbed::build();
    let nsm = BindingBindNsm::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        tb.std_resolver(tb.hosts.client),
        NameMapping::Identity,
        NsmCacheForm::Demarshalled,
    );
    let query = |host: &str, service: &str| {
        ask::<HrpcBinding>(&*nsm, bind_name(&tb, host), binding_args(service))
    };
    let malformed = || query("fiji.cs.washington.edu|x", "y");
    let bad_name = |r: RpcResult<HrpcBinding>| matches!(&r, Err(RpcError::Service(why)) if why.contains("bad name"));
    assert!(bad_name(malformed()), "cold: {:?}", malformed());
    let fiji = query("fiji.cs.washington.edu", "x|y").expect("a well-formed query");
    assert_eq!(fiji.host, tb.hosts.fiji);
    assert!(bad_name(malformed()), "warm: {:?}", malformed());
    assert_eq!(nsm.cache_stats(), (0, 3), "no probe found another's entry");
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
    let args = QueryArgs::Binding {
        service: nsms::harness::PRINT_SERVICE.into(),
        program: nsms::harness::PRINT_SERVICE_PROGRAM,
    };
    let name = ch_name(&tb, "printserver:cs:uw");
    let binding: HrpcBinding = ask(&*nsm, name, args).expect("bind");
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
    let name = bind_name(&tb, "alice.cs.washington.edu");
    let a: MailboxLocation = ask(&*bind, name, QueryArgs::None).expect("bind mail");
    let b: MailboxLocation =
        ask(&*ch, ch_name(&tb, "bob:cs:uw"), QueryArgs::None).expect("ch mail");
    assert_eq!(a.mailbox_host, "fiji.cs.washington.edu");
    assert_eq!(b.mailbox_host, "printserver:cs:uw");
}

#[test]
fn file_nsms_compose_paths() {
    let tb = Testbed::build();
    let bind = FileBindNsm::new(tb.std_resolver(tb.hosts.client), NameMapping::Identity);
    let ch = FileChNsm::new(tb.ch_client(tb.hosts.client), NameMapping::Identity);
    let path = |p: &str| QueryArgs::File { path: p.into() };
    let sources = bind_name(&tb, "sources.cs.washington.edu");
    let a: FileLocation = ask(&*bind, sources.clone(), path("hrpc/stubs.c")).expect("bind files");
    assert_eq!(a.file_host, "fiji.cs.washington.edu");
    assert_eq!(a.local_path, "/usr/src/hrpc/stubs.c");

    let designs = ch_name(&tb, "designs:cs:uw");
    let b: FileLocation = ask(&*ch, designs, path("board.dwg")).expect("ch files");
    assert_eq!(b.local_path, "/designs/board.dwg");
    // The path is the query class's own argument: required.
    assert!(ask::<FileLocation>(&*bind, sources, QueryArgs::None).is_err());
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
    use nsms::user_info::{UserBindNsm, UserChNsm, UserInfo};
    let tb = Testbed::build();
    let bind = UserBindNsm::new(tb.std_resolver(tb.hosts.client), NameMapping::Identity);
    let ch = UserChNsm::new(tb.ch_client(tb.hosts.client), NameMapping::Identity);
    assert_eq!(bind.query_class(), QueryClass::user_info());
    assert_eq!(ch.query_class(), QueryClass::user_info());
    let name = bind_name(&tb, "mfs.cs.washington.edu");
    let a: UserInfo = ask(&*bind, name, QueryArgs::None).expect("bind user");
    let b: UserInfo = ask(&*ch, ch_name(&tb, "bob:cs:uw"), QueryArgs::None).expect("ch user");
    assert_eq!(a.full_name, "Michael F. Schwartz");
    assert_eq!(b.host, "printserver:cs:uw");
    assert_eq!(
        wire::TypeDesc::describe(&a.tree()),
        wire::TypeDesc::describe(&b.tree())
    );
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

/// The standard replies are the records the parent's NSMs built by hand
/// (`mailbox_reply`, `file_reply`, `user_reply`, kept here as the
/// reference), state their encoded length, and read back from them.
#[test]
fn every_standard_reply_is_the_record_built_by_hand() {
    use wire::{Value, WireFormat};
    fn law<M: Message + PartialEq + std::fmt::Debug>(
        reply: M,
        by_hand: Value,
        decode: fn(&Value) -> wire::WireResult<M>,
    ) {
        assert_eq!(reply.tree().into_owned(), by_hand);
        for format in [WireFormat::Xdr, WireFormat::Courier] {
            let bytes = format.encode(&by_hand).expect("encodes");
            assert_eq!(reply.encoded_len(format), Ok(bytes.len()), "{format}");
        }
        assert_eq!(decode(&by_hand), Ok(reply));
        assert!(decode(&Value::Void).is_err());
    }
    let mailbox_reply = |host: &str| Value::record([("mailbox_host", Value::str(host))]);
    let file_reply = |file_host: &str, local_path: &str| {
        Value::record([
            ("file_host", Value::str(file_host)),
            ("local_path", Value::str(local_path)),
        ])
    };
    let user_reply = |full_name: &str, host: &str| {
        Value::record([
            ("full_name", Value::str(full_name)),
            ("host", Value::str(host)),
        ])
    };
    let mailbox = MailboxLocation {
        mailbox_host: "printserver:cs:uw".into(),
    };
    law(
        mailbox,
        mailbox_reply("printserver:cs:uw"),
        MailboxLocation::from_value,
    );
    let file = FileLocation {
        file_host: "fiji.cs.washington.edu".into(),
        local_path: "/usr/src/hrpc/stubs.c".into(),
    };
    let by_hand = file_reply("fiji.cs.washington.edu", "/usr/src/hrpc/stubs.c");
    law(file, by_hand, FileLocation::from_value);
    let user = nsms::user_info::UserInfo {
        full_name: "Michael F. Schwartz".into(),
        host: "fiji.cs.washington.edu".into(),
    };
    let by_hand = user_reply("Michael F. Schwartz", "fiji.cs.washington.edu");
    law(user, by_hand, nsms::user_info::UserInfo::from_value);
}
