//! Allocation budget of the message path.
//!
//! Marshalling — building `Value` trees, names and record payloads — is
//! what a lookup costs its host (the paper's Table 3.2), and most of that
//! cost is the allocator. This pins how much one `FindNSM` and one
//! `Import` request from it, on the paper's testbed with the binding NSMs
//! on a remote host (the set-up of the benchmark's `hns-core.find_nsm.*`
//! probes), and what decoding a reply's record list costs.
//!
//! The pins are **exact**, `(allocations, bytes)` per row: the counts are
//! deterministic and the same in debug and release, so a change in either
//! direction — a diet as much as a regression — fails here and is then
//! written down. To re-measure, print the table with
//!
//! ```text
//! cargo test --release -p conformance --test alloc_budget -- --nocapture
//! ```
//!
//! (CI prints it too, next to any failure), check that `cargo test -p
//! conformance --test alloc_budget -- --nocapture` prints the same, and
//! copy the row into its constant below with a word on what moved it.

use std::sync::Arc;

use bindns::message::Answer;
use bindns::{DomainName, ResourceRecord};
use clearinghouse::property::PROP_MAILBOX;
use clearinghouse::ThreePartName;
use conformance::alloc::{measure_calls, CountingAlloc};
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::nsm::NsmClient;
use hns_core::query::QueryClass;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NS_BIND};
use nsms::import::Importer;
use nsms::nsm_cache::NsmCacheForm;
use simnet::topology::{HostId, NetAddr};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One row of the table: `(allocations, bytes)`.
type Row = (u64, u64);

/// Warm walk `FindNSM`: six per-mapping cache hits, no composed cache.
/// Five allocations, the five meta keys — each one `Arc<str>`, assembled
/// on the stack — and nothing else: a demarshalled hit hands back the
/// cached `MetaRecord`, which the chain reads by reference. (18 while a
/// key was a `String` and then a name, and every hit's text was parsed
/// again into owned pieces; 35 while every hit was first copied out of
/// the cache into a `Vec<String>`.)
const WARM_WALK: Row = (5, 216);
/// A composed-cache hit allocates nothing.
const WARM_COMPOSED: Row = (0, 0);
/// Warm re-walk: the context's composed entry has lapsed, its mapping 1
/// and the (query class, name service) entry are live. One allocation,
/// mapping 1's meta key (3 while that was two and the name service was
/// parsed out of the context record on every hit).
const WARM_REWALK: Row = (1, 40);
/// Warm `Import`: a composed-cache `FindNSM` plus one remote NSM call.
/// The request crosses as the `NsmRequest` it is and the binding NSM's
/// cache hit as the `HrpcBinding` itself, so what is left is the
/// request's copy of the name (two strings) and of the service, the NSM's
/// local name, and the box the binding travels back in. (11 / 1,040 B
/// while the argument record and the reply were trees and the NSM keyed
/// its cache on a formatted string; 37 / 1,721 B before names became
/// shared strings; 12 while each call built its own `QueryClass`.)
const WARM_IMPORT: Row = (5, 97);
/// A Clearinghouse-backed mail query, the NSM call alone: the request's
/// name, the NSM's local name and the three-part name parsed from it (one
/// shared string), the item the Clearinghouse copies out of its entry,
/// the two boxes the `Property` and the `MailboxLocation` travel in, and
/// the tree `NsmClient::call` hands its caller (a field vector and a
/// string). (35 / 1,235 B while request, lookup and both replies were
/// trees, and a three-part name was four allocations to parse.)
const WARM_CH_MAIL: Row = (9, 201);
/// `ChClient::lookup_item`: the item the server copies out of its entry
/// and the box the `Property` comes back in. The `Lookup` it sends shares
/// the name and the credentials. (23 / 942 B while the request was a
/// tree of the credentials, the name's text and the property, the reply
/// a tree copied once more on the way out, and `ChDb::serves` cloned the
/// domain's two strings on every operation.)
const CH_LOOKUP_ITEM: Row = (2, 49);
/// Cold sequential `FindNSM`: every cache off, six remote mappings. The
/// question and the answer cross the fabric as the structs they are, so
/// a mapping costs its key, the zone's record vector, the box the answer
/// travels in, and the decoded record's own strings and `Arc`. (100 /
/// 7,786 B while every question and answer was built into a `Value` tree
/// and taken apart again — `Answer::to_value` alone was 57 of them; 136 /
/// 10,229 B while each reply became `ResourceRecord`s, then strings, then
/// parsed pieces, and seven key texts were interned for a cache that
/// stores nothing; 101 / 8,962 B before a zone sized its answer once;
/// 585 / 23,946 B before names became shared strings and struct field
/// names static; 40 / 2,179 B while the linked host-address NSM of
/// mapping 6 answered with a two-field vector, not its eight-byte
/// `HostAddress` in a box.)
const COLD_SEQUENTIAL: Row = (40, 2_075);
/// Cold batched `FindNSM`: every cache off, mappings 1–5 in one `MQUERY`
/// whose additional sets the meta server's chaser attaches. Holds the
/// typed `MultiQuestion` / `MultiAnswer` path (152 / 11,525 B while the
/// batch and its reply were trees; 68 / 4,376 B while mapping 6's reply
/// was a vector, as above).
const COLD_BATCHED: Row = (68, 4_272);
/// Decoding a six-record answer of one owner into owned records: the
/// record vector, and the owner name — parsed once and shared by all six.
/// What an untyped peer's reply costs at the edge where it is decoded.
const ANSWER_DECODE: Row = (2, 376);

/// Prints one row and checks it against its pin.
fn row<R>(what: &str, pinned: Row, f: impl FnOnce() -> R) {
    let (_, used) = measure_calls(f);
    let (bytes, calls) = used.expect("counting allocator installed");
    println!("{what:<32} {calls:>6} allocations {bytes:>8} B");
    assert_eq!(
        (calls, bytes),
        pinned,
        "{what}: (allocations, bytes) moved — see the file header"
    );
}

#[test]
fn find_nsm_and_import_stay_within_their_allocation_budgets() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, NsmCacheForm::Demarshalled);
    let qc = QueryClass::hrpc_binding();
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");

    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    warm.find_nsm(&qc, &name).expect("warms the mapping cache");
    warm.find_nsm(&qc, &name).expect("lazy handles resolved");
    row("warm walk FindNSM", WARM_WALK, || {
        warm.find_nsm(&qc, &name).expect("walk")
    });

    warm.set_binding_cache(true);
    warm.find_nsm(&qc, &name).expect("seeds the composed entry");
    row("warm composed FindNSM", WARM_COMPOSED, || {
        warm.find_nsm(&qc, &name).expect("composed")
    });

    // A sibling context of the same name service, first asked about
    // half a TTL later: its composed entry inherits what mappings 2-6
    // had left and lapses with them, its own mapping 1 lives on. Once
    // the primary context's re-walk has refreshed mappings 2-6, the
    // sibling's next query is mapping 1 and one composed probe.
    let sibling = Context::new("bind-uw-sibling").expect("context");
    warm.register_context(&sibling, NS_BIND, &NameMapping::Identity)
        .expect("register sibling");
    let sibling = HnsName::new(sibling, "fiji.cs.washington.edu").expect("name");
    let half_ttl_ms = f64::from(hns_core::META_TTL) * 500.0;
    tb.world.charge_ms(half_ttl_ms);
    warm.find_nsm(&qc, &sibling)
        .expect("sibling, via the service entry");
    tb.world.charge_ms(half_ttl_ms + 1_000.0);
    warm.find_nsm(&qc, &name)
        .expect("re-walk refreshes mappings 2-6");
    let context_hits = warm.binding_cache_stats().hits;
    let service_hits = warm.binding_cache_service_stats().hits;
    row("warm re-walk FindNSM", WARM_REWALK, || {
        warm.find_nsm(&qc, &sibling).expect("re-walk")
    });
    assert_eq!(
        (
            warm.binding_cache_stats().hits - context_hits,
            warm.binding_cache_service_stats().hits - service_hits
        ),
        (0, 1),
        "the row measured a service-level hit"
    );

    let importer = Importer::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        HnsHandle::Linked(Arc::clone(&warm)),
    );
    let import = || {
        importer
            .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
            .expect("import")
    };
    import();
    row("warm Import", WARM_IMPORT, import);

    // A Clearinghouse-backed mail query: the NSM call alone, its binding
    // found beforehand. The NSM keeps no cache, so every call is one
    // authenticated Clearinghouse read.
    tb.deploy_extension_nsms(tb.hosts.nsm);
    let bob = HnsName::new(tb.ctx_ch(), "bob:cs:uw").expect("name");
    let mail_nsm = warm
        .find_nsm(&QueryClass::mailbox_location(), &bob)
        .expect("mail NSM");
    let nsm_client = NsmClient::new(Arc::clone(&tb.net), tb.hosts.client);
    let mail = || nsm_client.call(&mail_nsm, &bob, vec![]).expect("mail");
    mail();
    row("warm Clearinghouse mail NSM call", WARM_CH_MAIL, mail);

    let ch = tb.ch_client(tb.hosts.client);
    let bob = ThreePartName::parse("bob:cs:uw").expect("name");
    let item = || ch.lookup_item(&bob, PROP_MAILBOX).expect("item");
    item();
    row("ChClient::lookup_item", CH_LOOKUP_ITEM, item);

    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    cold.find_nsm(&qc, &name).expect("lazy handles resolved");
    row("cold sequential FindNSM", COLD_SEQUENTIAL, || {
        cold.find_nsm(&qc, &name).expect("cold walk")
    });
    cold.set_batching(true);
    cold.find_nsm(&qc, &name).expect("lazy handles resolved");
    row("cold batched FindNSM", COLD_BATCHED, || {
        cold.find_nsm(&qc, &name).expect("batched walk")
    });

    let owner = DomainName::parse("fiji.cs.washington.edu").expect("name");
    let six = Answer::ok(
        (0..6)
            .map(|i| ResourceRecord::a(owner.clone(), 3600, NetAddr::of(HostId(i))))
            .collect(),
    )
    .to_value()
    .expect("marshals");
    row("6-record answer decode", ANSWER_DECODE, || {
        Answer::from_value(&six).expect("decodes")
    });
}
