//! Allocation budget of the message path.
//!
//! Marshalling — building `Value` trees, names and record payloads — is
//! what a lookup costs its host (the paper's Table 3.2), and most of that
//! cost is the allocator. This pins how much one `FindNSM` and one
//! `Import` request from it, on the paper's testbed with the binding NSMs
//! on a remote host (the set-up of the benchmark's `hns-core.find_nsm.*`
//! probes), what decoding a reply's record list costs, and — on the
//! registration testbed — what the write plane's operations cost: a warm
//! `regd` resolve, a re-bind, a transfer, a Clearinghouse write and
//! delete; what standing up a cell's zone costs a server; and what one
//! zone transfer, the preload path, costs its caller and the server.
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

use bindns::axfr::transfer_zone;
use bindns::message::Answer;
use bindns::server::{deploy, single_zone_server};
use bindns::zone::{RrBody, Zone};
use bindns::{DomainName, ResourceRecord, ZoneDb};
use clearinghouse::property::{PROP_ADDRESS, PROP_MAILBOX};
use clearinghouse::ThreePartName;
use conformance::alloc::{measure_calls, CountingAlloc};
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::nsm::NsmClient;
use hns_core::query::QueryClass;
use hns_core::service::HnsConfig;
use hrpc::RpcNet;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NS_BIND, NS_CH};
use nsms::import::Importer;
use nsms::nsm_cache::NsmCacheForm;
use regd::{owner_key, owner_name, RegTestbed};
use simnet::topology::{HostId, NetAddr};
use simnet::world::World;
use wire::Value;

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
/// cache hit as the `HrpcBinding` itself, moved into the caller's reply
/// slot, so what is left is the request's copy of the service. The
/// request shares the caller's name, and the NSM's local name is a slice
/// of it. (2 / 46 B while the binding travelled back in a box; 5 / 97 B
/// while the request copied the name's two
/// strings and the NSM copied the local name out of it; 11 / 1,040 B
/// while the argument record and the reply were trees and the NSM keyed
/// its cache on a formatted string; 37 / 1,721 B before names became
/// shared strings; 12 while each call built its own `QueryClass`.)
const WARM_IMPORT: Row = (1, 14);
/// A Clearinghouse-backed mail query, the NSM call alone: the mailbox
/// string the NSM copies out of the item, and the field vector of the
/// tree `NsmClient::call` hands its caller, into which that string is
/// moved. The three-part name shares the request's individual name, its
/// text being canonical; the `Property` shares the item its entry keeps;
/// both it and the `MailboxLocation` are moved into their callers' slots.
/// (3 / 105 B while the name was parsed from the NSM's local name, one
/// shared string, and the Clearinghouse copied the item out of its
/// entry; 4 / 122 B while the tree copied the mailbox's string; 6 / 178 B
/// while each travelled in a box; 9 / 201 B while the request copied the
/// name's two strings and the NSM copied the local name out of it; 35 /
/// 1,235 B while request, lookup and both replies were trees, and a
/// three-part name was four allocations to parse.)
const WARM_CH_MAIL: Row = (2, 73);
/// A Clearinghouse-backed file-location query, the NSM call alone: the
/// caller's field vector and the path in it, the host string the NSM
/// copies out of the item, the local path, and the field vector of the
/// caller's tree, into which both strings are moved. The name shares the
/// request's individual name and the item is read where the
/// Clearinghouse keeps it, as the BIND twin's record is. (8 / 368 B while
/// the name was parsed and the item — a field vector and two strings —
/// copied out of its entry, its host then moved into the
/// `FileLocation`; 11 / 426 B while the NSM copied the host out of the
/// item and the tree copied both strings.)
const WARM_CH_FILE: Row = (5, 216);
/// The costliest warm op kind, a BIND-backed file-location query, the
/// NSM call alone: the caller's field vector and the path in it (moved
/// into the request, not copied), the `FileLocation`'s two strings, and
/// the field vector of the tree `NsmClient::call` hands its caller, into
/// which both strings are moved. The record is read where the resolver's
/// cache keeps it. (9 / 370 B while the local name was parsed into a
/// domain name, the cached answer rebuilt on it, and the tree copied the
/// two strings; 11 / 474 B while the
/// `FileLocation` travelled in a box; 17 / 578 B while the request
/// copied the name's two strings and the
/// path, the NSM copied the local name out of the name, and the local
/// path was formatted, growing twice; 10 / 426 B while the cached
/// answer's text was copied out of the cache, not counted, and a record
/// was 8 bytes wider.)
const WARM_BIND_FILE: Row = (5, 215);
/// A BIND-backed mail query, the NSM call alone: the `MX` target's text
/// and the field vector of the caller's tree, into which the text is
/// moved; the record is read where the resolver's cache keeps it. (5 /
/// 204 B while the local name was parsed into a domain name, the cached
/// answer rebuilt on it, and the tree copied the target's text.)
const WARM_BIND_MAIL: Row = (2, 78);
/// `ChClient::lookup_item`: the client's copy of the item the `Property`
/// shares with the server's entry; the `Property` is moved into the
/// client's slot. The `Lookup` it sends
/// shares the name and the credentials. (2 / 49 B while the `Property`
/// came back in a box; 23 / 942 B while the request was a
/// tree of the credentials, the name's text and the property, the reply
/// a tree copied once more on the way out, and `ChDb::serves` cloned the
/// domain's two strings on every operation.)
const CH_LOOKUP_ITEM: Row = (1, 17);
/// Cold sequential `FindNSM`: every cache off, six remote mappings. The
/// question crosses the fabric as the struct it is, and the answer —
/// its owner and that owner's bodies, one held inline — is moved into
/// the caller's slot, so a mapping costs its key and the decoded
/// record's own strings, handed to the walk by value, as no cache keeps
/// it; mapping 3's six bodies share one vector, and mapping 6's request
/// shares the host's context and copies only its name. (27 / 1,244 B
/// while each of the six answers was a vector of whole records, five of
/// them of one, and each answer and mapping 6's `HostAddress` travelled
/// in a box; 38 / 2,039 B while each decoded
/// record was wrapped in an `Arc` nobody shared, 6 / 576 B, and the
/// host-address NSM's resolver built and dropped the fast-codec bytes of
/// its answer to check they encode, 5 / 219 B; 40 / 2,075 B while that
/// request copied the context too and the linked NSM copied the local
/// name out of the name; 100 / 7,786 B while every question and answer
/// was built into a `Value` tree and taken apart again —
/// `Answer::to_value` alone was 57 of them; 136 / 10,229 B while each
/// reply became `ResourceRecord`s, then strings, then parsed pieces, and
/// seven key texts were interned for a cache that stores nothing; 101 /
/// 8,962 B before a zone sized its answer once; 585 / 23,946 B before
/// names became shared strings and struct field names static; 40 / 2,179
/// B while the linked host-address NSM of mapping 6 answered with a
/// two-field vector, not its eight-byte `HostAddress` in a box; 15 / 668
/// B while a body was 40 bytes, 8 B more for each of mapping 3's six.)
const COLD_SEQUENTIAL: Row = (15, 620);
/// Cold batched `FindNSM`: every cache off, mappings 1–5 in one `MQUERY`
/// whose additional sets the meta server's chaser attaches. Holds the
/// typed `MultiQuestion` / `MultiAnswer` path. The chaser reads the four
/// sets it attaches by value, each an answer of its own owner, and
/// mapping 6's record is handed over as in the sequential walk. (56 /
/// 3,496 B while every answer was a vector of whole records, the chaser's
/// sets came with their owners beside them, and the reply and mapping
/// 6's `HostAddress` travelled in a box; 66 / 4,195 B while the chaser
/// wrapped each of
/// its four records in an `Arc`, 4 / 384 B, and mapping 6 paid the `Arc`
/// and the fast-codec bytes of the sequential row, 6 / 315 B; 152 /
/// 11,525 B while the batch and its reply were trees; 68 / 4,376 B while
/// mapping 6's reply was a vector, as above; 68 / 4,272 B while every
/// copy of a context copied its text, and mapping 6 as above; 48 / 3,472
/// B while a record and a body were each 8 bytes wider, 15 of them).
const COLD_BATCHED: Row = (48, 3_352);
/// Decoding a six-record answer of one owner: the owner name, parsed
/// once, and the vector of its six bodies. What an untyped peer's reply
/// costs at the edge where it is decoded. (2 / 376 B while each record
/// carried a copy of its owner's name; 2 / 280 B while a body was 40
/// bytes.)
const ANSWER_DECODE: Row = (2, 232);

/// Warm `Registry::resolve`, the write plane's read: one probe of the link
/// past the collapsed head, which the Clearinghouse answers "no such
/// entry" (its error text is one allocation), and the `Resolution`'s four
/// strings. The head is shared out of the cache and carries its probe's
/// three-part name. (12 / 139 B while every resolve cloned the head —
/// three strings and the holder list — and formatted and parsed the probe
/// name.)
const REG_RESOLVE: Row = (5, 37);
/// `Registry::update`: the warm resolve's probe, the base record (a
/// three-field tree) and the shared cell the `SetItem` carries it in,
/// which the Clearinghouse keeps as the entry's item, the cached
/// head's new service — changed in place, nobody else holding it — and
/// the meta zone's dynamic update through the rebinder, whose answer is
/// moved into the caller's slot. The context the rebinder names is a
/// shared string, 24 B where its `String` was 3. (16 / 584 B while the
/// Clearinghouse copied the record — its field vector and two strings —
/// into its entry; 18 / 760 B while that
/// answer travelled in a box; 19
/// / 763 B while the meta store took its one payload in a vector; 38 /
/// 1,641 B while the `SET_ITEM` request was a tree the server parsed back, and
/// the head was cloned on the way in and copied again to be changed; 19
/// / 767 B while the zone named a record's body by an 8-byte `Arc`, not
/// a 4-byte id, in the vector of the records a replace takes out; 17 /
/// 728 B while a record was 8 bytes wider, twice over; 17 / 712 B while
/// a replace logged its owner for what went and again for each record,
/// so this one grew the meta zone's delta log from 8 entries to 16.)
const REG_UPDATE: Row = (14, 454);
/// `Registry::transfer`: the probe, the signed link (its two owners) and
/// its tree, in the shared cell the server keeps, the new head — the
/// cached one copied, one holder more, the next probe's name — and the
/// `Resolution`. (25 / 1,336 B while the server copied the link's tree
/// into its entry; 42 / 2,051 B while the link's write was a tree the
/// server parsed back, and both entry names were formatted and parsed per
/// operation.)
const REG_TRANSFER: Row = (23, 1_148);
/// `ChClient::set_item` of a string item over an existing one: the string
/// and the shared cell it crosses in, which the server keeps as the
/// entry's item, so that a `LOOKUP` reply can share it. The `SetItem` it
/// sends shares the name and the credentials. (2 / 34 B while the server
/// copied the string into its entry; 10 / 740 B while the request was a tree of the
/// credentials, the name's text, the property and the value, and the
/// server parsed the name and the identity back out of it.)
const CH_SET_ITEM: Row = (2, 65);
/// `ChClient::delete`: nothing. The `Named` it sends shares the name and
/// the credentials, and an entry going away frees. (7 / 403 B while the
/// request was a tree the server parsed back.)
const CH_DELETE: Row = (0, 0);
/// `ChClient::lookup_item_run` of two address items, as `regd` reads a
/// chain of links: the `LookupRun`'s vector of the two names, which it
/// shares, and the reply's vector of the two items, which are numbers.
/// The reply lands in the client's slot as the tree it is; the decoder
/// that would clone it never runs.
const CH_LOOKUP_ITEM_RUN: Row = (2, 176);

/// `Zone::load` of a 4,096-name cell shaped like the scale world's, 8
/// binding payloads shared by `Arc`, then `ZoneDb::add_zone`: the zone's
/// rows, owner index and delta log's room once each (a load logs
/// nothing), its name arena as it doubles and then trimmed, its body
/// table as it grows, and the database's one slot, a 280-byte `Zone` —
/// `add_zone` trims nothing more. The records, built beforehand as each
/// owner's label and its body, are moved in; the row held when they were
/// whole records at their absolute names, whose names were built
/// beforehand too, so only what the load allocates is counted either
/// way. (The same records through `Zone::new`, 4,096 `add`s and
/// `add_zone`: 54 / 276,766 B, the index rebuilt at every doubling and
/// again by `add_zone`, rows and log regrown and trimmed. 24 / 168,014 B
/// while a row was 12 bytes and a zone had no pin table, whose header
/// costs 24 B in each of the node's eleven slots. 24 / 151,894 B while
/// the database held its zone in a B-tree leaf of eleven slots, 3,152 B
/// beyond the one it fills; the several-record table's random hasher
/// kept 16 B of keys in the zone; and a body-table entry was 48 bytes,
/// 96 B over the twelve the table asks for as it grows.)
const CELL_LOAD: Row = (24, 148_630);

/// `transfer_zone` of an eight-name zone of one text record each, typed
/// both ways: the server's sorted copy of the records (12: the sorted
/// owners, the record vector as it grows, and each owner's full name;
/// each text is one reference more) and the two strings the metrics
/// registry keys its `zone_transfers` lookup with — nothing on the
/// client, whose slot the `ZoneTransfer` is moved into. (23 / 1,364 B
/// while it travelled back in a box; 69 / 4,559 B while request and reply
/// were trees: every record was built into a four-field tree, and decoded
/// back into a record and its owner's name on the client; 22 / 1,324 B
/// while the copy copied each text and a record was 8 bytes wider.)
const ZONE_TRANSFER: Row = (14, 1_172);

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

    let walk = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    walk.find_nsm(&qc, &name).expect("warms the mapping cache");
    walk.find_nsm(&qc, &name).expect("lazy handles resolved");
    row("warm walk FindNSM", WARM_WALK, || {
        walk.find_nsm(&qc, &name).expect("walk")
    });

    let cache = CacheMode::Demarshalled;
    let warm = tb.make_hns(
        tb.hosts.client,
        HnsConfig {
            cache,
            composed: true,
        },
    );
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

    // A Clearinghouse-backed file-location query, the NSM call alone.
    let designs = HnsName::new(tb.ctx_ch(), "designs:cs:uw").expect("name");
    let ch_file_nsm = warm
        .find_nsm(&QueryClass::file_location(), &designs)
        .expect("file NSM");
    let ch_file = || {
        let path = vec![("path", Value::str("dlion/board.dwg"))];
        nsm_client.call(&ch_file_nsm, &designs, path).expect("file")
    };
    ch_file();
    row("warm Clearinghouse file NSM call", WARM_CH_FILE, ch_file);

    // A BIND-backed file-location query, the NSM call alone: the path
    // handed over in the caller's fields, the record read through the
    // NSM's resolver cache.
    let sources = HnsName::new(tb.ctx_bind(), "sources.cs.washington.edu").expect("name");
    let file_nsm = warm
        .find_nsm(&QueryClass::file_location(), &sources)
        .expect("file NSM");
    let file = || {
        let path = vec![("path", Value::str("hrpc/stubs.c"))];
        nsm_client.call(&file_nsm, &sources, path).expect("file")
    };
    file();
    file();
    row("warm BIND file-location NSM call", WARM_BIND_FILE, file);

    // A BIND-backed mail query, the NSM call alone: the `MX` record read
    // through the NSM's resolver cache.
    let alice = HnsName::new(tb.ctx_bind(), "alice.cs.washington.edu").expect("name");
    let bind_mail_nsm = warm
        .find_nsm(&QueryClass::mailbox_location(), &alice)
        .expect("mail NSM");
    let bind_mail = || (nsm_client.call(&bind_mail_nsm, &alice, vec![])).expect("mail");
    bind_mail();
    bind_mail();
    row("warm BIND mail NSM call", WARM_BIND_MAIL, bind_mail);

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

/// The write plane on the registration testbed: `regd` over the
/// Clearinghouse, re-binds propagated into the meta zone. Each row is
/// measured after the same operation has run once, so what it counts is
/// the operation, not a lazily registered metric.
#[test]
fn the_write_plane_stays_within_its_allocation_budgets() {
    let rt = RegTestbed::build(4);
    let reg = &rt.registry;
    let owner = |i| (owner_name(i), owner_key(i));
    let (alice, alice_key) = owner(0);
    reg.register(&alice, alice_key, "svc", NS_BIND)
        .expect("register");
    reg.resolve("svc").expect("warm");
    row("warm Registry::resolve", REG_RESOLVE, || {
        reg.resolve("svc").expect("resolve")
    });

    reg.update(&alice, alice_key, "svc", NS_CH).expect("update");
    row("Registry::update", REG_UPDATE, || {
        reg.update(&alice, alice_key, "svc", NS_BIND)
            .expect("update")
    });

    let (bob, bob_key) = owner(1);
    reg.transfer(&alice, alice_key, "svc", &bob, None)
        .expect("transfer");
    let carol = owner_name(2);
    row("Registry::transfer", REG_TRANSFER, || {
        reg.transfer(&bob, bob_key, "svc", &carol, None)
            .expect("transfer")
    });

    let ch = rt.tb.ch_client(rt.tb.hosts.client);
    let bob = ThreePartName::parse("bob:cs:uw").expect("name");
    let mailbox = || Value::str("printserver:cs:uw");
    ch.set_item(&bob, PROP_MAILBOX, mailbox()).expect("set");
    row("ChClient::set_item", CH_SET_ITEM, || {
        ch.set_item(&bob, PROP_MAILBOX, mailbox()).expect("set")
    });

    let temp = ThreePartName::parse("temp:cs:uw").expect("name");
    ch.add_entry(&temp).expect("add");
    ch.delete(&temp).expect("delete");
    ch.add_entry(&temp).expect("add");
    row("ChClient::delete", CH_DELETE, || {
        ch.delete(&temp).expect("delete")
    });

    let run =
        ["printserver:cs:uw", "dlion:cs:uw"].map(|name| ThreePartName::parse(name).expect("name"));
    let addresses = || ch.lookup_item_run(&run, PROP_ADDRESS).expect("run");
    assert_eq!(addresses().len(), 2);
    row(
        "warm ChClient::lookup_item_run",
        CH_LOOKUP_ITEM_RUN,
        addresses,
    );
}

/// Standing up a cell's zone: what a server taking a transferred or
/// generated zone pays before its first answer.
#[test]
fn a_cell_zone_loads_within_its_allocation_budget() {
    let origin = DomainName::parse("cell0.hns").expect("origin");
    let payloads: Vec<Arc<[u8]>> = (0..8)
        .map(|slot| {
            let text = format!(
                "nsm=nsm-cell0-{slot};host=ns.cell0.hns;context=cell0;\
                 program=30000{slot};port=102{slot};suite=sun;version=1;owner=admin-cell0"
            );
            text.into_bytes().into()
        })
        .collect();
    let records = || -> Vec<ResourceRecord> {
        (0..4096)
            .map(|i| {
                let name = origin.child(&format!("n{i}")).expect("name");
                ResourceRecord::unspec(name, 600, Arc::clone(&payloads[i * 7 % 8]))
            })
            .collect()
    };
    let added = records();
    let (_, used) = measure_calls(|| {
        let mut zone = Zone::new(origin.clone(), 600);
        added.into_iter().for_each(|rr| zone.add(rr).expect("add"));
        let mut db = ZoneDb::new();
        db.add_zone(zone);
        db
    });
    let (bytes, calls) = used.expect("counting allocator installed");
    println!(
        "{:<32} {calls:>6} allocations {bytes:>8} B",
        "(4,096 adds, then add_zone)"
    );
    // The same records as the zone stores them: each owner's label and
    // its body.
    let loaded: Vec<(String, RrBody)> = records()
        .iter()
        .map(|rr| {
            let label = rr.name.labels().next().expect("a label below the origin");
            let body = RrBody {
                rtype: rr.rtype,
                ttl: rr.ttl,
                rdata: rr.rdata.clone(),
            };
            (label.to_owned(), body)
        })
        .collect();
    row("Zone::load 4,096 names, add_zone", CELL_LOAD, || {
        let mut db = ZoneDb::new();
        db.add_zone(Zone::load(origin.clone(), 600, loaded).expect("load"));
        db
    });
}

/// A zone transfer, the preload path: what one `AXFR` costs its caller
/// and the server answering it.
#[test]
fn a_zone_transfer_stays_within_its_allocation_budget() {
    let world = World::paper();
    let client = world.add_host("client");
    let primary = world.add_host("primary");
    let net = RpcNet::new(Arc::clone(&world));
    let origin = DomainName::parse("hns").expect("origin");
    let mut zone = Zone::new(origin.clone(), 600);
    for i in 0..8 {
        let owner = origin.child(&format!("e{i}")).expect("name");
        let record = ResourceRecord::txt(owner, 600, format!("entry {i}"));
        zone.add(record).expect("add");
    }
    let dep = deploy(&net, primary, single_zone_server("primary", zone, true));
    let transfer = || transfer_zone(&net, client, &dep.hrpc_binding, &origin).expect("axfr");
    transfer();
    row("transfer_zone, 8 names", ZONE_TRANSFER, transfer);
}
