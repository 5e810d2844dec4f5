//! A typed reply moved into a tree is the tree its shape builds.
//!
//! `Message::into_tree` on a `wire::record!` type moves each field into
//! its piece of the tree (`Field::into_value`); `Message::tree` reads the
//! shape, copying. For every record type of the workspace, on generated
//! values — nested records, carried `Value` trees and optional fields
//! among them — the two trees are equal, and both have the length the
//! struct states (`Message::encoded_len`, the sizer's reading of the
//! shape) under XDR and under Courier, an oversize refusal included.
//! The fast codec carries record batches only, which no record type is,
//! so the stated length stands for the typed path's size.

use std::collections::BTreeSet;
use std::path::Path;

use proptest::prelude::*;

use bindns::axfr::{IxfrRequest, ZoneRequest};
use bindns::message::{MultiQuestion, Question};
use bindns::name::DomainName;
use bindns::rr::RType;
use clearinghouse::{
    AddAlias, AddMember, Credentials, List, Lookup, LookupRun, Named, PropertyId, SetItem,
    ThreePartName,
};
use hrpc::bindproto::{GetPort, ResolveService};
use nsms::file_loc::FileLocation;
use nsms::mail::MailboxLocation;
use nsms::user_info::UserInfo;
use regd::{Register, Release, Resolution, Resolve, Transfer, TransferLink, Update};
use wire::{Message, Value, WireFormat};

/// Every type this file generates, by name: what the workspace declares
/// with `wire::record!` must be this set.
const COVERED: &[&str] = &[
    "Question",
    "MultiQuestion",
    "ZoneRequest",
    "IxfrRequest",
    "Credentials",
    "Lookup",
    "SetItem",
    "Named",
    "AddMember",
    "AddAlias",
    "LookupRun",
    "List",
    "TransferLink",
    "Register",
    "Update",
    "Transfer",
    "Release",
    "Resolve",
    "Resolution",
    "GetPort",
    "ResolveService",
    "UserInfo",
    "MailboxLocation",
    "FileLocation",
];

/// The moved tree is the shaped tree, and both are as long as the
/// struct says under either format.
fn moves_as_it_shapes<M: Message + Clone>(x: &M) {
    let moved = x.clone().into_tree();
    let shaped = x.tree().into_owned();
    prop_assert_eq!(&moved, &shaped);
    for format in [WireFormat::Xdr, WireFormat::Courier] {
        let stated = x.encoded_len(format);
        prop_assert_eq!(format.encoded_len(&moved), stated.clone(), "{format}");
        prop_assert_eq!(format.encoded_len(&shaped), stated, "{format}");
    }
}

/// Text of any printable ASCII, empty included.
fn text() -> impl Strategy<Value = String> {
    "[ -~]{0,12}"
}

/// A string long enough, one time in eight, to pass Courier's limit.
fn maybe_long() -> impl Strategy<Value = String> {
    (0u32..8, text()).prop_map(|(pick, text)| match pick {
        0 => "x".repeat(65_535 + text.len()),
        _ => text,
    })
}

fn optional() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), text()).prop_map(|(some, text)| some.then_some(text))
}

fn domain() -> impl Strategy<Value = DomainName> {
    let labels = proptest::collection::vec("[a-z0-9-]{1,8}", 1..5);
    labels.prop_map(|labels| DomainName::parse(&labels.join(".")).expect("a name"))
}

fn rtype() -> impl Strategy<Value = RType> {
    let types = [
        RType::A,
        RType::Ns,
        RType::Cname,
        RType::Txt,
        RType::Mx,
        RType::Unspec,
    ];
    (0usize..types.len()).prop_map(move |at| types[at])
}

fn tpn() -> impl Strategy<Value = ThreePartName> {
    ("[a-z0-9]{1,6}", "[a-z]{1,4}", "[a-z]{1,4}").prop_map(|(object, domain, org)| {
        ThreePartName::new(&object, &domain, &org).expect("a name")
    })
}

fn creds() -> impl Strategy<Value = Credentials> {
    (tpn(), any::<u64>()).prop_map(|(identity, key)| Credentials::new(identity, key))
}

fn prop_id() -> impl Strategy<Value = PropertyId> {
    any::<u32>().prop_map(PropertyId)
}

/// A tree of every kind of node, nested up to three deep.
fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Void),
        any::<bool>().prop_map(Value::Bool),
        any::<u32>().prop_map(Value::U32),
        any::<i32>().prop_map(Value::I32),
        any::<u64>().prop_map(Value::U64),
        text().prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..9).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{1,5}", inner.clone()), 0..4).prop_map(|fields| {
                Value::Struct(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
            (any::<bool>(), inner).prop_map(|(some, v)| Value::Opt(some.then(|| Box::new(v)))),
        ]
    })
}

fn question() -> impl Strategy<Value = Question> {
    (domain(), rtype()).prop_map(|(name, rtype)| Question::new(name, rtype))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bindns_records_move_as_they_shape(
        q in question(),
        questions in proptest::collection::vec(question(), 0..4),
        hints in proptest::collection::vec(maybe_long(), 0..3),
        origin in domain(),
        from_serial in any::<u32>(),
    ) {
        moves_as_it_shapes(&q);
        moves_as_it_shapes(&MultiQuestion::new(questions, hints));
        moves_as_it_shapes(&ZoneRequest { origin: origin.clone() });
        moves_as_it_shapes(&IxfrRequest { origin, from_serial });
    }

    #[test]
    fn clearinghouse_records_move_as_they_shape(
        creds in creds(),
        name in tpn(),
        target in tpn(),
        names in proptest::collection::vec(tpn(), 0..4),
        prop in prop_id(),
        value in value(),
        member in maybe_long(),
        parts in (text(), text(), text(), text()),
    ) {
        moves_as_it_shapes(&creds);
        let lookup = Lookup { creds: creds.clone(), name: name.clone(), prop };
        moves_as_it_shapes(&lookup);
        let set = SetItem { creds: creds.clone(), name: name.clone(), prop, value: value.into() };
        moves_as_it_shapes(&set);
        moves_as_it_shapes(&Named { creds: creds.clone(), name: name.clone() });
        let add = AddMember { creds: creds.clone(), name: name.clone(), prop, member };
        moves_as_it_shapes(&add);
        let alias = AddAlias { creds: creds.clone(), name, target };
        moves_as_it_shapes(&alias);
        moves_as_it_shapes(&LookupRun { creds: creds.clone(), names, prop });
        let (name, domain, organization, pattern) = parts;
        moves_as_it_shapes(&List { creds, name, domain, organization, pattern });
    }

    #[test]
    fn regd_records_move_as_they_shape(
        owner in text(),
        to in maybe_long(),
        name in text(),
        service in text(),
        rebind in optional(),
        key in any::<u64>(),
        seq in any::<u32>(),
        walked in any::<bool>(),
    ) {
        let link = TransferLink { seq, from: owner.clone(), to: to.clone(), sig: key };
        moves_as_it_shapes(&link);
        let register = Register {
            owner: owner.clone(), key, name: name.clone(), service: service.clone(),
        };
        moves_as_it_shapes(&register);
        let update = Update {
            owner: owner.clone(), key, name: name.clone(), service: service.clone(),
        };
        moves_as_it_shapes(&update);
        let transfer = Transfer {
            owner: owner.clone(), key, name: name.clone(), to: to.clone(), rebind,
        };
        moves_as_it_shapes(&transfer);
        let release = Release { owner: owner.clone(), key, name: name.clone() };
        moves_as_it_shapes(&release);
        moves_as_it_shapes(&Resolve { name: name.clone() });
        let resolution = Resolution {
            name, owner, base_owner: to, service, depth: seq, walked,
        };
        moves_as_it_shapes(&resolution);
    }

    #[test]
    fn hrpc_and_nsm_records_move_as_they_shape(
        program in any::<u32>(),
        first in maybe_long(),
        second in text(),
    ) {
        moves_as_it_shapes(&GetPort { program });
        moves_as_it_shapes(&ResolveService { service: first.clone() });
        let user = UserInfo { full_name: first.clone(), host: second.clone() };
        moves_as_it_shapes(&user);
        moves_as_it_shapes(&MailboxLocation { mailbox_host: first.clone() });
        let file = FileLocation { file_host: second, local_path: first };
        moves_as_it_shapes(&file);
    }
}

/// The names `wire::record!` is given in the `.rs` files under `dir`.
fn declared(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("an entry").path();
        if path.is_dir() {
            declared(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("a source file");
            for (_, rest) in text
                .match_indices("wire::record!(")
                .map(|(at, _)| text.split_at(at))
            {
                let name = rest["wire::record!(".len()..].split([' ', '{']).next();
                into.insert(name.unwrap_or_default().to_string());
            }
        }
    }
}

/// Every record type the workspace declares outside `wire` is generated
/// above; a new one fails here until it is.
#[test]
fn every_record_type_is_covered() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut found = BTreeSet::new();
    for krate in std::fs::read_dir(&crates).expect("crates/") {
        let src = krate.expect("a crate").path().join("src");
        if src.is_dir() {
            declared(&src, &mut found);
        }
    }
    let covered: BTreeSet<String> = COVERED.iter().map(|name| name.to_string()).collect();
    assert_eq!(found, covered);
}
