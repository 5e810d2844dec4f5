//! The length law for the NSM interface's messages: the request, the
//! standard replies and the binding each state, under either format, the
//! length their tree encodes to — or the error encoding it fails with —
//! because that stated length is what the fabric charges for them.

use proptest::prelude::*;

use hns_core::name::{Context, HnsName};
use hns_core::nsm::{HostAddress, NsmRequest, QueryArgs};
use hns_core::query::QueryClass;
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use nsms::file_loc::FileLocation;
use nsms::mail::MailboxLocation;
use nsms::user_info::UserInfo;
use simnet::topology::{HostId, NetAddr};
use wire::{Message, WireError, WireFormat};

/// The law: the stated length is the encoded tree's, or the same error.
fn states_the_length_of_its_encoded_tree(msg: &dyn Message) -> Option<WireError> {
    let mut refused = None;
    for format in [WireFormat::Xdr, WireFormat::Courier] {
        let encoded = format.encode(&msg.tree()).map(|bytes| bytes.len());
        assert_eq!(msg.encoded_len(format), encoded, "{format}");
        refused = refused.or(encoded.err());
    }
    refused
}

/// Non-empty text, now and then around what a Courier word can count.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ -~]{1,24}",
        (wire::courier::MAX_LEN - 2..wire::courier::MAX_LEN + 3).prop_map(|n| "t".repeat(n)),
    ]
}

/// Whether encoding must refuse a message carrying `texts` (under
/// Courier, a string longer than a word can count).
fn too_long(texts: &[&str]) -> bool {
    texts.iter().any(|t| t.len() > wire::courier::MAX_LEN)
}

fn arb_args() -> impl Strategy<Value = QueryArgs> {
    prop_oneof![
        Just(QueryArgs::None),
        (arb_text(), any::<u32>()).prop_map(|(service, program)| QueryArgs::Binding {
            service,
            program: ProgramId(program),
        }),
        arb_text().prop_map(|path| QueryArgs::File { path }),
    ]
}

fn arb_components() -> impl Strategy<Value = ComponentSet> {
    prop_oneof![
        Just(ComponentSet::sun()),
        Just(ComponentSet::courier()),
        any::<u16>().prop_map(ComponentSet::raw_tcp),
        any::<u16>().prop_map(ComponentSet::raw_udp),
    ]
}

proptest! {
    #[test]
    fn every_nsm_message_states_the_length_of_its_encoded_tree(
        context in "[a-z0-9-]{1,12}",
        individual in arb_text(),
        class in any::<bool>(),
        args in arb_args(),
        texts in proptest::collection::vec(arb_text(), 4..5),
        numbers in (any::<u32>(), any::<u32>(), any::<u16>()),
        components in arb_components(),
    ) {
        let name = HnsName::new(Context::new(&context).expect("context"), individual.as_str())
            .expect("name");
        let query_class = class.then(QueryClass::file_location);
        let own: Vec<&str> = match &args {
            QueryArgs::None => vec![],
            QueryArgs::Binding { service, .. } => vec![service],
            QueryArgs::File { path } => vec![path],
        };
        let request = NsmRequest { query_class, name, args: args.clone() };
        prop_assert_eq!(
            states_the_length_of_its_encoded_tree(&request).is_some(),
            too_long(&[own, vec![individual.as_str()]].concat())
        );

        let (host, ttl, port) = numbers;
        let address = HostAddress { host: HostId(host), ttl };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&address), None);
        let binding = HrpcBinding {
            host: HostId(host),
            addr: NetAddr::of(HostId(host)),
            program: ProgramId(ttl),
            port,
            components,
        };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&binding), None);

        let [a, b, c, d] = [&texts[0], &texts[1], &texts[2], &texts[3]];
        let mailbox = MailboxLocation { mailbox_host: a.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&mailbox).is_some(), too_long(&[a]));
        let file = FileLocation { file_host: b.clone(), local_path: c.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&file).is_some(), too_long(&[b, c]));
        let user = UserInfo { full_name: d.clone(), host: a.clone() };
        prop_assert_eq!(states_the_length_of_its_encoded_tree(&user).is_some(), too_long(&[d, a]));
    }
}
