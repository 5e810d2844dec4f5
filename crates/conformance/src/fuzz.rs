//! Deterministic seeded mutation fuzzing over the golden corpus.
//!
//! Rather than throwing random bytes at the decoders (which mostly
//! exercises the first tag check), the fuzzer starts from corpus-valid
//! messages and applies structured damage: truncation, bit flips,
//! length-field inflation, and cross-message splices. Each iteration
//! asserts three properties (the message layer a fourth):
//!
//! 1. **No panics** — malformed input must produce a typed error, never
//!    an abort (checked via `catch_unwind`).
//! 2. **Bounded allocation** — decoding must never allocate more than a
//!    budget proportional to the input length. This is the regression
//!    guard for the length-prefix bomb defence.
//! 3. **Idempotence** — when a mutant *does* decode, the decoded message
//!    must survive encode→decode unchanged.
//!
//! The wire is not where a message stops being input: a mutant that
//! decodes to a [`Value`] is then handed to every **message-level**
//! reader that takes such a value apart — `bindns`'s `Answer`,
//! `MultiAnswer`, `Question`, `MultiQuestion` and `UpdateOp`, and the
//! zone transfers' `ZoneRequest`, `IxfrRequest`, `ZoneTransfer` and
//! `IncrementalTransfer`; the binders' `GetPort` and `ResolveService`; the
//! NSM interface's `NsmRequest` and the standard replies (`HrpcBinding`,
//! `HostAddress`, `MailboxLocation`, `FileLocation`, `UserInfo`); the
//! Clearinghouse's requests (`Lookup`, `SetItem`, `Named`, `AddMember`,
//! `AddAlias`, `LookupRun`, `List`) and `Property`; `regd`'s requests
//! (`Register`, `Update`, `Transfer`, `Release`, `Resolve`) and
//! `Resolution`; and, over the payloads of the records `Answer` finds, the
//! `MetaRecord` decoder of each record kind — under the same three
//! properties (accepted ⇒ what it re-encodes to reads back equal). Their
//! bases are the corpus plus [`meta_seeds`] (replies carrying real meta
//! record sets, so the typed decoder meets near-valid payloads) and
//! [`message_seeds`] (one of each NSM, Clearinghouse and `regd` message).
//!
//! 4. **The length law** — every one of those but `MetaRecord` crosses
//!    the fabric as itself ([`wire::Message`]) and is charged by the
//!    length it states, so every one a reader accepts must state, under
//!    either format, exactly what encoding its tree gives: the same
//!    length, or the same error.
//!
//! Everything derives from one [`DetRng`] stream, so a failing seed
//! replays exactly: `experiments fuzz --seed N --iters M`.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bindns::axfr::{IncrementalTransfer, IxfrRequest, ZoneRequest, ZoneTransfer};
use bindns::message::{Answer, MultiAnswer, MultiQuestion, Question};
use bindns::rr::{RData, ResourceRecord};
use bindns::update::UpdateOp;
use bindns::DomainName;
use clearinghouse::property::{PROP_FILE_SERVICE, PROP_MEMBERS};
use clearinghouse::{
    AddAlias, AddMember, Credentials, List, Lookup, LookupRun, Named, Property, PropertyId,
    SetItem, ThreePartName,
};
use hns_core::meta::{Kind, MetaRecord};
use hns_core::name::{Context, HnsName};
use hns_core::nsm::{HostAddress, NsmBinding, NsmInfo, NsmRequest, QueryArgs, SuiteTag};
use hns_core::query::QueryClass;
use hrpc::bindproto::{GetPort, ResolveService};
use hrpc::{HrpcBinding, ProgramId};
use nsms::file_loc::FileLocation;
use nsms::mail::MailboxLocation;
use nsms::user_info::UserInfo;
use regd::registry::Resolution;
use regd::{Register, Release, Resolve, Transfer, Update};
use simnet::rng::DetRng;
use simnet::topology::HostId;
use wire::{Message, Value, WireFormat};

use crate::alloc;
use crate::corpus::{self, check_idempotence, decode_message, CorpusEntry, Decoded, Decoder};

/// Per-byte allocation budget multiplier. A self-describing decode can
/// legitimately expand input (tags, Vec growth doubling, String
/// overhead) but only by a constant factor.
pub const ALLOC_BYTES_PER_INPUT_BYTE: u64 = 256;

/// Fixed allocation allowance, covering decoder setup costs that do not
/// scale with input (error formatting, small fixed buffers).
pub const ALLOC_FIXED_BUDGET: u64 = 16 * 1024;

/// Allocation budget for decoding `len` input bytes.
pub fn alloc_budget(len: usize) -> u64 {
    ALLOC_BYTES_PER_INPUT_BYTE * len as u64 + ALLOC_FIXED_BUDGET
}

/// Fuzzer parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Iterations to run.
    pub iters: u64,
    /// Seed for the mutation stream.
    pub seed: u64,
}

/// Outcome of a fuzzing run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Mutants that decoded successfully (and passed idempotence).
    pub decode_ok: u64,
    /// Mutants rejected with a typed error.
    pub decode_rejected: u64,
    /// Message-level reads of decoded values that were accepted (and
    /// passed idempotence).
    pub message_ok: u64,
    /// Message-level reads rejected with a typed error.
    pub message_rejected: u64,
    /// Property violations (panic, budget, idempotence). Empty on a
    /// clean run.
    pub violations: Vec<String>,
    /// Whether a counting allocator was installed (budget enforced).
    pub alloc_tracked: bool,
    /// Largest single-decode allocation observed, bytes.
    pub max_alloc: u64,
}

impl FuzzReport {
    /// True when no property was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary for the CLI.
    pub fn render(&self) -> String {
        let alloc_line = if self.alloc_tracked {
            format!("max single-decode allocation {} bytes", self.max_alloc)
        } else {
            "allocation tracking off (no counting allocator installed)".to_string()
        };
        let mut s = format!(
            "fuzz: {} iterations, {} decoded, {} rejected, message layer {} accepted, \
             {} rejected, {} violations; {}",
            self.iters,
            self.decode_ok,
            self.decode_rejected,
            self.message_ok,
            self.message_rejected,
            self.violations.len(),
            alloc_line
        );
        for v in self.violations.iter().take(10) {
            s.push_str("\n  violation: ");
            s.push_str(v);
        }
        if self.violations.len() > 10 {
            s.push_str(&format!("\n  ... and {} more", self.violations.len() - 10));
        }
        s
    }
}

/// Applies one seed-chosen mutation to `base`, possibly splicing in a
/// tail from `other` (a second corpus entry in the same format family).
fn mutate(rng: &mut DetRng, base: &[u8], other: &[u8]) -> Vec<u8> {
    match rng.next_below(5) {
        // Passthrough: valid input must keep decoding (and exercises
        // the idempotence check on every entry).
        0 => base.to_vec(),
        // Truncate at a random point.
        1 => {
            let cut = rng.next_below(base.len() as u64 + 1) as usize;
            base[..cut].to_vec()
        }
        // Flip 1–4 bits.
        2 => {
            let mut m = base.to_vec();
            if !m.is_empty() {
                for _ in 0..=rng.next_below(4) {
                    let i = rng.next_below(m.len() as u64) as usize;
                    m[i] ^= 1 << rng.next_below(8);
                }
            }
            m
        }
        // Length-field inflation: overwrite 4 bytes at a random offset
        // with 0xFF-heavy values, the classic length-prefix bomb.
        3 => {
            let mut m = base.to_vec();
            if m.len() >= 4 {
                let i = rng.next_below(m.len() as u64 - 3) as usize;
                m[i] = 0xFF;
                m[i + 1] = if rng.chance(0.5) { 0xFF } else { 0x00 };
                m[i + 2] = 0xFF;
                m[i + 3] = 0xFF;
            }
            m
        }
        // Splice: head of one valid message, tail of another.
        _ => {
            let head = rng.next_below(base.len() as u64 + 1) as usize;
            let tail = rng.next_below(other.len() as u64 + 1) as usize;
            let mut m = base[..head].to_vec();
            m.extend_from_slice(&other[other.len() - tail..]);
            m
        }
    }
}

/// Replies carrying the record sets `MetaStore::register_*` writes, one
/// per record kind, as XDR. Bases for mutation beside the corpus — not
/// part of it: nothing pins their bytes.
pub fn meta_seeds() -> Vec<CorpusEntry> {
    let info = NsmInfo {
        nsm_name: "nsm-hrpcbinding-bind".into(),
        binding: NsmBinding {
            host_name: "june.cs.washington.edu".into(),
            host_context: Context::new("bind-uw").expect("static context"),
            program: ProgramId(300_001),
            port: 1025,
            suite: SuiteTag::Sun,
            version: 1,
            owner: "hcs-project".into(),
        },
    };
    let sets: [(&'static str, &str, Vec<String>); 3] = [
        (
            "meta_context_xdr",
            "ctx.bind-uw.hns",
            vec!["ns=BIND;map=suf::cs:uw".into()],
        ),
        (
            "meta_nsm_name_xdr",
            "map.bind--hrpcbinding.hns",
            vec![info.nsm_name.clone()],
        ),
        (
            "meta_nsm_info_xdr",
            "info.nsm-hrpcbinding-bind.hns",
            info.binding.to_records(),
        ),
    ];
    let seed = |(name, key, payloads): (&'static str, &str, Vec<String>)| {
        let owner = DomainName::parse(key).expect("static key");
        let value = meta_reply(&owner, payloads).expect("seed answer encodes");
        CorpusEntry {
            name,
            kind: "meta-answer",
            decoder: Decoder::XdrValue,
            bytes: wire::xdr::encode(&value).expect("seed value encodes as XDR"),
        }
    };
    sets.into_iter().map(seed).collect()
}

/// One message of each NSM, Clearinghouse and `regd` shape, as XDR: a
/// request to an NSM and one to a callee that serves every query class,
/// each standard reply but the binding (which is in the corpus), every
/// Clearinghouse request and both kinds of `Property`, every `regd`
/// request and the `Resolution`. Bases for mutation beside the corpus, as
/// [`meta_seeds`] are.
pub fn message_seeds() -> Vec<CorpusEntry> {
    let name = HnsName::new(
        Context::new("bind-uw").expect("static context"),
        "fiji.cs.washington.edu",
    )
    .expect("static name");
    let to_nsm = NsmRequest::new(
        name.clone(),
        QueryArgs::Binding {
            service: "DesiredService".into(),
            program: ProgramId(100_005),
        },
    );
    let to_agent = NsmRequest {
        query_class: Some(QueryClass::file_location()),
        ..NsmRequest::new(
            name,
            QueryArgs::File {
                path: "hrpc/stubs.c".into(),
            },
        )
    };
    let tpn = |s: &str| ThreePartName::parse(s).expect("static three-part name");
    let lookup = Lookup {
        creds: Credentials::new(tpn("hcs:cs:uw"), 0x4843_5331_3938_3755),
        name: tpn("designs:cs:uw"),
        prop: PROP_FILE_SERVICE,
    };
    let item = Property::Item(
        Value::record([
            ("host", Value::str("printserver:cs:uw")),
            ("root", Value::str("/designs")),
        ])
        .into(),
    );
    let group = Property::Group(["alice:cs:uw", "bob:cs:uw"].map(String::from).into());
    let creds = || lookup.creds.clone();
    let set_item = SetItem {
        creds: creds(),
        name: tpn("reg--relay:cs:uw"),
        prop: PropertyId(70),
        value: Value::record([
            ("owner", Value::str("owner0")),
            ("service", Value::str("BIND")),
            ("sig", Value::U64(0x1987)),
        ])
        .into(),
    };
    let named = Named {
        creds: creds(),
        name: tpn("reg--relay--t1:cs:uw"),
    };
    let add_member = AddMember {
        creds: creds(),
        name: tpn("staff:cs:uw"),
        prop: PROP_MEMBERS,
        member: "alice:cs:uw".into(),
    };
    let add_alias = AddAlias {
        creds: creds(),
        name: tpn("lp:cs:uw"),
        target: tpn("printserver:cs:uw"),
    };
    let lookup_run = LookupRun {
        creds: creds(),
        names: vec![tpn("reg--relay--t1:cs:uw"), tpn("reg--relay--t2:cs:uw")],
        prop: PropertyId(71),
    };
    let list = List::new(creds(), "cs", "uw", "printer*");
    let (owner, key, relay) = (|| "owner0".to_string(), 0x5eed, || "relay".to_string());
    let register = Register {
        owner: owner(),
        key,
        name: relay(),
        service: "BIND".into(),
    };
    let update = Update {
        owner: owner(),
        key,
        name: relay(),
        service: "Clearinghouse".into(),
    };
    let transfer = Transfer {
        owner: owner(),
        key,
        name: relay(),
        to: "owner1".into(),
        rebind: Some("Clearinghouse".into()),
    };
    let release = Release {
        owner: owner(),
        key,
        name: relay(),
    };
    let resolution = Resolution {
        name: relay(),
        owner: "owner1".into(),
        base_owner: owner(),
        service: "Clearinghouse".into(),
        depth: 1,
        walked: false,
    };
    let messages: [(&'static str, &dyn Message); 21] = [
        ("nsm_request_xdr", &to_nsm),
        ("agent_request_xdr", &to_agent),
        (
            "host_address_xdr",
            &HostAddress {
                host: HostId(7),
                ttl: 86_400,
            },
        ),
        (
            "mailbox_location_xdr",
            &MailboxLocation {
                mailbox_host: "printserver:cs:uw".into(),
            },
        ),
        (
            "file_location_xdr",
            &FileLocation {
                file_host: "fiji.cs.washington.edu".into(),
                local_path: "/usr/src/hrpc/stubs.c".into(),
            },
        ),
        (
            "user_info_xdr",
            &UserInfo {
                full_name: "Michael F. Schwartz".into(),
                host: "fiji.cs.washington.edu".into(),
            },
        ),
        ("ch_lookup_xdr", &lookup),
        ("ch_property_item_xdr", &item),
        ("ch_property_group_xdr", &group),
        ("ch_set_item_xdr", &set_item),
        ("ch_named_xdr", &named),
        ("ch_add_member_xdr", &add_member),
        ("ch_add_alias_xdr", &add_alias),
        ("ch_lookup_run_xdr", &lookup_run),
        ("ch_list_xdr", &list),
        ("reg_register_xdr", &register),
        ("reg_update_xdr", &update),
        ("reg_transfer_xdr", &transfer),
        ("reg_release_xdr", &release),
        ("reg_resolve_xdr", &Resolve { name: relay() }),
        ("reg_resolution_xdr", &resolution),
    ];
    messages
        .into_iter()
        .map(|(name, msg)| CorpusEntry {
            name,
            kind: "nsm-message",
            decoder: Decoder::XdrValue,
            bytes: wire::xdr::encode(&msg.tree()).expect("seed message encodes as XDR"),
        })
        .collect()
}

/// The reply to a question about `owner` whose answer is `payloads`, one
/// `UNSPEC` record each.
fn meta_reply(owner: &DomainName, payloads: Vec<String>) -> Option<Value> {
    let unspec = |p: String| ResourceRecord::unspec(owner.clone(), 600, p.into_bytes());
    let answer = Answer::ok(payloads.into_iter().map(unspec).collect());
    answer.to_value().ok()
}

/// The record of `kind` in the opaque payloads of the reply `value`, as
/// a demand fetch decodes it (the checks on owner and type aside).
fn decode_meta(kind: Kind, value: &Value) -> Option<MetaRecord> {
    let answer = Answer::from_value(value).ok()?;
    let payloads = answer
        .records
        .iter()
        .filter_map(|(_, body)| match &body.rdata {
            RData::Opaque(payload) => Some(&payload[..]),
            _ => None,
        });
    MetaRecord::decode(kind, payloads).ok()
}

/// A reply carrying what `MetaStore::register_*` would write for `record`.
fn write_meta(record: &MetaRecord) -> Option<Value> {
    meta_reply(&DomainName::root(), record.payloads()?.1)
}

/// Hands one decoded mutant to every message-level reader.
fn read_messages(report: &mut FuzzReport, value: &Value, budget: u64, what: &dyn Display) {
    let mut read = MessageLayer {
        report,
        value,
        budget,
        what,
    };
    read.message("Answer", Answer::from_value, |a| a.to_value().ok());
    read.message("MultiAnswer", MultiAnswer::from_value, |a| {
        a.to_value().ok()
    });
    read.message("UpdateOp", UpdateOp::from_value, |op| op.to_value().ok());
    let tree = |m: &dyn Message| Some(m.tree().into_owned());
    read.message("Question", Question::from_value, |m| tree(m));
    read.message("MultiQuestion", MultiQuestion::from_value, |m| tree(m));
    read.message("NsmRequest", NsmRequest::from_value, |m| tree(m));
    read.message("HrpcBinding", HrpcBinding::from_value, |m| tree(m));
    read.message("HostAddress", HostAddress::from_value, |m| tree(m));
    read.message("MailboxLocation", MailboxLocation::from_value, |m| tree(m));
    read.message("FileLocation", FileLocation::from_value, |m| tree(m));
    read.message("UserInfo", UserInfo::from_value, |m| tree(m));
    read.message("Lookup", Lookup::from_value, |m| tree(m));
    read.message("Property", Property::from_value, |m| tree(m));
    read.message("SetItem", SetItem::from_value, |m| tree(m));
    read.message("Named", Named::from_value, |m| tree(m));
    read.message("AddMember", AddMember::from_value, |m| tree(m));
    read.message("AddAlias", AddAlias::from_value, |m| tree(m));
    read.message("LookupRun", LookupRun::from_value, |m| tree(m));
    read.message("List", List::from_value, |m| tree(m));
    read.message("Register", Register::from_value, |m| tree(m));
    read.message("Update", Update::from_value, |m| tree(m));
    read.message("Transfer", Transfer::from_value, |m| tree(m));
    read.message("Release", Release::from_value, |m| tree(m));
    read.message("Resolve", Resolve::from_value, |m| tree(m));
    read.message("Resolution", Resolution::from_value, |m| tree(m));
    read.message("ZoneRequest", ZoneRequest::from_value, |m| tree(m));
    read.message("IxfrRequest", IxfrRequest::from_value, |m| tree(m));
    read.message("ZoneTransfer", ZoneTransfer::from_value, |m| tree(m));
    read.message(
        "IncrementalTransfer",
        IncrementalTransfer::from_value,
        |m| tree(m),
    );
    read.message("GetPort", GetPort::from_value, |m| tree(m));
    read.message("ResolveService", ResolveService::from_value, |m| tree(m));
    for kind in Kind::ALL {
        let name = format!("MetaRecord {kind:?}");
        read.one(&name, |v| decode_meta(kind, v), write_meta);
    }
}

/// One decoded mutant on its way through the message-level readers.
struct MessageLayer<'a> {
    report: &'a mut FuzzReport,
    value: &'a Value,
    /// Allocation budget of the mutant the value was decoded from.
    budget: u64,
    /// The mutant, for a violation's text.
    what: &'a dyn Display,
}

impl MessageLayer<'_> {
    /// [`MessageLayer::one`] for a reader of a message the fabric carries
    /// as itself, which must also keep the length law.
    fn message<M: Message + PartialEq, E>(
        &mut self,
        reader: &str,
        decode: fn(&Value) -> Result<M, E>,
        encode: impl Fn(&M) -> Option<Value>,
    ) {
        let Some(message) = self.one(reader, |v| decode(v).ok(), encode) else {
            return;
        };
        for format in [WireFormat::Xdr, WireFormat::Courier] {
            let stated = message.encoded_len(format);
            let encoded = format.encode(&message.tree()).map(|bytes| bytes.len());
            if stated != encoded {
                self.report.violations.push(format!(
                    "{}: {reader} states {stated:?} under {format}, its tree encodes to {encoded:?}",
                    self.what
                ));
            }
        }
    }

    /// Runs one reader under the fuzzer's three properties: `decode` may
    /// not panic nor allocate beyond the budget, and a message it accepts
    /// — which is handed back — must `encode` to a value it reads back
    /// equal.
    fn one<M: PartialEq>(
        &mut self,
        reader: &str,
        decode: impl Fn(&Value) -> Option<M>,
        encode: impl Fn(&M) -> Option<Value>,
    ) -> Option<M> {
        let what = self.what;
        let mut violation = |why: String| {
            let text = format!("{what}: {reader} {why}");
            self.report.violations.push(text);
        };
        let measured = || alloc::measure(|| decode(self.value));
        let Ok((message, used)) = catch_unwind(AssertUnwindSafe(measured)) else {
            violation("PANIC".into());
            return None;
        };
        if let Some(used) = used.filter(|used| *used > self.budget) {
            violation(format!(
                "allocation {used} bytes exceeds budget {}",
                self.budget
            ));
        }
        let Some(message) = message else {
            self.report.message_rejected += 1;
            return None;
        };
        // Outside the measured region, like the wire layer's check.
        match encode(&message).map(|again| decode(&again)) {
            Some(Some(again)) if again == message => self.report.message_ok += 1,
            Some(Some(_)) => violation("decode(encode(decode(v))) != decode(v)".into()),
            Some(None) => violation("re-encoded value failed to decode".into()),
            None => violation("accepted a message it cannot re-encode".into()),
        }
        Some(message)
    }
}

/// Runs the fuzzer. Never panics: decoder panics are caught and
/// reported as violations in the returned report.
pub fn run(config: FuzzConfig) -> FuzzReport {
    let mut entries = corpus::entries();
    entries.extend(meta_seeds());
    entries.extend(message_seeds());
    let mut rng = DetRng::new(config.seed ^ 0xC0DE_F022_u64);
    let mut report = FuzzReport {
        iters: config.iters,
        decode_ok: 0,
        decode_rejected: 0,
        message_ok: 0,
        message_rejected: 0,
        violations: Vec::new(),
        alloc_tracked: false,
        max_alloc: 0,
    };

    for iter in 0..config.iters {
        let entry: &CorpusEntry = &entries[rng.next_below(entries.len() as u64) as usize];
        // Splice partner from the same decoder family, so splices land
        // on inputs the decoder could plausibly be fed.
        let partners: Vec<&CorpusEntry> = entries
            .iter()
            .filter(|e| e.decoder == entry.decoder)
            .collect();
        let other = partners[rng.next_below(partners.len() as u64) as usize];
        let mutant = mutate(&mut rng, &entry.bytes, &other.bytes);

        let decoder = entry.decoder;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            alloc::measure(|| decode_message(decoder, &mutant))
        }));
        let (decoded, used) = match outcome {
            Ok(pair) => pair,
            Err(_) => {
                report.violations.push(format!(
                    "iter {iter}: PANIC decoding {decoder:?} mutant of `{}` ({} bytes, seed {})",
                    entry.name,
                    mutant.len(),
                    config.seed
                ));
                continue;
            }
        };

        if let Some(used) = used {
            report.alloc_tracked = true;
            report.max_alloc = report.max_alloc.max(used);
            let budget = alloc_budget(mutant.len());
            if used > budget {
                report.violations.push(format!(
                    "iter {iter}: allocation {used} bytes exceeds budget {budget} \
                     for a {}-byte mutant of `{}` (seed {})",
                    mutant.len(),
                    entry.name,
                    config.seed
                ));
            }
        }

        match decoded {
            Some(message) => {
                report.decode_ok += 1;
                // Idempotence runs outside the measured region: the
                // budget bounds *decoding*, not re-encoding.
                if let Err(e) = check_idempotence(decoder, &message) {
                    report.violations.push(format!(
                        "iter {iter}: idempotence failure on mutant of `{}`: {e} (seed {})",
                        entry.name, config.seed
                    ));
                }
                if let Decoded::Value(value) = &message {
                    let what = format_args!(
                        "iter {iter}: {}-byte mutant of `{}` (seed {})",
                        mutant.len(),
                        entry.name,
                        config.seed
                    );
                    read_messages(&mut report, value, alloc_budget(mutant.len()), &what);
                }
            }
            None => report.decode_rejected += 1,
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    // Library-level smoke: no allocator installed here, so this checks
    // the panic/idempotence properties and the None-tracking path. The
    // budget property is enforced in `tests/fuzz_seeded.rs` and the
    // experiments binary, which install `CountingAlloc`.
    #[test]
    fn short_run_is_clean_and_deterministic() {
        let a = run(FuzzConfig {
            iters: 400,
            seed: 7,
        });
        assert!(a.ok(), "{}", a.render());
        assert!(a.decode_ok > 0, "passthrough mutants must decode");
        assert!(a.decode_rejected > 0, "damage must produce rejections");
        assert!(a.message_ok > 0 && a.message_rejected > 0);
        let b = run(FuzzConfig {
            iters: 400,
            seed: 7,
        });
        assert_eq!(a.decode_ok, b.decode_ok);
        assert_eq!(a.decode_rejected, b.decode_rejected);
        assert_eq!(a.message_ok, b.message_ok);
    }

    /// Every message-level reader accepts the message it is for, and the
    /// typed decoder the record set of its kind: the layer is reached.
    #[test]
    fn every_message_reader_accepts_its_own_message() {
        let mut report = run(FuzzConfig { iters: 0, seed: 0 });
        let mut bases = corpus::entries();
        bases.extend(meta_seeds());
        bases.extend(message_seeds());
        let mut accepted = Vec::new();
        for entry in bases.iter().filter(|e| e.decoder == Decoder::XdrValue) {
            let Some(Decoded::Value(value)) = decode_message(entry.decoder, &entry.bytes) else {
                panic!("{} does not decode", entry.name);
            };
            let before = report.message_ok;
            read_messages(
                &mut report,
                &value,
                alloc_budget(entry.bytes.len()),
                &entry.name,
            );
            accepted.push((entry.name, report.message_ok - before));
        }
        assert!(report.ok(), "{}", report.render());
        let readers_of = |name: &str| {
            let found = accepted.iter().find(|(entry, _)| *entry == name);
            found.unwrap_or_else(|| panic!("no base `{name}`")).1
        };
        // `Answer` and the NSM-name decoder (any UTF-8 first payload is a
        // name) read every UNSPEC-carrying answer.
        assert_eq!(readers_of("meta_context_xdr"), 3, "and the context decoder");
        assert_eq!(readers_of("meta_nsm_info_xdr"), 3, "and the info decoder");
        assert_eq!(readers_of("meta_nsm_name_xdr"), 2);
        for (name, least) in [
            ("question_xdr", 1),
            ("multi_question_xdr", 1),
            ("multi_answer_xdr", 1),
            ("update_add_xdr", 1),
            ("update_replace_xdr", 1),
            ("axfr_reply_xdr", 1),
            ("ixfr_incremental_xdr", 1),
            ("ixfr_unchanged_xdr", 1),
            ("ixfr_full_xdr", 1),
            ("hrpc_binding_sun_xdr", 1),
        ] {
            assert!(readers_of(name) >= least, "{name}: {accepted:?}");
        }
        for entry in message_seeds() {
            let (name, least) = (entry.name, 1);
            assert!(readers_of(name) >= least, "{name}: {accepted:?}");
        }
        // The requests no base carries: each one's own tree.
        let origin = DomainName::parse("cs.washington.edu").expect("static name");
        let requests: [&dyn Message; 4] = [
            &ZoneRequest {
                origin: origin.clone(),
            },
            &IxfrRequest {
                origin,
                from_serial: 1987,
            },
            &GetPort { program: 100_005 },
            &ResolveService {
                service: "DesiredService".into(),
            },
        ];
        for request in requests {
            let before = report.message_ok;
            read_messages(&mut report, &request.tree(), ALLOC_FIXED_BUDGET, &"request");
            assert!(report.message_ok > before, "{:?}", request.tree());
        }
        assert!(report.ok(), "{}", report.render());
    }
}
