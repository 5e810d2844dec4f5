//! The golden wire corpus: canonical bytes for every message kind in
//! every wire format, pinned on disk under `corpus/` as hex dumps.
//!
//! Every entry is built by a deterministic constructor, so the corpus
//! can always be regenerated byte-for-byte from source
//! (`experiments fuzz --regen-corpus`). The golden tests assert both
//! directions: the constructors still produce the committed bytes
//! (encoder pinning), and the committed bytes still decode to messages
//! that re-encode canonically (decoder pinning).

use std::path::PathBuf;
use std::sync::Arc;

use bindns::axfr::{IncrementalTransfer, IxfrMode, ZoneTransfer};
use bindns::error::Rcode;
use bindns::message::{Answer, MultiAnswer, MultiQuestion, Question};
use bindns::name::DomainName;
use bindns::rr::{RData, RType, ResourceRecord, Soa};
use bindns::update::UpdateOp;
use hrpc::{HrpcBinding, ProgramId};
use regd::chain::TransferLink;
use simnet::topology::{HostId, NetAddr};
use wire::fast::{encode_rr_batch, WireRecord};
use wire::{Message, Value};

use crate::hexdump;

/// Which decoder a corpus entry (and any mutant derived from it) is fed
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoder {
    /// XDR self-describing [`Value`] ([`wire::xdr::decode`]).
    XdrValue,
    /// Courier self-describing [`Value`] ([`wire::courier::decode`]).
    CourierValue,
    /// Fast-path answer ([`Answer::from_fast_bytes`]).
    FastAnswer,
    /// Raw fast RR batch ([`wire::fast::decode_rr_batch`]).
    FastRrBatch,
}

impl Decoder {
    /// The wire format this decoder belongs to, for coverage accounting.
    pub fn format(self) -> &'static str {
        match self {
            Decoder::XdrValue => "xdr",
            Decoder::CourierValue => "courier",
            Decoder::FastAnswer | Decoder::FastRrBatch => "fast",
        }
    }
}

/// One corpus entry: a named canonical encoding.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem under `corpus/` (`<name>.hex`).
    pub name: &'static str,
    /// Message kind, for coverage accounting.
    pub kind: &'static str,
    /// Decoder the bytes are valid for.
    pub decoder: Decoder,
    /// The canonical bytes.
    pub bytes: Vec<u8>,
}

fn dn(s: &str) -> DomainName {
    DomainName::parse(s).expect("static corpus name")
}

/// Six mixed-type records sharing one owner (the fast path requires a
/// single owner per batch).
fn sample_records() -> Vec<ResourceRecord> {
    let owner = dn("fiji.cs.washington.edu");
    vec![
        ResourceRecord::a(owner.clone(), 86_400, NetAddr::of(HostId(8))),
        ResourceRecord::txt(owner.clone(), 3_600, "VAX-II / Unix"),
        ResourceRecord::cname(owner.clone(), 3_600, dn("f.cs.washington.edu")),
        ResourceRecord::unspec(owner.clone(), 600, b"ns=BIND;ctx=bind-uw".to_vec()),
        ResourceRecord {
            name: owner.clone(),
            rtype: RType::Mx,
            ttl: 3_600,
            rdata: RData::Domain(dn("mail.cs.washington.edu")),
        },
        ResourceRecord {
            name: owner,
            rtype: RType::Soa,
            ttl: 86_400,
            rdata: RData::Soa(Arc::new(Soa {
                primary: dn("ns.cs.washington.edu"),
                serial: 1987,
                default_ttl: 86_400,
            })),
        },
    ]
}

fn sample_answer() -> Answer {
    Answer::ok(sample_records().into_iter().collect())
}

fn sample_questions() -> Vec<Question> {
    vec![
        Question::new(dn("ctx.bind-uw.hns"), RType::Unspec),
        Question::new(dn("fiji.cs.washington.edu"), RType::A),
    ]
}

fn sample_binding(components: hrpc::ComponentSet) -> HrpcBinding {
    HrpcBinding {
        host: HostId(4),
        addr: NetAddr::of(HostId(4)),
        program: ProgramId(100_005),
        port: 2_049,
        components,
    }
}

/// An AXFR reply of the six sample records.
fn axfr_reply() -> ZoneTransfer {
    ZoneTransfer {
        serial: 1987,
        size_bytes: 212,
        records: sample_records(),
    }
}

/// An IXFR reply in `mode`: the six sample records and one removed name,
/// or nothing.
fn ixfr_reply(mode: IxfrMode, with_records: bool) -> IncrementalTransfer {
    let (records, removed) = match with_records {
        true => (sample_records(), vec![dn("gone.cs.washington.edu")]),
        false => (Vec::new(), Vec::new()),
    };
    IncrementalTransfer {
        serial: 1993,
        mode,
        size_bytes: if with_records { 96 } else { 0 },
        records,
        removed,
    }
}

fn xdr(m: &dyn Message) -> Vec<u8> {
    wire::xdr::encode(&m.tree()).expect("corpus value encodes as XDR")
}

fn courier(m: &dyn Message) -> Vec<u8> {
    wire::courier::encode(&m.tree()).expect("corpus value encodes as Courier")
}

/// Builds every corpus entry from its deterministic constructor.
pub fn entries() -> Vec<CorpusEntry> {
    let mut out = Vec::new();
    let mut push = |name: &'static str, kind: &'static str, decoder: Decoder, bytes: Vec<u8>| {
        out.push(CorpusEntry {
            name,
            kind,
            decoder,
            bytes,
        });
    };

    // Questions (PROC_QUERY request), both self-describing formats.
    let q = Question::new(dn("fiji.cs.washington.edu"), RType::A);
    push("question_xdr", "question", Decoder::XdrValue, xdr(&q));
    push(
        "question_courier",
        "question",
        Decoder::CourierValue,
        courier(&q),
    );

    // Answers: the six-record reply of Table 3.2, plus an error reply,
    // in all three formats.
    let a = sample_answer().to_value().expect("answer encodes");
    push("answer_ok_xdr", "answer", Decoder::XdrValue, xdr(&a));
    push(
        "answer_ok_courier",
        "answer",
        Decoder::CourierValue,
        courier(&a),
    );
    push(
        "answer_ok_fast",
        "answer",
        Decoder::FastAnswer,
        sample_answer().to_fast_bytes().expect("fast answer"),
    );
    let e = Answer::err(Rcode::NameError);
    push(
        "answer_nameerror_xdr",
        "answer",
        Decoder::XdrValue,
        xdr(&e.to_value().expect("error answer encodes")),
    );
    push(
        "answer_nameerror_fast",
        "answer",
        Decoder::FastAnswer,
        e.to_fast_bytes().expect("fast error answer"),
    );

    // The batched meta pipeline (PROC_MQUERY request and reply).
    let mq = MultiQuestion::new(sample_questions(), vec!["hrpcbinding".into()]);
    push(
        "multi_question_xdr",
        "multi-question",
        Decoder::XdrValue,
        xdr(&mq),
    );
    push(
        "multi_question_courier",
        "multi-question",
        Decoder::CourierValue,
        courier(&mq),
    );
    let ma = MultiAnswer {
        answers: vec![sample_answer(), Answer::err(Rcode::NameError)],
        additional: vec![sample_answer()],
    }
    .to_value()
    .expect("multi answer encodes");
    push(
        "multi_answer_xdr",
        "multi-answer",
        Decoder::XdrValue,
        xdr(&ma),
    );
    push(
        "multi_answer_courier",
        "multi-answer",
        Decoder::CourierValue,
        courier(&ma),
    );

    // Dynamic updates (PROC_UPDATE), one entry per op code.
    let add = UpdateOp::Add(ResourceRecord::unspec(
        dn("ctx.bind-uw.hns"),
        600,
        b"ns=BIND".to_vec(),
    ))
    .to_value()
    .expect("update encodes");
    push("update_add_xdr", "update", Decoder::XdrValue, xdr(&add));
    let del = UpdateOp::Delete {
        name: dn("stale.hns"),
        rtype: RType::Unspec,
    }
    .to_value()
    .expect("update encodes");
    push(
        "update_delete_courier",
        "update",
        Decoder::CourierValue,
        courier(&del),
    );
    let rep = UpdateOp::Replace {
        name: dn("nsm.binding.hns"),
        rtype: RType::Unspec,
        records: vec![ResourceRecord::unspec(
            dn("nsm.binding.hns"),
            600,
            b"host=nsmserv".to_vec(),
        )],
    }
    .to_value()
    .expect("update encodes");
    push("update_replace_xdr", "update", Decoder::XdrValue, xdr(&rep));

    // Zone transfer frames (PROC_AXFR / PROC_IXFR replies).
    push(
        "axfr_reply_xdr",
        "axfr",
        Decoder::XdrValue,
        xdr(&axfr_reply()),
    );
    push(
        "ixfr_incremental_xdr",
        "ixfr",
        Decoder::XdrValue,
        xdr(&ixfr_reply(IxfrMode::Incremental, true)),
    );
    push(
        "ixfr_unchanged_xdr",
        "ixfr",
        Decoder::XdrValue,
        xdr(&ixfr_reply(IxfrMode::Unchanged, false)),
    );
    push(
        "ixfr_full_xdr",
        "ixfr",
        Decoder::XdrValue,
        xdr(&ixfr_reply(IxfrMode::Full, true)),
    );

    // regd transfer-chain links (Clearinghouse property values).
    let link = TransferLink::signed("printer:accounting:uw", 2, "alice", "bob", 0x1987);
    push(
        "regd_chain_link_xdr",
        "chain-link",
        Decoder::XdrValue,
        xdr(&link),
    );
    push(
        "regd_chain_link_courier",
        "chain-link",
        Decoder::CourierValue,
        courier(&link),
    );

    // HRPC bindings as returned by FindNSM and the binding NSMs.
    let sun = sample_binding(hrpc::ComponentSet::sun()).to_value();
    push(
        "hrpc_binding_sun_xdr",
        "binding",
        Decoder::XdrValue,
        xdr(&sun),
    );
    let cou = sample_binding(hrpc::ComponentSet::courier()).to_value();
    push(
        "hrpc_binding_courier",
        "binding",
        Decoder::CourierValue,
        courier(&cou),
    );

    // A raw fast RR batch (the hand-written "standard BIND library"
    // framing, without the answer rcode prefix).
    let wire_records: Vec<WireRecord> = sample_records()
        .iter()
        .map(|r| WireRecord {
            rtype: r.rtype.code(),
            ttl: r.ttl,
            rdata: r.rdata.to_bytes().expect("corpus rdata encodes"),
        })
        .collect();
    push(
        "rr_batch_fast",
        "rr-batch",
        Decoder::FastRrBatch,
        encode_rr_batch("fiji.cs.washington.edu", &wire_records).expect("batch encodes"),
    );

    out
}

/// A message decoded by one of the corpus decoders.
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded {
    /// A self-describing [`Value`] (XDR or Courier).
    Value(Value),
    /// A fast-path [`Answer`].
    Answer(Answer),
    /// A raw RR batch: owner name and records.
    Batch(String, Vec<WireRecord>),
}

/// Runs `decoder` over `bytes`. `None` means the input was rejected
/// with a typed error — the correct outcome for malformed input. Panics
/// propagate (the fuzzer catches them and reports a violation).
pub fn decode_message(decoder: Decoder, bytes: &[u8]) -> Option<Decoded> {
    match decoder {
        Decoder::XdrValue => wire::xdr::decode(bytes).ok().map(Decoded::Value),
        Decoder::CourierValue => wire::courier::decode(bytes).ok().map(Decoded::Value),
        Decoder::FastAnswer => Answer::from_fast_bytes(bytes).ok().map(Decoded::Answer),
        Decoder::FastRrBatch => wire::fast::decode_rr_batch(bytes)
            .ok()
            .map(|(name, records)| Decoded::Batch(name, records)),
    }
}

/// Re-encodes a decoded message through the same format.
pub fn reencode(decoder: Decoder, decoded: &Decoded) -> Result<Vec<u8>, String> {
    match (decoder, decoded) {
        (Decoder::XdrValue, Decoded::Value(v)) => {
            wire::xdr::encode(v).map_err(|e| format!("re-encode xdr: {e}"))
        }
        (Decoder::CourierValue, Decoded::Value(v)) => {
            wire::courier::encode(v).map_err(|e| format!("re-encode courier: {e}"))
        }
        (Decoder::FastAnswer, Decoded::Answer(a)) => a
            .to_fast_bytes()
            .map_err(|e| format!("re-encode fast answer: {e}")),
        (Decoder::FastRrBatch, Decoded::Batch(name, records)) => {
            encode_rr_batch(name, records).map_err(|e| format!("re-encode batch: {e}"))
        }
        _ => Err("decoder/message mismatch".into()),
    }
}

/// Checks decode→encode→decode idempotence for a successfully decoded
/// message: re-encoding must succeed, and decoding the re-encoded bytes
/// must reproduce the same message.
pub fn check_idempotence(decoder: Decoder, decoded: &Decoded) -> Result<(), String> {
    let bytes = reencode(decoder, decoded)?;
    match decode_message(decoder, &bytes) {
        Some(again) if &again == decoded => Ok(()),
        Some(_) => Err("decode(encode(decode(b))) != decode(b)".into()),
        None => Err("re-encoded bytes failed to decode".into()),
    }
}

/// The committed corpus directory (inside the crate, so the harness is
/// hermetic).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Renders the on-disk form of an entry: a comment header plus the hex
/// dump of the canonical bytes.
pub fn render_entry(entry: &CorpusEntry) -> String {
    format!(
        "# golden wire corpus: {} ({} / {:?}, {} bytes)\n\
         # regenerate with: cargo run -p hns-bench --bin experiments -- fuzz --regen-corpus\n{}",
        entry.name,
        entry.kind,
        entry.decoder,
        entry.bytes.len(),
        hexdump::render(&entry.bytes)
    )
}

/// Verifies one entry against the committed file text. Returns a
/// human-readable mismatch description on drift.
pub fn verify_entry(entry: &CorpusEntry, committed: &str) -> Result<(), String> {
    let committed_bytes = hexdump::parse(committed)
        .map_err(|e| format!("{}: committed dump unreadable: {e}", entry.name))?;
    if committed_bytes != entry.bytes {
        return Err(format!(
            "{}: encoder drift — constructor produces {} bytes, committed file pins {} \
             (if intentional, run `experiments fuzz --regen-corpus` and review the diff)",
            entry.name,
            entry.bytes.len(),
            committed_bytes.len(),
        ));
    }
    if committed != render_entry(entry) {
        return Err(format!(
            "{}: committed dump text differs from canonical rendering \
             (run `experiments fuzz --regen-corpus`)",
            entry.name
        ));
    }
    Ok(())
}

/// Checks the whole committed corpus against the constructors: every
/// entry present and byte-identical, no stray files. Returns all
/// mismatches.
pub fn check() -> Result<(), Vec<String>> {
    let dir = corpus_dir();
    let entries = entries();
    let mut problems = Vec::new();
    for entry in &entries {
        let path = dir.join(format!("{}.hex", entry.name));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if let Err(e) = verify_entry(entry, &text) {
                    problems.push(e);
                }
            }
            Err(e) => problems.push(format!(
                "{}: missing committed corpus file {}: {e} \
                 (run `experiments fuzz --regen-corpus`)",
                entry.name,
                path.display()
            )),
        }
    }
    // Stray files mean an entry was renamed or removed without regen.
    if let Ok(read) = std::fs::read_dir(&dir) {
        for f in read.flatten() {
            let fname = f.file_name().to_string_lossy().into_owned();
            if let Some(stem) = fname.strip_suffix(".hex") {
                if !entries.iter().any(|e| e.name == stem) {
                    problems.push(format!(
                        "stray corpus file {fname} has no matching entry \
                         (run `experiments fuzz --regen-corpus`)"
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Rewrites the committed corpus from the constructors and prunes stray
/// files. Returns the names of files that changed (or were removed).
pub fn regenerate() -> std::io::Result<Vec<String>> {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir)?;
    let entries = entries();
    let mut changed = Vec::new();
    for entry in &entries {
        let path = dir.join(format!("{}.hex", entry.name));
        let text = render_entry(entry);
        let same = std::fs::read_to_string(&path)
            .map(|old| old == text)
            .unwrap_or(false);
        if !same {
            std::fs::write(&path, &text)?;
            changed.push(format!("{}.hex", entry.name));
        }
    }
    if let Ok(read) = std::fs::read_dir(&dir) {
        for f in read.flatten() {
            let fname = f.file_name().to_string_lossy().into_owned();
            if let Some(stem) = fname.strip_suffix(".hex") {
                if !entries.iter().any(|e| e.name == stem) {
                    std::fs::remove_file(f.path())?;
                    changed.push(format!("{fname} (removed)"));
                }
            }
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_unique_and_nonempty() {
        let entries = entries();
        assert!(entries.len() >= 20);
        for e in &entries {
            assert!(!e.bytes.is_empty(), "{} empty", e.name);
        }
        let mut names: Vec<_> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len(), "duplicate entry names");
    }

    #[test]
    fn constructors_are_deterministic() {
        let a = entries();
        let b = entries();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes, y.bytes, "{} not deterministic", x.name);
        }
    }

    #[test]
    fn verify_entry_catches_byte_drift() {
        let entry = &entries()[0];
        let committed = render_entry(entry);
        verify_entry(entry, &committed).expect("canonical text verifies");

        // Flip one byte in the pinned dump: the check must fail loudly.
        let mut drifted = entry.clone();
        drifted.bytes[0] ^= 0xFF;
        let drifted_text = render_entry(&drifted);
        let err = verify_entry(entry, &drifted_text).expect_err("drift must fail");
        assert!(err.contains("regen-corpus"), "actionable message: {err}");
    }
}
