//! Wire messages for the name-server protocol.
//!
//! The server speaks six procedures: `QUERY`, `MQUERY`, `AXFR` / `IXFR`
//! (zone transfer), `UPDATE` (the dynamic-update extension of the
//! modified BIND), and `SERIAL` (secondary refresh checks). The structs
//! of all six are [`wire::Message`]s — those of the transfer procedures
//! are [`crate::axfr`]'s: each writes its shape once, and crosses the
//! fabric as itself between this crate's clients and its server. Its tree
//! is for an untyped peer, the corpus and the fuzzer; `from_value` is the
//! edge where such a peer's tree is decoded. The two questions are plain
//! records ([`wire::record!`]); an answer's rdata and shared owner names,
//! and an update's kinds, are written by hand. Answers also convert to the
//! hand-written [`wire::fast`] batch format (the standard resolver path
//! of Table 3.2).

use hrpc::error::{RpcError, RpcResult};
use wire::fast::{decode_rr_batch, encode_rr_batch, WireRecord};
use wire::message::{Shape, Shaped, Tree};
use wire::{Value, WireResult};

use crate::error::{NsError, NsResult, Rcode};
use crate::name::DomainName;
use crate::rr::{bad_field, check_rdata, record_shape, RData, RType, Records, RrBody};

/// Procedure: look up records.
pub const PROC_QUERY: u32 = 1;
/// Procedure: transfer a whole zone.
pub const PROC_AXFR: u32 = 2;
/// Procedure: apply a dynamic update.
pub const PROC_UPDATE: u32 = 3;
/// Procedure: read a zone's serial.
pub const PROC_SERIAL: u32 = 4;
/// Procedure: multi-question lookup whose reply may piggyback speculative
/// additional record sets (the batched meta pipeline; see
/// [`crate::server::AdditionalProvider`]).
pub const PROC_MQUERY: u32 = 5;
/// Procedure: incremental zone transfer — ship only the record sets of
/// names changed since the client's serial, falling back to a full
/// transfer when the delta log is truncated (see
/// [`crate::axfr::transfer_zone_incremental`]).
pub const PROC_IXFR: u32 = 6;

/// The decoder of the struct a procedure answers with, for the tree of
/// an untyped server: a tree that is none is the service's failure.
pub(crate) fn decoded<T>(decode: fn(&Value) -> NsResult<T>) -> impl FnOnce(&Value) -> RpcResult<T> {
    move |tree| decode(tree).map_err(|e| RpcError::Service(e.to_string()))
}

/// A lookup question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Name being queried.
    pub name: DomainName,
    /// Record type requested.
    pub rtype: RType,
}

impl Question {
    /// Builds a question.
    pub fn new(name: DomainName, rtype: RType) -> Self {
        Question { name, rtype }
    }
}

wire::record!(Question { name, rtype });

/// A lookup answer: its outcome, and what was found — an owner and its
/// bodies, then the records of any other owner ([`Records`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Outcome code.
    pub rcode: Rcode,
    /// What was found (none unless `rcode` is [`Rcode::Ok`] or
    /// [`Rcode::Referral`]).
    pub records: Records,
}

impl Answer {
    /// Builds a successful answer.
    pub fn ok(records: Records) -> Self {
        Answer {
            rcode: Rcode::Ok,
            records,
        }
    }

    /// Builds an error answer.
    pub fn err(rcode: Rcode) -> Self {
        Answer {
            rcode,
            records: Records::none(),
        }
    }

    /// Maps a lookup result into an answer.
    pub fn from_result(result: NsResult<Records>) -> Answer {
        match result {
            Ok(records) => Answer::ok(records),
            Err(NsError::NameError(_)) => Answer::err(Rcode::NameError),
            Err(NsError::NoData(_)) => Answer::err(Rcode::NoData),
            Err(NsError::NotAuthoritative(_)) => Answer::err(Rcode::NotAuth),
            Err(NsError::UpdatesDisabled) | Err(NsError::Conflict(_)) => {
                Answer::err(Rcode::Refused)
            }
            Err(_) => Answer::err(Rcode::FormErr),
        }
    }

    /// Converts back into a lookup result for `question`.
    pub fn into_result(self, question: &Question) -> NsResult<Records> {
        self.rcode.into_result(&question.name)?;
        Ok(self.records)
    }

    /// Serializes to a wire value (the HRPC path).
    pub fn to_value(&self) -> NsResult<Value> {
        check_rdata(self.records.iter().map(|(_, body)| &body.rdata))?;
        Ok(self.shape(&Tree))
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<Answer> {
        let code = v.u32_field("rcode").map_err(bad_field)?;
        let rcode =
            Rcode::from_u32(code).ok_or_else(|| NsError::BadRecord(format!("bad rcode {code}")))?;
        let records = v
            .field("answers")
            .and_then(Value::as_list)
            .map_err(bad_field)?;
        Ok(Answer {
            rcode,
            records: Records::from_values(records)?,
        })
    }

    /// The owner the fast encoding names: empty for no records. It names
    /// one: an answer with records of another owner is refused.
    fn fast_owner(&self) -> WireResult<&str> {
        if !self.records.others().is_empty() {
            return Err(wire::WireError::Refused(
                "a fast answer names one owner".into(),
            ));
        }
        Ok(match self.records.is_empty() {
            true => "",
            false => self.records.owner().as_str(),
        })
    }

    /// Serializes through the hand-written fast path: the owner once,
    /// then each of its bodies.
    pub fn to_fast_bytes(&self) -> WireResult<Vec<u8>> {
        let owner = self.fast_owner()?;
        let wire_records: Vec<WireRecord> = self
            .records
            .bodies()
            .iter()
            .map(|body| {
                Ok(WireRecord {
                    rtype: body.rtype.code(),
                    ttl: body.ttl,
                    rdata: body
                        .rdata
                        .to_bytes()
                        .map_err(|_| wire::WireError::Oversize(0))?,
                })
            })
            .collect::<WireResult<_>>()?;
        let mut prefixed = vec![self.rcode as u8];
        prefixed.extend(encode_rr_batch(owner, &wire_records)?);
        Ok(prefixed)
    }

    /// Deserializes from the fast path.
    pub fn from_fast_bytes(bytes: &[u8]) -> NsResult<Answer> {
        let (&code, rest) = bytes
            .split_first()
            .ok_or_else(|| NsError::BadRecord("empty fast answer".into()))?;
        let rcode = Rcode::from_u32(code as u32)
            .ok_or_else(|| NsError::BadRecord(format!("bad rcode {code}")))?;
        let (owner, wire_records) =
            decode_rr_batch(rest).map_err(|e| NsError::BadRecord(e.to_string()))?;
        let owner = if owner.is_empty() {
            DomainName::root()
        } else {
            DomainName::parse(&owner)?
        };
        let bodies = wire_records
            .into_iter()
            .map(|w| {
                Ok(RrBody {
                    rtype: RType::from_code(w.rtype)?,
                    ttl: w.ttl,
                    rdata: RData::from_bytes(&w.rdata)?,
                })
            })
            .collect::<NsResult<Vec<RrBody>>>()?;
        Ok(Answer {
            rcode,
            records: Records::of(owner, bodies),
        })
    }
}

impl Shaped for Answer {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("rcode", s.u32(self.rcode as u32)),
            (
                "answers",
                s.list(self.records.iter(), |(name, body)| {
                    record_shape(s, name, body.rtype, body.ttl, &body.rdata)
                }),
            ),
        ])
    }
}

/// A batched request: one or more questions plus free-form *hints* that
/// tell the server's additional-record provider what the client is about
/// to look up next (for the HNS meta pipeline, the query class being
/// resolved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiQuestion {
    /// The questions to answer, in order.
    pub questions: Vec<Question>,
    /// Provider hints (opaque to the server proper).
    pub hints: Vec<String>,
}

impl MultiQuestion {
    /// Builds a batched request.
    pub fn new(questions: Vec<Question>, hints: Vec<String>) -> Self {
        MultiQuestion { questions, hints }
    }
}

wire::record!(MultiQuestion { questions, hints });

/// A batched reply: one answer per question, plus any speculative
/// *additional* record sets the server chose to piggyback. Each additional
/// answer is a complete record set of its own owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiAnswer {
    /// Answers aligned with the request's questions.
    pub answers: Vec<Answer>,
    /// Speculative additional record sets.
    pub additional: Vec<Answer>,
}

impl MultiAnswer {
    /// Serializes to a wire value.
    pub fn to_value(&self) -> NsResult<Value> {
        let sets = self.answers.iter().chain(&self.additional);
        check_rdata(sets.flat_map(|set| set.records.iter().map(|(_, body)| &body.rdata)))?;
        Ok(self.shape(&Tree))
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<MultiAnswer> {
        let decode = |field: &str| -> NsResult<Vec<Answer>> {
            v.field(field)
                .and_then(Value::as_list)
                .map_err(bad_field)?
                .iter()
                .map(Answer::from_value)
                .collect()
        };
        Ok(MultiAnswer {
            answers: decode("answers")?,
            additional: decode("additional")?,
        })
    }
}

impl Shaped for MultiAnswer {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("answers", s.list(self.answers.iter(), |a| a.shape(s))),
            ("additional", s.list(self.additional.iter(), |a| a.shape(s))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::ResourceRecord;
    use crate::zone::Zone;
    use hrpc::ReplySlot;
    use simnet::topology::{HostId, NetAddr};
    use std::borrow::Cow;
    use wire::Message;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn sample_answer(n: usize) -> Answer {
        let owner = name("fiji.cs.washington.edu");
        let bodies = (0..n).map(|i| RrBody {
            rtype: RType::A,
            ttl: 3600,
            rdata: RData::Addr(NetAddr::of(HostId(i as u32))),
        });
        Answer::ok(Records::of(owner, bodies))
    }

    /// A `TXT` record at `fiji` asked for at its alias `www`: the alias's
    /// `CNAME`, then the target's record under its own owner.
    fn alias_answer() -> Answer {
        let mut zone = Zone::new(name("cs.washington.edu"), 60);
        let (www, fiji) = (
            name("www.cs.washington.edu"),
            name("fiji.cs.washington.edu"),
        );
        zone.add(ResourceRecord::cname(www.clone(), 60, fiji.clone()))
            .expect("alias");
        zone.add(ResourceRecord::txt(fiji, 60, "VAX"))
            .expect("target");
        Answer::ok(zone.lookup(&www, RType::Txt).expect("chased"))
    }

    #[test]
    fn question_value_roundtrip() {
        let q = Question::new(name("fiji.cs.washington.edu"), RType::A);
        assert_eq!(Question::from_value(&q.tree()).expect("roundtrip"), q);
    }

    #[test]
    fn answer_value_roundtrip() {
        for a in [
            sample_answer(0),
            sample_answer(1),
            sample_answer(6),
            alias_answer(),
        ] {
            let v = a.to_value().expect("to value");
            assert_eq!(Answer::from_value(&v).expect("from value"), a);
        }
    }

    /// A list whose owners interleave, or spell the owner otherwise,
    /// decodes to the owner's bodies up to the first record of another
    /// owner, the rest after them, and writes back record for record.
    #[test]
    fn an_interleaved_list_reads_back_as_it_was_written() {
        let record = |owner: &str| {
            let rr = ResourceRecord::txt(name("x.y"), 60, owner);
            let Value::Struct(mut fields) = rr.tree().into_owned() else {
                panic!("records marshal as structs");
            };
            fields[0].1 = Value::str(owner);
            Value::Struct(fields)
        };
        let list = ["a.edu", "a.edu", "b.edu", "a.edu"].map(record);
        let tree = Value::record([
            ("rcode", Value::U32(0)),
            ("answers", Value::List(list.into())),
        ]);
        let answer = Answer::from_value(&tree).expect("decodes");
        let records = &answer.records;
        assert_eq!(
            (records.owner(), records.bodies().len()),
            (&name("a.edu"), 2)
        );
        assert_eq!(records.others().len(), 2);
        assert_eq!(answer.tree().into_owned(), tree);
        let spelt = Value::List(vec![record("a.edu"), record("A.EDU.")]);
        let tree = Value::record([("rcode", Value::U32(0)), ("answers", spelt)]);
        let answer = Answer::from_value(&tree).expect("decodes");
        assert_eq!(answer.records.bodies().len(), 2, "one owner, spelt twice");
    }

    /// An answer comes back from the fast path as it went, or is refused:
    /// the fast encoding names one owner, so an alias's answer, whose
    /// target's record it would re-own, is refused.
    #[test]
    fn answer_fast_roundtrip() {
        let alias = alias_answer();
        for a in [
            sample_answer(0),
            sample_answer(1),
            sample_answer(6),
            alias.clone(),
        ] {
            if let Ok(bytes) = a.to_fast_bytes() {
                assert_eq!(Answer::from_fast_bytes(&bytes).expect("fast decode"), a);
            }
        }
        assert!(alias.to_fast_bytes().is_err());
    }

    #[test]
    fn error_answers_roundtrip_to_results() {
        let q = Question::new(name("missing.cs.washington.edu"), RType::A);
        let cases = vec![
            (NsError::NameError("x".into()), Rcode::NameError),
            (NsError::NoData("x".into()), Rcode::NoData),
            (NsError::NotAuthoritative("x".into()), Rcode::NotAuth),
            (NsError::UpdatesDisabled, Rcode::Refused),
        ];
        for (err, rcode) in cases {
            let a = Answer::from_result(Err(err));
            assert_eq!(a.rcode, rcode);
            assert!(a.clone().into_result(&q).is_err());
            // And through the wire.
            let v = a.to_value().expect("to value");
            assert_eq!(Answer::from_value(&v).expect("from value").rcode, rcode);
        }
    }

    #[test]
    fn ok_answer_into_result_returns_records() {
        let q = Question::new(name("fiji.cs.washington.edu"), RType::A);
        let a = sample_answer(2);
        assert_eq!(a.into_result(&q).expect("ok").len(), 2);
    }

    /// What is no answer is refused, whichever part is missing, of the
    /// wrong type or out of range; so is an answer one record of which is
    /// none.
    #[test]
    fn a_value_that_is_no_answer_is_refused() {
        for bad in [
            Value::U32(0),
            Value::record([("rcode", Value::U32(0))]),
            Value::record([("rcode", Value::U32(99)), ("answers", Value::List(vec![]))]),
            Value::record([("rcode", Value::U32(0)), ("answers", Value::U32(1))]),
        ] {
            assert!(Answer::from_value(&bad).is_err(), "{bad:?}");
        }
        let record = sample_answer(1).records.whole().collect::<Vec<_>>()[0]
            .tree()
            .into_owned();
        let list = vec![record, Value::U32(7)];
        let value = Value::record([("rcode", Value::U32(0)), ("answers", Value::List(list))]);
        assert!(Answer::from_value(&value).is_err());
    }

    /// `rtype` 65,537 used to read back as `A`.
    #[test]
    fn a_question_type_beyond_sixteen_bits_is_refused_not_truncated() {
        let wide = Value::record([
            ("name", Value::str("fiji.cs.washington.edu")),
            ("rtype", Value::U32(65_537)),
        ]);
        let mismatch = wire::WireError::TypeMismatch {
            expected: "u16",
            found: "u32",
        };
        assert_eq!(Question::from_value(&wide), Err(mismatch));
    }

    /// Either edge hands over the peer's own struct when it sent one, and
    /// decodes a tree when it did not.
    #[test]
    fn the_edges_downcast_a_typed_peer_and_decode_an_untyped_one() {
        let sent = |args: &dyn Message| {
            args.read(Question::from_value)
                .map(|q| (matches!(q, Cow::Borrowed(_)), q.into_owned()))
        };
        let q = Question::new(name("fiji.cs.washington.edu"), RType::A);
        assert_eq!(sent(&q), Ok((true, q.clone())));
        assert_eq!(sent(&q.tree().into_owned()), Ok((false, q.clone())));
        assert!(sent(&Value::U32(7)).is_err());

        let a = sample_answer(2);
        let typed = |reply: &mut ReplySlot<'_>| {
            reply.put(a.clone());
            Ok(())
        };
        let read = ReplySlot::read(typed, decoded(Answer::from_value));
        assert_eq!(read, Ok(a.clone()));
        let tree = a.to_value().expect("to value");
        let untyped = |reply: &mut ReplySlot<'_>| {
            reply.put(tree);
            Ok(())
        };
        let read = ReplySlot::read(untyped, decoded(Answer::from_value));
        assert_eq!(read, Ok(a.clone()));
        // A typed reply of another type is read through its tree.
        assert!(matches!(
            ReplySlot::read(typed, decoded(MultiAnswer::from_value)),
            Err(RpcError::Service(_))
        ));
    }

    #[test]
    fn multi_question_value_roundtrip() {
        let mq = MultiQuestion::new(
            vec![
                Question::new(name("ctx.bind-uw.hns"), RType::Unspec),
                Question::new(name("fiji.cs.washington.edu"), RType::A),
            ],
            vec!["hrpcbinding".into()],
        );
        let back = MultiQuestion::from_value(&mq.tree()).expect("roundtrip");
        assert_eq!(back, mq);
    }

    #[test]
    fn multi_question_accepts_empty_hints() {
        let mq = MultiQuestion::new(vec![Question::new(name("a.hns"), RType::Unspec)], vec![]);
        assert_eq!(
            MultiQuestion::from_value(&mq.tree()).expect("roundtrip"),
            mq
        );
    }

    #[test]
    fn multi_answer_value_roundtrip_and_counts_records() {
        let ma = MultiAnswer {
            answers: vec![sample_answer(1), Answer::err(Rcode::NameError)],
            additional: vec![sample_answer(6), sample_answer(2)],
        };
        let v = ma.to_value().expect("to value");
        assert_eq!(MultiAnswer::from_value(&v).expect("from value"), ma);
    }

    #[test]
    fn malformed_fast_bytes_rejected() {
        assert!(Answer::from_fast_bytes(&[]).is_err());
        assert!(Answer::from_fast_bytes(&[99, 0, 0]).is_err());
    }

    #[test]
    fn fast_answer_every_prefix_is_a_typed_error() {
        // No prefix of a valid fast answer may decode (the format has no
        // self-delimiting frames) — and none may panic or produce garbage.
        let a = sample_answer(3);
        let bytes = a.to_fast_bytes().expect("fast encode");
        for cut in 0..bytes.len() {
            assert!(
                Answer::from_fast_bytes(&bytes[..cut]).is_err(),
                "cut {cut} accepted"
            );
        }
        assert_eq!(Answer::from_fast_bytes(&bytes).expect("full decode"), a);
    }
}
