//! Wire messages for the name-server protocol.
//!
//! The server speaks six procedures: `QUERY`, `MQUERY`, `AXFR` / `IXFR`
//! (zone transfer), `UPDATE` (the dynamic-update extension of the
//! modified BIND), and `SERIAL` (secondary refresh checks). The structs
//! of `QUERY`, `MQUERY` and `UPDATE` are [`wire::Message`]s: each writes
//! its shape once, and crosses the fabric as itself between this crate's
//! resolvers and its server. `to_value` reads that shape as a tree, for
//! an untyped peer, the corpus and the fuzzer; `from_value` is the edge
//! where such a peer's tree is decoded. Answers also convert to the
//! hand-written [`wire::fast`] batch format (the standard resolver path
//! of Table 3.2).

use hrpc::error::{RpcError, RpcResult};
use hrpc::Reply;
use wire::fast::{decode_rr_batch, encode_rr_batch, WireRecord};
use wire::message::{Shape, Shaped, Tree};
use wire::{Message, Value, WireResult};

use crate::error::{NsError, NsResult, Rcode};
use crate::name::DomainName;
use crate::rr::{bad_field, check_rdata, RData, RType, ResourceRecord};

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

/// A reply as the struct the procedure answers with ([`Reply::read`]),
/// an untyped server's tree that is none being the service's failure.
pub(crate) fn replied<T: Message>(reply: Reply, decode: fn(&Value) -> NsResult<T>) -> RpcResult<T> {
    reply
        .read(decode)
        .map_err(|e| RpcError::Service(e.to_string()))
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

    /// Serializes to a wire value.
    pub fn to_value(&self) -> Value {
        self.shape(&Tree)
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<Question> {
        let name = DomainName::parse(
            v.str_field("name")
                .map_err(|e| NsError::BadName(e.to_string()))?,
        )?;
        let rtype = RType::read(v)?;
        Ok(Question { name, rtype })
    }
}

impl Shaped for Question {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("name", s.str(self.name.as_str())),
            ("rtype", s.u32(u32::from(self.rtype.code()))),
        ])
    }
}

/// A lookup answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Outcome code.
    pub rcode: Rcode,
    /// Matching records (empty unless `rcode` is [`Rcode::Ok`]).
    pub records: Vec<ResourceRecord>,
}

impl Answer {
    /// Builds a successful answer.
    pub fn ok(records: Vec<ResourceRecord>) -> Self {
        Answer {
            rcode: Rcode::Ok,
            records,
        }
    }

    /// Builds an error answer.
    pub fn err(rcode: Rcode) -> Self {
        Answer {
            rcode,
            records: Vec::new(),
        }
    }

    /// Maps a lookup result into an answer.
    pub fn from_result(result: NsResult<Vec<ResourceRecord>>) -> Answer {
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
    pub fn into_result(self, question: &Question) -> NsResult<Vec<ResourceRecord>> {
        self.rcode.into_result(&question.name)?;
        Ok(self.records)
    }

    /// Serializes to a wire value (the HRPC path).
    pub fn to_value(&self) -> NsResult<Value> {
        check_rdata(&self.records)?;
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
            records: ResourceRecord::list_from_values(records)?,
        })
    }

    /// Serializes through the hand-written fast path. All records must
    /// share one owner name (true for every standard lookup reply).
    pub fn to_fast_bytes(&self) -> WireResult<Vec<u8>> {
        let owner = self.records.first().map_or("", |r| r.name.as_str());
        let wire_records: Vec<WireRecord> = self
            .records
            .iter()
            .map(|r| {
                Ok(WireRecord {
                    rtype: r.rtype.code(),
                    ttl: r.ttl,
                    rdata: r
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
        let name = if owner.is_empty() {
            DomainName::root()
        } else {
            DomainName::parse(&owner)?
        };
        let records: NsResult<Vec<ResourceRecord>> = wire_records
            .into_iter()
            .map(|w| {
                Ok(ResourceRecord {
                    name: name.clone(),
                    rtype: RType::from_code(w.rtype)?,
                    ttl: w.ttl,
                    rdata: RData::from_bytes(&w.rdata)?,
                })
            })
            .collect();
        Ok(Answer {
            rcode,
            records: records?,
        })
    }
}

impl Shaped for Answer {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("rcode", s.u32(self.rcode as u32)),
            ("answers", s.list(self.records.iter(), |r| r.shape(s))),
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

    /// Serializes to a wire value.
    pub fn to_value(&self) -> Value {
        self.shape(&Tree)
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<MultiQuestion> {
        let questions = v
            .field("questions")
            .and_then(Value::as_list)
            .map_err(bad_field)?
            .iter()
            .map(Question::from_value)
            .collect::<NsResult<Vec<_>>>()?;
        let hints = v
            .field("hints")
            .and_then(Value::as_list)
            .map_err(bad_field)?
            .iter()
            .map(|h| h.as_str().map(str::to_string).map_err(bad_field))
            .collect::<NsResult<Vec<_>>>()?;
        Ok(MultiQuestion { questions, hints })
    }
}

impl Shaped for MultiQuestion {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.record([
            ("questions", s.list(self.questions.iter(), |q| q.shape(s))),
            ("hints", s.list(self.hints.iter(), |h| s.str(h))),
        ])
    }
}

/// A batched reply: one answer per question, plus any speculative
/// *additional* record sets the server chose to piggyback. Each additional
/// answer is a complete single-owner record set (its owner name is carried
/// by the records themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiAnswer {
    /// Answers aligned with the request's questions.
    pub answers: Vec<Answer>,
    /// Speculative additional record sets.
    pub additional: Vec<Answer>,
}

impl MultiAnswer {
    /// Total records across answers and additional sets (drives the
    /// client's demarshalling cost).
    pub fn total_records(&self) -> usize {
        self.answers
            .iter()
            .chain(self.additional.iter())
            .map(|a| a.records.len())
            .sum()
    }

    /// Serializes to a wire value.
    pub fn to_value(&self) -> NsResult<Value> {
        let sets = self.answers.iter().chain(&self.additional);
        check_rdata(sets.flat_map(|set| &set.records))?;
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
    use simnet::topology::{HostId, NetAddr};
    use std::borrow::Cow;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn sample_answer(n: usize) -> Answer {
        let owner = name("fiji.cs.washington.edu");
        Answer::ok(
            (0..n)
                .map(|i| ResourceRecord::a(owner.clone(), 3600, NetAddr::of(HostId(i as u32))))
                .collect(),
        )
    }

    #[test]
    fn question_value_roundtrip() {
        let q = Question::new(name("fiji.cs.washington.edu"), RType::A);
        assert_eq!(Question::from_value(&q.to_value()).expect("roundtrip"), q);
    }

    #[test]
    fn answer_value_roundtrip() {
        for n in [0usize, 1, 6] {
            let a = sample_answer(n);
            let v = a.to_value().expect("to value");
            assert_eq!(Answer::from_value(&v).expect("from value"), a);
        }
    }

    #[test]
    fn answer_fast_roundtrip() {
        for n in [0usize, 1, 6] {
            let a = sample_answer(n);
            let bytes = a.to_fast_bytes().expect("fast encode");
            assert_eq!(Answer::from_fast_bytes(&bytes).expect("fast decode"), a);
        }
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
        let record = sample_answer(1).records[0].to_value().expect("value");
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
        assert!(matches!(
            Question::from_value(&wide),
            Err(NsError::BadRecord(_))
        ));
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
        assert_eq!(sent(&q.to_value()), Ok((false, q.clone())));
        assert!(sent(&Value::U32(7)).is_err());

        let a = sample_answer(2);
        assert_eq!(
            replied(Reply::typed(a.clone()), Answer::from_value),
            Ok(a.clone())
        );
        let tree = a.to_value().expect("to value");
        assert_eq!(
            replied(Reply::Tree(tree), Answer::from_value),
            Ok(a.clone())
        );
        // A typed reply of another type is read through its tree.
        assert!(matches!(
            replied(Reply::typed(a), MultiAnswer::from_value),
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
        let back = MultiQuestion::from_value(&mq.to_value()).expect("roundtrip");
        assert_eq!(back, mq);
    }

    #[test]
    fn multi_question_accepts_empty_hints() {
        let mq = MultiQuestion::new(vec![Question::new(name("a.hns"), RType::Unspec)], vec![]);
        assert_eq!(
            MultiQuestion::from_value(&mq.to_value()).expect("roundtrip"),
            mq
        );
    }

    #[test]
    fn multi_answer_value_roundtrip_and_counts_records() {
        let ma = MultiAnswer {
            answers: vec![sample_answer(1), Answer::err(Rcode::NameError)],
            additional: vec![sample_answer(6), sample_answer(2)],
        };
        assert_eq!(ma.total_records(), 9);
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
