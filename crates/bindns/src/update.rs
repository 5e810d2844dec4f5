//! Dynamic updates — the first half of the paper's BIND modification.
//!
//! "We use a version of BIND, modified to support both dynamic updates and
//! also data of unspecified type." Conventional BIND (1987) only loaded
//! zones from master files; the HNS meta store needs runtime registration
//! of name services, NSMs, and contexts.

use wire::Value;

use crate::error::{NsError, NsResult};
use crate::name::DomainName;
use crate::rr::{RType, ResourceRecord};
use crate::zone::Zone;

/// One dynamic-update operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Add a record.
    Add(ResourceRecord),
    /// Delete all records of a type at a name.
    Delete {
        /// Owner name.
        name: DomainName,
        /// Record type to delete.
        rtype: RType,
    },
    /// Atomically replace the record set at (`name`, `rtype`).
    Replace {
        /// Owner name.
        name: DomainName,
        /// Record type being replaced.
        rtype: RType,
        /// New record set (all must match `name` and `rtype`).
        records: Vec<ResourceRecord>,
    },
}

impl UpdateOp {
    /// The owner name this operation touches.
    pub fn target(&self) -> &DomainName {
        match self {
            UpdateOp::Add(rr) => &rr.name,
            UpdateOp::Delete { name, .. } | UpdateOp::Replace { name, .. } => name,
        }
    }

    /// True if the operation introduces `UNSPEC` data (needs the second
    /// half of the BIND modification).
    pub fn uses_unspec(&self) -> bool {
        match self {
            UpdateOp::Add(rr) => rr.rtype == RType::Unspec,
            UpdateOp::Delete { rtype, .. } => *rtype == RType::Unspec,
            UpdateOp::Replace { rtype, records, .. } => {
                *rtype == RType::Unspec || records.iter().any(|r| r.rtype == RType::Unspec)
            }
        }
    }

    /// Applies the operation to a zone.
    pub fn apply(&self, zone: &mut Zone) -> NsResult<()> {
        match self {
            UpdateOp::Add(rr) => zone.add(rr.clone()),
            UpdateOp::Delete { name, rtype } => {
                zone.remove(name, *rtype);
                Ok(())
            }
            UpdateOp::Replace {
                name,
                rtype,
                records,
            } => zone.replace(name, *rtype, records.clone()),
        }
    }

    /// Serializes to a wire value.
    pub fn to_value(&self) -> NsResult<Value> {
        Ok(match self {
            UpdateOp::Add(rr) => Value::record([("op", Value::U32(0)), ("record", rr.to_value()?)]),
            UpdateOp::Delete { name, rtype } => Value::record([
                ("op", Value::U32(1)),
                ("name", Value::str(name.as_str())),
                ("rtype", Value::U32(rtype.code() as u32)),
            ]),
            UpdateOp::Replace {
                name,
                rtype,
                records,
            } => {
                let recs: NsResult<Vec<Value>> =
                    records.iter().map(ResourceRecord::to_value).collect();
                Value::record([
                    ("op", Value::U32(2)),
                    ("name", Value::str(name.as_str())),
                    ("rtype", Value::U32(rtype.code() as u32)),
                    ("records", Value::List(recs?)),
                ])
            }
        })
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<UpdateOp> {
        let bad = |e: wire::WireError| NsError::BadRecord(e.to_string());
        match v.u32_field("op").map_err(bad)? {
            0 => Ok(UpdateOp::Add(ResourceRecord::from_value(
                v.field("record").map_err(bad)?,
            )?)),
            1 => Ok(UpdateOp::Delete {
                name: DomainName::parse(v.str_field("name").map_err(bad)?)?,
                rtype: RType::from_code(v.u32_field("rtype").map_err(bad)? as u16)?,
            }),
            2 => {
                let list = v.field("records").and_then(Value::as_list).map_err(bad)?;
                Ok(UpdateOp::Replace {
                    name: DomainName::parse(v.str_field("name").map_err(bad)?)?,
                    rtype: RType::from_code(v.u32_field("rtype").map_err(bad)? as u16)?,
                    records: ResourceRecord::list_from_values(list)?,
                })
            }
            other => Err(NsError::BadRecord(format!("unknown update op {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology::{HostId, NetAddr};

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn zone() -> Zone {
        Zone::new(name("hns"), 600)
    }

    #[test]
    fn add_applies() {
        let mut z = zone();
        let rr = ResourceRecord::unspec(name("ctx.hns"), 600, b"BIND".to_vec());
        UpdateOp::Add(rr.clone()).apply(&mut z).expect("apply");
        assert_eq!(
            z.lookup(&name("ctx.hns"), RType::Unspec).expect("lookup"),
            vec![rr]
        );
    }

    #[test]
    fn delete_applies_and_is_idempotent() {
        let mut z = zone();
        z.add(ResourceRecord::txt(name("a.hns"), 60, "x"))
            .expect("add");
        let op = UpdateOp::Delete {
            name: name("a.hns"),
            rtype: RType::Txt,
        };
        op.apply(&mut z).expect("apply");
        op.apply(&mut z).expect("apply again");
        assert!(z.lookup(&name("a.hns"), RType::Txt).is_err());
    }

    #[test]
    fn replace_applies() {
        let mut z = zone();
        z.add(ResourceRecord::a(name("h.hns"), 60, NetAddr::of(HostId(1))))
            .expect("add");
        let op = UpdateOp::Replace {
            name: name("h.hns"),
            rtype: RType::A,
            records: vec![ResourceRecord::a(name("h.hns"), 60, NetAddr::of(HostId(9)))],
        };
        op.apply(&mut z).expect("apply");
        let found = z.lookup(&name("h.hns"), RType::A).expect("lookup");
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn value_roundtrip_for_all_ops() {
        let ops = vec![
            UpdateOp::Add(ResourceRecord::txt(name("a.hns"), 60, "x")),
            UpdateOp::Delete {
                name: name("a.hns"),
                rtype: RType::Txt,
            },
            UpdateOp::Replace {
                name: name("a.hns"),
                rtype: RType::Txt,
                records: vec![ResourceRecord::txt(name("a.hns"), 60, "y")],
            },
        ];
        for op in ops {
            let v = op.to_value().expect("to value");
            assert_eq!(UpdateOp::from_value(&v).expect("from value"), op);
        }
    }

    #[test]
    fn unspec_detection() {
        assert!(UpdateOp::Add(ResourceRecord::unspec(name("a.hns"), 1, vec![])).uses_unspec());
        assert!(!UpdateOp::Add(ResourceRecord::txt(name("a.hns"), 1, "t")).uses_unspec());
        assert!(UpdateOp::Delete {
            name: name("a.hns"),
            rtype: RType::Unspec
        }
        .uses_unspec());
    }

    #[test]
    fn target_reports_owner() {
        let op = UpdateOp::Delete {
            name: name("a.hns"),
            rtype: RType::Txt,
        };
        assert_eq!(op.target(), &name("a.hns"));
    }

    #[test]
    fn bad_op_code_rejected() {
        let v = Value::record([("op", Value::U32(9))]);
        assert!(UpdateOp::from_value(&v).is_err());
    }
}
