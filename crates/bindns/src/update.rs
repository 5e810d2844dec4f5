//! Dynamic updates — the first half of the paper's BIND modification.
//!
//! "We use a version of BIND, modified to support both dynamic updates and
//! also data of unspecified type." Conventional BIND (1987) only loaded
//! zones from master files; the HNS meta store needs runtime registration
//! of name services, NSMs, and contexts.

use wire::message::{Shape, Shaped, Tree};
use wire::Value;

use crate::error::{NsError, NsResult};
use crate::name::DomainName;
use crate::rr::{bad_field, check_rdata, RType, ResourceRecord};
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

    /// The records the operation carries.
    pub fn records(&self) -> &[ResourceRecord] {
        match self {
            UpdateOp::Add(rr) => std::slice::from_ref(rr),
            UpdateOp::Delete { .. } => &[],
            UpdateOp::Replace { records, .. } => records,
        }
    }

    /// Serializes to a wire value.
    pub fn to_value(&self) -> NsResult<Value> {
        check_rdata(self.records())?;
        Ok(self.shape(&Tree))
    }

    /// Deserializes from a wire value.
    pub fn from_value(v: &Value) -> NsResult<UpdateOp> {
        match v.u32_field("op").map_err(bad_field)? {
            0 => Ok(UpdateOp::Add(ResourceRecord::from_value(
                v.field("record").map_err(bad_field)?,
            )?)),
            1 => Ok(UpdateOp::Delete {
                name: DomainName::parse(v.str_field("name").map_err(bad_field)?)?,
                rtype: RType::read(v)?,
            }),
            2 => {
                let list = v
                    .field("records")
                    .and_then(Value::as_list)
                    .map_err(bad_field)?;
                Ok(UpdateOp::Replace {
                    name: DomainName::parse(v.str_field("name").map_err(bad_field)?)?,
                    rtype: RType::read(v)?,
                    records: ResourceRecord::list_from_values(list)?,
                })
            }
            other => Err(NsError::BadRecord(format!("unknown update op {other}"))),
        }
    }
}

impl Shaped for UpdateOp {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        let code = |rtype: &RType| s.u32(u32::from(rtype.code()));
        match self {
            UpdateOp::Add(rr) => s.record([("op", s.u32(0)), ("record", rr.shape(s))]),
            UpdateOp::Delete { name, rtype } => s.record([
                ("op", s.u32(1)),
                ("name", s.str(name.as_str())),
                ("rtype", code(rtype)),
            ]),
            UpdateOp::Replace {
                name,
                rtype,
                records,
            } => s.record([
                ("op", s.u32(2)),
                ("name", s.str(name.as_str())),
                ("rtype", code(rtype)),
                ("records", s.list(records.iter(), |r| r.shape(s))),
            ]),
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

    /// `rtype` 0x0001_0010 used to delete, or replace, `TXT`.
    #[test]
    fn a_type_code_beyond_sixteen_bits_is_refused_not_truncated() {
        let ops = [
            UpdateOp::Delete {
                name: name("a.hns"),
                rtype: RType::Txt,
            },
            UpdateOp::Replace {
                name: name("a.hns"),
                rtype: RType::Txt,
                records: vec![],
            },
        ];
        for op in ops {
            let Value::Struct(mut fields) = op.to_value().expect("to value") else {
                panic!("updates marshal as structs");
            };
            assert_eq!(fields[2].0, "rtype");
            fields[2].1 = Value::U32(0x0001_0010);
            assert!(
                matches!(
                    UpdateOp::from_value(&Value::Struct(fields)),
                    Err(NsError::BadRecord(_))
                ),
                "{op:?}"
            );
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
