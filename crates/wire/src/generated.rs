//! "Stub-compiler-generated" marshalling: correct but deliberately layered.
//!
//! The paper built its HRPC interface to BIND by describing the message
//! format in an IDL and using the stub compiler's generated marshalling
//! code, then discovered that this code was far more expensive than the
//! hand-written standard BIND routines: "the generated marshalling routines,
//! although correct, incur a good deal of overhead in procedure calls,
//! indirect calls to marshalling routines, unnecessary dynamic memory
//! allocation, and unnecessary levels of marshalling."
//!
//! This module reproduces that code path faithfully: a [`TypeDesc`] is
//! "compiled" into a tree of boxed codec objects; marshalling walks the tree
//! with dynamic dispatch, each node building its own intermediate buffer
//! that the parent copies. The resulting bytes are identical to
//! [`crate::xdr::encode`] — only the cost differs, which is exactly
//! Table 3.2's point. Compare `benches/marshalling.rs`.

use crate::error::{WireError, WireResult};
use crate::idl::TypeDesc;
use crate::value::Value;
use crate::xdr;

/// One node of the generated marshaller.
trait NodeCodec: Send + Sync {
    /// Marshals `v` into a freshly allocated buffer (one per node — the
    /// "unnecessary dynamic memory allocation" of the paper).
    fn marshal(&self, v: &Value) -> WireResult<Vec<u8>>;

    /// Unmarshals one value from the head of `bytes`; returns it and the
    /// number of bytes consumed.
    fn unmarshal(&self, bytes: &[u8]) -> WireResult<(Value, usize)>;
}

struct ScalarNode {
    desc: TypeDesc,
}

struct ListNode {
    elem: Box<dyn NodeCodec>,
}

struct StructNode {
    fields: Vec<(String, Box<dyn NodeCodec>)>,
}

struct OptNode {
    inner: Box<dyn NodeCodec>,
}

/// Marshals a value through one more "unnecessary level of marshalling":
/// encode into a scratch buffer, then copy into the result buffer.
fn relayer(scratch: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(scratch.len());
    out.extend_from_slice(&scratch);
    out
}

impl NodeCodec for ScalarNode {
    fn marshal(&self, v: &Value) -> WireResult<Vec<u8>> {
        self.desc.check(v)?;
        let mut scratch = Vec::new();
        xdr::encode_into(v, &mut scratch)?;
        Ok(relayer(scratch))
    }

    fn unmarshal(&self, bytes: &[u8]) -> WireResult<(Value, usize)> {
        let copy = bytes.to_vec(); // Defensive copy, as generated code did.
        let mut cur = xdr::Cursor::new(&copy);
        let v = cur.read_value()?;
        let used = copy.len() - cur.remaining();
        self.desc.check(&v)?;
        Ok((v, used))
    }
}

impl NodeCodec for ListNode {
    fn marshal(&self, v: &Value) -> WireResult<Vec<u8>> {
        let items = v.as_list()?;
        let mut scratch = Vec::new();
        // Tag + count exactly as the direct encoder lays them out.
        scratch.extend_from_slice(&7u32.to_be_bytes());
        if items.len() > xdr::MAX_LEN {
            return Err(WireError::Oversize(items.len()));
        }
        scratch.extend_from_slice(&(items.len() as u32).to_be_bytes());
        for item in items {
            let piece = self.elem.marshal(item)?;
            scratch.extend_from_slice(&piece);
        }
        Ok(relayer(scratch))
    }

    fn unmarshal(&self, bytes: &[u8]) -> WireResult<(Value, usize)> {
        let (tag, mut pos) = take_u32(bytes, 0)?;
        if tag != 7 {
            return Err(WireError::BadTag((tag & 0xFF) as u8));
        }
        let (n, p) = take_u32(bytes, pos)?;
        pos = p;
        if n as usize > xdr::MAX_LEN {
            return Err(WireError::Oversize(n as usize));
        }
        let mut items = Vec::with_capacity((n as usize).min(1024));
        for _ in 0..n {
            let (item, used) = self.elem.unmarshal(&bytes[pos..])?;
            items.push(item);
            pos += used;
        }
        Ok((Value::List(items), pos))
    }
}

impl NodeCodec for StructNode {
    fn marshal(&self, v: &Value) -> WireResult<Vec<u8>> {
        let fields = v.as_struct()?;
        let mut scratch = Vec::new();
        scratch.extend_from_slice(&8u32.to_be_bytes());
        scratch.extend_from_slice(&(self.fields.len() as u32).to_be_bytes());
        for (name, codec) in &self.fields {
            let field = fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, fv)| fv)
                .ok_or_else(|| WireError::FieldMissing(name.clone()))?;
            let mut name_buf = Vec::new();
            xdr::encode_into(&Value::Str(name.clone()), &mut name_buf)?;
            // Strip the string tag: struct field names are bare opaques.
            scratch.extend_from_slice(&name_buf[4..]);
            let piece = codec.marshal(field)?;
            scratch.extend_from_slice(&piece);
        }
        Ok(relayer(scratch))
    }

    fn unmarshal(&self, bytes: &[u8]) -> WireResult<(Value, usize)> {
        let (tag, mut pos) = take_u32(bytes, 0)?;
        if tag != 8 {
            return Err(WireError::BadTag((tag & 0xFF) as u8));
        }
        let (n, p) = take_u32(bytes, pos)?;
        pos = p;
        if n as usize != self.fields.len() {
            return Err(WireError::TypeMismatch {
                expected: "struct",
                found: "struct",
            });
        }
        let mut out = Vec::with_capacity(self.fields.len());
        for (name, codec) in &self.fields {
            let (wire_name, p) = take_opaque(bytes, pos)?;
            pos = p;
            let wire_name = String::from_utf8(wire_name).map_err(|_| WireError::BadUtf8)?;
            if &wire_name != name {
                return Err(WireError::FieldMissing(name.clone()));
            }
            let (v, used) = codec.unmarshal(&bytes[pos..])?;
            out.push((wire_name.into(), v));
            pos += used;
        }
        Ok((Value::Struct(out), pos))
    }
}

impl NodeCodec for OptNode {
    fn marshal(&self, v: &Value) -> WireResult<Vec<u8>> {
        let mut scratch = Vec::new();
        scratch.extend_from_slice(&9u32.to_be_bytes());
        match v {
            Value::Opt(None) => scratch.extend_from_slice(&0u32.to_be_bytes()),
            Value::Opt(Some(inner)) => {
                scratch.extend_from_slice(&1u32.to_be_bytes());
                let piece = self.inner.marshal(inner)?;
                scratch.extend_from_slice(&piece);
            }
            other => {
                return Err(WireError::TypeMismatch {
                    expected: "opt",
                    found: other.kind(),
                })
            }
        }
        Ok(relayer(scratch))
    }

    fn unmarshal(&self, bytes: &[u8]) -> WireResult<(Value, usize)> {
        let (tag, pos) = take_u32(bytes, 0)?;
        if tag != 9 {
            return Err(WireError::BadTag((tag & 0xFF) as u8));
        }
        let (present, pos) = take_u32(bytes, pos)?;
        if present == 0 {
            Ok((Value::Opt(None), pos))
        } else {
            let (v, used) = self.inner.unmarshal(&bytes[pos..])?;
            Ok((Value::Opt(Some(Box::new(v))), pos + used))
        }
    }
}

fn take_u32(bytes: &[u8], pos: usize) -> WireResult<(u32, usize)> {
    let (head, _) = bytes
        .get(pos..)
        .and_then(<[u8]>::split_first_chunk::<4>)
        .ok_or(WireError::Truncated)?;
    Ok((u32::from_be_bytes(*head), pos + 4))
}

fn take_opaque(bytes: &[u8], pos: usize) -> WireResult<(Vec<u8>, usize)> {
    let (len, pos) = take_u32(bytes, pos)?;
    let len = len as usize;
    if len > xdr::MAX_LEN {
        return Err(WireError::Oversize(len));
    }
    let padded = len + (4 - len % 4) % 4;
    if bytes.len() < pos + padded {
        return Err(WireError::Truncated);
    }
    Ok((bytes[pos..pos + len].to_vec(), pos + padded))
}

/// A compiled marshaller for one interface description.
pub struct Compiled {
    root: Box<dyn NodeCodec>,
    desc: TypeDesc,
}

impl std::fmt::Debug for Compiled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiled")
            .field("desc", &self.desc)
            .finish()
    }
}

fn compile_node(desc: &TypeDesc) -> Box<dyn NodeCodec> {
    match desc {
        TypeDesc::ListOf(elem) => Box::new(ListNode {
            elem: compile_node(elem),
        }),
        TypeDesc::StructOf(fields) => Box::new(StructNode {
            fields: fields
                .iter()
                .map(|(k, d)| (k.clone(), compile_node(d)))
                .collect(),
        }),
        TypeDesc::OptOf(inner) => Box::new(OptNode {
            inner: compile_node(inner),
        }),
        scalar => Box::new(ScalarNode {
            desc: scalar.clone(),
        }),
    }
}

impl Compiled {
    /// "Compiles" an interface description into a marshaller.
    pub fn new(desc: TypeDesc) -> Self {
        Compiled {
            root: compile_node(&desc),
            desc,
        }
    }

    /// The description this marshaller was compiled from.
    pub fn desc(&self) -> &TypeDesc {
        &self.desc
    }

    /// Marshals `v` (which must conform to the description).
    pub fn marshal(&self, v: &Value) -> WireResult<Vec<u8>> {
        self.root.marshal(v)
    }

    /// Unmarshals a complete message.
    pub fn unmarshal(&self, bytes: &[u8]) -> WireResult<Value> {
        let (v, used) = self.root.unmarshal(bytes)?;
        if used != bytes.len() {
            return Err(WireError::TrailingBytes(bytes.len() - used));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idl::TypeDesc;

    fn rr_message(n: usize) -> (Value, TypeDesc) {
        let records: Vec<Value> = (0..n)
            .map(|i| {
                Value::record([
                    ("rtype", Value::U32(1)),
                    ("ttl", Value::U32(3600)),
                    ("rdata", Value::Bytes(vec![i as u8; 16])),
                ])
            })
            .collect();
        let v = Value::record([
            ("name", Value::str("fiji.cs.washington.edu")),
            ("records", Value::List(records)),
        ]);
        let desc = TypeDesc::describe(&v);
        (v, desc)
    }

    #[test]
    fn wire_compatible_with_direct_encoder() {
        let (v, desc) = rr_message(3);
        let compiled = Compiled::new(desc);
        let generated = compiled.marshal(&v).expect("marshal");
        let direct = xdr::encode(&v).expect("encode");
        assert_eq!(generated, direct, "generated bytes must equal direct XDR");
    }

    #[test]
    fn roundtrip_through_generated_path() {
        let (v, desc) = rr_message(6);
        let compiled = Compiled::new(desc);
        let bytes = compiled.marshal(&v).expect("marshal");
        let back = compiled.unmarshal(&bytes).expect("unmarshal");
        assert_eq!(back, v);
    }

    #[test]
    fn nonconforming_value_is_rejected() {
        let desc = TypeDesc::record(vec![("port", TypeDesc::U32)]);
        let compiled = Compiled::new(desc);
        let bad = Value::record([("port", Value::str("not a number"))]);
        assert!(compiled.marshal(&bad).is_err());
    }

    #[test]
    fn unmarshal_rejects_field_rename() {
        let v = Value::record([("host", Value::str("x"))]);
        let bytes = xdr::encode(&v).expect("encode");
        let other = Compiled::new(TypeDesc::record(vec![("addr", TypeDesc::Str)]));
        assert!(other.unmarshal(&bytes).is_err());
    }

    #[test]
    fn unmarshal_rejects_trailing_bytes() {
        let (v, desc) = rr_message(1);
        let compiled = Compiled::new(desc);
        let mut bytes = compiled.marshal(&v).expect("marshal");
        bytes.extend_from_slice(&[0; 4]);
        assert!(matches!(
            compiled.unmarshal(&bytes),
            Err(WireError::TrailingBytes(4))
        ));
    }

    #[test]
    fn optional_fields_roundtrip() {
        let desc = TypeDesc::record(vec![("alias", TypeDesc::OptOf(Box::new(TypeDesc::Str)))]);
        let compiled = Compiled::new(desc);
        for v in [
            Value::record([("alias", Value::Opt(None))]),
            Value::record([("alias", Value::Opt(Some(Box::new(Value::str("f")))))]),
        ] {
            let bytes = compiled.marshal(&v).expect("marshal");
            assert_eq!(compiled.unmarshal(&bytes).expect("unmarshal"), v);
        }
    }
}
