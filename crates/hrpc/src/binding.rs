//! HRPC bindings: the system-independent handle a client calls through.
//!
//! "The client presents a name and is returned a Binding ... This Binding
//! is system-independent from the point of view of the client, even though
//! the means by which this information is gathered by the NSM varies widely
//! from system to system."

use simnet::topology::{HostId, NetAddr};
use wire::message::{Shape, Shaped, Tree};
use wire::{Value, WireFormat, WireResult};

use crate::components::{BindingProtocol, ComponentSet, ControlProtocol, Transport};

/// A program (service) number, as in Sun RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramId(pub u32);

/// A complete handle for calling a remote procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HrpcBinding {
    /// Host the service runs on.
    pub host: HostId,
    /// Network address of that host.
    pub addr: NetAddr,
    /// The exported program.
    pub program: ProgramId,
    /// Resolved port on the host.
    pub port: u16,
    /// The component set selected at bind time.
    pub components: ComponentSet,
}

impl HrpcBinding {
    /// Serializes the binding into a wire value (for an untyped peer of
    /// `FindNSM` or a binding NSM, the corpus and the marshalled caches).
    pub fn to_value(&self) -> Value {
        self.shape(&Tree)
    }

    /// Reconstructs a binding from its wire value.
    pub fn from_value(v: &Value) -> WireResult<HrpcBinding> {
        let host = HostId(v.u32_field("host")?);
        let program = ProgramId(v.u32_field("program")?);
        let port = v.u16_field("port")?;
        let data_rep = decode_format(v.u32_field("data_rep")?)?;
        let transport = decode_transport(v.u32_field("transport")?)?;
        let attempts = v.u32_field("ctl_attempts")?;
        let at_most_once = v.field("ctl_amo")?.as_bool()?;
        let control = decode_control(v.u32_field("control")?, attempts, at_most_once)?;
        let binding = decode_bindproto(v.u32_field("bindproto")?, v.u16_field("static_port")?)?;
        Ok(HrpcBinding {
            host,
            addr: NetAddr::of(host),
            program,
            port,
            components: ComponentSet {
                data_rep,
                transport,
                control,
                binding,
            },
        })
    }
}

/// The `HRPCBinding` query class's standard reply, and `FindNSM`'s.
impl Shaped for HrpcBinding {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        let c = self.components;
        s.record([
            ("host", s.u32(self.host.0)),
            ("program", s.u32(self.program.0)),
            ("port", s.u32(u32::from(self.port))),
            ("data_rep", s.u32(encode_format(c.data_rep))),
            ("transport", s.u32(encode_transport(c.transport))),
            ("control", s.u32(encode_control(c.control))),
            ("ctl_attempts", s.u32(c.control.max_attempts())),
            ("ctl_amo", s.bool(c.control.at_most_once())),
            ("bindproto", s.u32(encode_bindproto(c.binding))),
            ("static_port", s.u32(u32::from(static_port(c.binding)))),
        ])
    }
}

fn encode_format(f: WireFormat) -> u32 {
    match f {
        WireFormat::Xdr => 0,
        WireFormat::Courier => 1,
    }
}

fn decode_format(v: u32) -> WireResult<WireFormat> {
    match v {
        0 => Ok(WireFormat::Xdr),
        1 => Ok(WireFormat::Courier),
        other => Err(wire::WireError::BadTag(other as u8)),
    }
}

fn encode_transport(t: Transport) -> u32 {
    match t {
        Transport::SunTcp => 0,
        Transport::CourierSpp => 1,
        Transport::RawTcp => 2,
        Transport::RawUdp => 3,
        Transport::DnsUdp => 4,
    }
}

fn decode_transport(v: u32) -> WireResult<Transport> {
    match v {
        0 => Ok(Transport::SunTcp),
        1 => Ok(Transport::CourierSpp),
        2 => Ok(Transport::RawTcp),
        3 => Ok(Transport::RawUdp),
        4 => Ok(Transport::DnsUdp),
        other => Err(wire::WireError::BadTag(other as u8)),
    }
}

fn encode_control(c: ControlProtocol) -> u32 {
    match c {
        ControlProtocol::Sun => 0,
        ControlProtocol::Courier => 1,
        ControlProtocol::Raw { .. } => 2,
    }
}

fn decode_control(v: u32, attempts: u32, at_most_once: bool) -> WireResult<ControlProtocol> {
    match v {
        0 => Ok(ControlProtocol::Sun),
        1 => Ok(ControlProtocol::Courier),
        2 => Ok(ControlProtocol::Raw {
            max_attempts: attempts,
            at_most_once,
        }),
        other => Err(wire::WireError::BadTag(other as u8)),
    }
}

fn encode_bindproto(b: BindingProtocol) -> u32 {
    match b {
        BindingProtocol::SunPortmapper => 0,
        BindingProtocol::CourierExchange => 1,
        BindingProtocol::StaticPort(_) => 2,
    }
}

fn static_port(b: BindingProtocol) -> u16 {
    match b {
        BindingProtocol::StaticPort(p) => p,
        _ => 0,
    }
}

fn decode_bindproto(v: u32, port: u16) -> WireResult<BindingProtocol> {
    match v {
        0 => Ok(BindingProtocol::SunPortmapper),
        1 => Ok(BindingProtocol::CourierExchange),
        2 => Ok(BindingProtocol::StaticPort(port)),
        other => Err(wire::WireError::BadTag(other as u8)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(components: ComponentSet) -> HrpcBinding {
        HrpcBinding {
            host: HostId(4),
            addr: NetAddr::of(HostId(4)),
            program: ProgramId(100_005),
            port: 2049,
            components,
        }
    }

    #[test]
    fn value_roundtrip_for_every_suite() {
        for components in [
            ComponentSet::sun(),
            ComponentSet::courier(),
            ComponentSet::raw_tcp(7),
            ComponentSet::raw_udp(9),
        ] {
            let b = sample(components);
            let back = HrpcBinding::from_value(&b.to_value()).expect("roundtrip");
            assert_eq!(back, b);
        }
    }

    /// The tree a binding was built into by hand before it described its
    /// shape (PR 24's `to_value`), kept as the reference.
    fn by_hand(b: &HrpcBinding) -> Value {
        let c = b.components;
        Value::record([
            ("host", Value::U32(b.host.0)),
            ("program", Value::U32(b.program.0)),
            ("port", Value::U32(b.port as u32)),
            ("data_rep", Value::U32(encode_format(c.data_rep))),
            ("transport", Value::U32(encode_transport(c.transport))),
            ("control", Value::U32(encode_control(c.control))),
            ("ctl_attempts", Value::U32(c.control.max_attempts())),
            ("ctl_amo", Value::Bool(c.control.at_most_once())),
            ("bindproto", Value::U32(encode_bindproto(c.binding))),
            ("static_port", Value::U32(static_port(c.binding) as u32)),
        ])
    }

    #[test]
    fn the_shape_is_the_tree_built_by_hand_and_states_its_length() {
        use wire::Message;
        for components in [
            ComponentSet::sun(),
            ComponentSet::courier(),
            ComponentSet::raw_tcp(7),
            ComponentSet::raw_udp(9),
        ] {
            let b = sample(components);
            assert_eq!(b.tree().into_owned(), by_hand(&b));
            for format in [WireFormat::Xdr, WireFormat::Courier] {
                let bytes = format.encode(&by_hand(&b)).expect("encodes");
                assert_eq!(b.encoded_len(format), Ok(bytes.len()), "{format}");
            }
        }
    }

    #[test]
    fn value_roundtrip_survives_wire_encoding() {
        let b = sample(ComponentSet::courier());
        let bytes = wire::WireFormat::Courier
            .encode(&b.to_value())
            .expect("encode");
        let v = wire::WireFormat::Courier.decode(&bytes).expect("decode");
        assert_eq!(HrpcBinding::from_value(&v).expect("from value"), b);
    }

    /// `port` 65,589 used to read back as 53, `static_port` likewise.
    #[test]
    fn a_port_beyond_sixteen_bits_is_refused_not_truncated() {
        for field in ["port", "static_port"] {
            let Value::Struct(mut fields) = sample(ComponentSet::raw_tcp(53)).to_value() else {
                panic!("bindings marshal as structs");
            };
            for (name, value) in &mut fields {
                if name == field {
                    *value = Value::U32(65_589);
                }
            }
            assert_eq!(
                HrpcBinding::from_value(&Value::Struct(fields)),
                Err(wire::WireError::TypeMismatch {
                    expected: "u16",
                    found: "u32"
                }),
                "{field}"
            );
        }
    }

    #[test]
    fn malformed_value_rejected() {
        let v = Value::record([("host", Value::U32(1))]);
        assert!(HrpcBinding::from_value(&v).is_err());
        let v = Value::str("not a binding");
        assert!(HrpcBinding::from_value(&v).is_err());
    }

    #[test]
    fn bad_enum_codes_rejected() {
        let b = sample(ComponentSet::sun());
        let mut v = b.to_value();
        if let Value::Struct(fields) = &mut v {
            for (k, fv) in fields.iter_mut() {
                if k == "transport" {
                    *fv = Value::U32(99);
                }
            }
        }
        assert!(HrpcBinding::from_value(&v).is_err());
    }
}
