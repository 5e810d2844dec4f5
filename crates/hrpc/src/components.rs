//! The five HRPC components and their mix-and-match suites.
//!
//! "The HRPC design involves the careful specification of clean interfaces
//! between the five principal components of an RPC facility: the stubs ...
//! the binding protocol ... the data representation ... the transport
//! protocol ... and the control protocol. ... These black boxes can be
//! 'mixed and matched' to emulate different communication protocols at
//! call-time. The set of protocols to be used is determined dynamically at
//! bind-time."
//!
//! The stub is whoever calls [`crate::net::RpcNet::call`]; the other four are
//! value types here, so a [`ComponentSet`] can be carried inside a binding,
//! cached, and sent over the wire.

use simnet::costs::RpcSuiteKind;
use wire::WireFormat;

/// The transport protocol component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// TCP as used under Sun RPC.
    SunTcp,
    /// Xerox SPP (sequenced packet protocol), under Courier.
    CourierSpp,
    /// A raw TCP byte-stream connection.
    RawTcp,
    /// A raw UDP datagram exchange.
    RawUdp,
    /// A native DNS UDP exchange. Not one of the HRPC emulation suites:
    /// this is what the *standard* BIND resolver speaks, bypassing the
    /// HRPC control layer (and therefore cheaper per call).
    DnsUdp,
}

impl Transport {
    /// True for datagram transports that may drop messages.
    pub fn is_datagram(self) -> bool {
        matches!(self, Transport::RawUdp | Transport::DnsUdp)
    }
}

/// The control protocol component (call identification, retransmission,
/// at-most-once bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlProtocol {
    /// Sun RPC's XID-based control.
    Sun,
    /// Courier's call/return control.
    Courier,
    /// The minimal "make a request and wait for a response" control used by
    /// the Raw HRPC suite.
    Raw {
        /// Maximum send attempts before reporting a timeout (datagram
        /// transports only; stream transports never retransmit).
        max_attempts: u32,
        /// Whether the server suppresses duplicate executions of a
        /// retransmitted call (at-most-once bookkeeping).
        at_most_once: bool,
    },
}

impl ControlProtocol {
    /// Maximum attempts this control protocol will make on a lossy
    /// datagram transport.
    pub fn max_attempts(self) -> u32 {
        match self {
            ControlProtocol::Sun => 3,
            ControlProtocol::Courier => 3,
            ControlProtocol::Raw { max_attempts, .. } => max_attempts.max(1),
        }
    }

    /// Whether the protocol keeps at-most-once call state: a retransmitted
    /// request is answered from the reply cache instead of re-executing.
    /// Sun and Courier track call state; the Raw suite is configurable.
    pub fn at_most_once(self) -> bool {
        match self {
            ControlProtocol::Sun | ControlProtocol::Courier => true,
            ControlProtocol::Raw { at_most_once, .. } => at_most_once,
        }
    }
}

/// The binding protocol component: how a client finds the port of a named
/// program on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingProtocol {
    /// Query the Sun portmapper on the target host.
    SunPortmapper,
    /// Query the Courier exchange listener on the target host.
    CourierExchange,
    /// The port is fixed and known in advance.
    StaticPort(u16),
}

/// A complete, bind-time-selected set of components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentSet {
    /// Data representation.
    pub data_rep: WireFormat,
    /// Transport protocol.
    pub transport: Transport,
    /// Control protocol.
    pub control: ControlProtocol,
    /// Binding protocol.
    pub binding: BindingProtocol,
}

impl ComponentSet {
    /// The Sun RPC emulation suite: XDR over TCP with portmapper binding.
    pub fn sun() -> ComponentSet {
        ComponentSet {
            data_rep: WireFormat::Xdr,
            transport: Transport::SunTcp,
            control: ControlProtocol::Sun,
            binding: BindingProtocol::SunPortmapper,
        }
    }

    /// The Courier emulation suite: Courier encoding over SPP.
    pub fn courier() -> ComponentSet {
        ComponentSet {
            data_rep: WireFormat::Courier,
            transport: Transport::CourierSpp,
            control: ControlProtocol::Courier,
            binding: BindingProtocol::CourierExchange,
        }
    }

    /// The Raw HRPC suite over TCP: "allows HRPC clients to make calls to
    /// any message passing program that conforms with the basic RPC
    /// paradigm of 'make a request and wait for a response'".
    pub fn raw_tcp(port: u16) -> ComponentSet {
        ComponentSet {
            data_rep: WireFormat::Xdr,
            transport: Transport::RawTcp,
            control: ControlProtocol::Raw {
                max_attempts: 1,
                at_most_once: false,
            },
            binding: BindingProtocol::StaticPort(port),
        }
    }

    /// The Raw HRPC suite over UDP datagrams (no duplicate suppression —
    /// callers must be idempotent, the classic raw-datagram caveat).
    pub fn raw_udp(port: u16) -> ComponentSet {
        ComponentSet {
            data_rep: WireFormat::Xdr,
            transport: Transport::RawUdp,
            control: ControlProtocol::Raw {
                max_attempts: 4,
                at_most_once: false,
            },
            binding: BindingProtocol::StaticPort(port),
        }
    }

    /// The Raw HRPC suite over UDP with at-most-once call state.
    pub fn raw_udp_at_most_once(port: u16) -> ComponentSet {
        ComponentSet {
            control: ControlProtocol::Raw {
                max_attempts: 4,
                at_most_once: true,
            },
            ..ComponentSet::raw_udp(port)
        }
    }

    /// The native DNS datagram exchange used by standard resolvers.
    pub fn native_dns(port: u16) -> ComponentSet {
        ComponentSet {
            data_rep: WireFormat::Xdr,
            transport: Transport::DnsUdp,
            control: ControlProtocol::Raw {
                max_attempts: 3,
                at_most_once: false,
            },
            binding: BindingProtocol::StaticPort(port),
        }
    }

    /// The cost-model class of this suite (drives per-call overhead).
    pub fn suite_kind(&self) -> RpcSuiteKind {
        match self.transport {
            Transport::SunTcp => RpcSuiteKind::Sun,
            Transport::CourierSpp => RpcSuiteKind::Courier,
            Transport::RawTcp => RpcSuiteKind::RawTcp,
            Transport::RawUdp => RpcSuiteKind::RawUdp,
            Transport::DnsUdp => RpcSuiteKind::DnsUdp,
        }
    }
}

/// The native system types HRPC can emulate peers of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeSystem {
    /// UNIX machines speaking Sun RPC (Suns, VAXen).
    SunUnix,
    /// Xerox D-machines under XDE, speaking Courier.
    XeroxXde,
    /// Systems reachable only via TCP message passing (e.g. Uniflex).
    TcpMessage,
    /// Systems reachable only via UDP message passing.
    UdpMessage,
}

impl NativeSystem {
    /// Assembles the component set that makes HRPC "look to each existing
    /// RPC mechanism exactly the same as a homogeneous peer".
    pub fn emulation_suite(self, static_port: Option<u16>) -> ComponentSet {
        match self {
            NativeSystem::SunUnix => ComponentSet::sun(),
            NativeSystem::XeroxXde => ComponentSet::courier(),
            NativeSystem::TcpMessage => ComponentSet::raw_tcp(static_port.unwrap_or(0)),
            NativeSystem::UdpMessage => ComponentSet::raw_udp(static_port.unwrap_or(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_constructors_pick_consistent_components() {
        let sun = ComponentSet::sun();
        assert_eq!(sun.data_rep, WireFormat::Xdr);
        assert_eq!(sun.binding, BindingProtocol::SunPortmapper);
        assert_eq!(sun.suite_kind(), RpcSuiteKind::Sun);

        let courier = ComponentSet::courier();
        assert_eq!(courier.data_rep, WireFormat::Courier);
        assert_eq!(courier.suite_kind(), RpcSuiteKind::Courier);

        assert_eq!(ComponentSet::raw_tcp(9).suite_kind(), RpcSuiteKind::RawTcp);
        assert_eq!(ComponentSet::raw_udp(9).suite_kind(), RpcSuiteKind::RawUdp);
    }

    #[test]
    fn only_udp_is_datagram() {
        assert!(Transport::RawUdp.is_datagram());
        assert!(!Transport::SunTcp.is_datagram());
        assert!(!Transport::CourierSpp.is_datagram());
        assert!(!Transport::RawTcp.is_datagram());
    }

    #[test]
    fn raw_control_clamps_attempts_to_one() {
        let raw = |n| ControlProtocol::Raw {
            max_attempts: n,
            at_most_once: false,
        };
        assert_eq!(raw(0).max_attempts(), 1);
        assert_eq!(raw(5).max_attempts(), 5);
        assert_eq!(ControlProtocol::Sun.max_attempts(), 3);
    }

    #[test]
    fn at_most_once_by_protocol() {
        assert!(ControlProtocol::Sun.at_most_once());
        assert!(ControlProtocol::Courier.at_most_once());
        assert!(!ComponentSet::raw_udp(1).control.at_most_once());
        assert!(ComponentSet::raw_udp_at_most_once(1).control.at_most_once());
    }

    #[test]
    fn emulation_suites_match_native_systems() {
        assert_eq!(
            NativeSystem::SunUnix.emulation_suite(None),
            ComponentSet::sun()
        );
        assert_eq!(
            NativeSystem::XeroxXde.emulation_suite(None),
            ComponentSet::courier()
        );
        assert_eq!(
            NativeSystem::TcpMessage.emulation_suite(Some(53)),
            ComponentSet::raw_tcp(53)
        );
        assert_eq!(
            NativeSystem::UdpMessage.emulation_suite(Some(53)),
            ComponentSet::raw_udp(53)
        );
    }

    #[test]
    fn components_mix_and_match() {
        // The whole point: a nonstandard combination is representable.
        let odd = ComponentSet {
            data_rep: WireFormat::Courier,
            transport: Transport::RawTcp,
            control: ControlProtocol::Sun,
            binding: BindingProtocol::StaticPort(7),
        };
        assert_eq!(odd.suite_kind(), RpcSuiteKind::RawTcp);
        assert_eq!(odd.data_rep, WireFormat::Courier);
    }
}
