//! Hosts and the network joining them.
//!
//! The paper's testbed was a set of MicroVAX-IIs joined by a single
//! Ethernet; we model a flat LAN (every host one hop from every other) with
//! named hosts. Host identity is what matters to the HNS experiments: a call
//! between processes on the *same* host is effectively free, while a call
//! between hosts pays the remote-call overhead of the RPC suite in use.

use std::fmt;

use parking_lot::RwLock;

/// Identifies a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A simulated network address (what a name service maps host names to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetAddr {
    /// The host this address routes to.
    pub host: HostId,
}

impl NetAddr {
    /// Creates the address of `host`.
    pub fn of(host: HostId) -> Self {
        NetAddr { host }
    }
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "10.0.0.{}", self.host.0)
    }
}

#[derive(Debug)]
struct HostRecord {
    name: String,
}

/// The set of hosts on the simulated LAN: one locked list, appended to
/// during setup and read afterwards.
#[derive(Debug, Default)]
pub struct Topology {
    hosts: RwLock<Vec<HostRecord>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host with the given human-readable name and returns its id.
    pub fn add_host(&self, name: impl Into<String>) -> HostId {
        let mut hosts = self.hosts.write();
        let id = HostId(hosts.len() as u32);
        hosts.push(HostRecord { name: name.into() });
        id
    }

    /// Returns the name of `host`, if it exists.
    pub fn host_name(&self, host: HostId) -> Option<String> {
        self.hosts
            .read()
            .get(host.0 as usize)
            .map(|h| h.name.clone())
    }

    /// Returns the number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.read().len()
    }

    /// Returns true if no hosts have been added.
    pub fn is_empty(&self) -> bool {
        self.hosts.read().is_empty()
    }

    /// Returns true when `a` and `b` are the same machine, i.e. a call
    /// between them is a local (effectively free) procedure call.
    pub fn colocated(&self, a: HostId, b: HostId) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_hosts() {
        let t = Topology::new();
        let a = t.add_host("fiji.cs.washington.edu");
        let b = t.add_host("june.cs.washington.edu");
        assert_ne!(a, b);
        assert_eq!(t.host_name(a).as_deref(), Some("fiji.cs.washington.edu"));
        assert_eq!(t.host_name(b).as_deref(), Some("june.cs.washington.edu"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn colocation_is_host_identity() {
        let t = Topology::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        assert!(t.colocated(a, a));
        assert!(!t.colocated(a, b));
    }

    #[test]
    fn net_addr_display_is_stable() {
        let t = Topology::new();
        let a = t.add_host("a");
        assert_eq!(NetAddr::of(a).to_string(), "10.0.0.0");
    }

    #[test]
    fn missing_host_name_is_none() {
        let t = Topology::new();
        assert_eq!(t.host_name(HostId(3)), None);
    }
}
