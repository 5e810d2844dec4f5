//! Registration-service errors.

use std::fmt;

use hrpc::RpcError;

/// Failures in the registration frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegError {
    /// The name is not registered.
    NotRegistered(String),
    /// The name is already registered.
    AlreadyRegistered(String),
    /// The caller is not the current holder of the name.
    NotOwner {
        /// The name being operated on.
        name: String,
        /// Who claimed ownership.
        claimed: String,
        /// Who actually holds the name.
        actual: String,
    },
    /// The owner is not known to the registry (no key on file).
    UnknownOwner(String),
    /// An owner key or a stored link signature failed verification.
    BadSignature(String),
    /// The transfer would hand the name back to a previous holder,
    /// creating a cycle in the chain.
    CycleRejected {
        /// The name being transferred.
        name: String,
        /// The previous holder the transfer targeted.
        owner: String,
    },
    /// A stored ownership or link record was malformed.
    BadRecord(String),
    /// The underlying Clearinghouse / RPC layer failed. Writes surface
    /// `RpcError::HostUnreachable` here when the primary is partitioned
    /// away — typed fail-fast, never silent loss.
    Rpc(RpcError),
}

impl RegError {
    /// True when the underlying transport gave up reaching a host
    /// (crashed or partitioned under a fault plan).
    pub fn is_unreachable(&self) -> bool {
        matches!(self, RegError::Rpc(e) if e.is_unreachable())
    }
}

impl fmt::Display for RegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegError::NotRegistered(n) => write!(f, "not registered: {n}"),
            RegError::AlreadyRegistered(n) => write!(f, "already registered: {n}"),
            RegError::NotOwner {
                name,
                claimed,
                actual,
            } => write!(f, "{claimed} does not hold {name} (held by {actual})"),
            RegError::UnknownOwner(o) => write!(f, "unknown owner: {o}"),
            RegError::BadSignature(what) => write!(f, "bad signature: {what}"),
            RegError::CycleRejected { name, owner } => {
                write!(f, "transfer of {name} back to previous holder {owner}")
            }
            RegError::BadRecord(msg) => write!(f, "bad registration record: {msg}"),
            RegError::Rpc(e) => write!(f, "rpc: {e}"),
        }
    }
}

impl std::error::Error for RegError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegError::Rpc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RpcError> for RegError {
    fn from(e: RpcError) -> Self {
        RegError::Rpc(e)
    }
}

/// A record that does not decode (a stored link, a resolution) is malformed.
impl From<wire::WireError> for RegError {
    fn from(e: wire::WireError) -> Self {
        RegError::BadRecord(e.to_string())
    }
}

/// Maps a registry error onto the RPC error space for the wire. The
/// transport-level variant passes through unchanged so a caller of the
/// exported service still sees a typed `HostUnreachable` when the
/// registry's own write leg is partitioned away.
impl From<RegError> for RpcError {
    fn from(e: RegError) -> Self {
        match e {
            RegError::Rpc(inner) => inner,
            RegError::NotRegistered(n) => RpcError::NotFound(n),
            other => RpcError::Service(other.to_string()),
        }
    }
}

/// Result alias for registration operations.
pub type RegResult<T> = Result<T, RegError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        for (e, needle) in [
            (RegError::NotRegistered("a".into()), "not registered"),
            (RegError::AlreadyRegistered("a".into()), "already"),
            (
                RegError::NotOwner {
                    name: "a".into(),
                    claimed: "x".into(),
                    actual: "y".into(),
                },
                "does not hold",
            ),
            (RegError::UnknownOwner("o".into()), "unknown owner"),
            (RegError::BadSignature("link 3".into()), "signature"),
            (
                RegError::CycleRejected {
                    name: "a".into(),
                    owner: "x".into(),
                },
                "previous holder",
            ),
            (RegError::BadRecord("m".into()), "record"),
            (RegError::Rpc(RpcError::BadProcedure(1)), "rpc"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn unreachable_is_typed_through_the_wrapper() {
        let e = RegError::Rpc(RpcError::HostUnreachable {
            host: simnet::topology::HostId(3),
            attempts: 4,
        });
        assert!(e.is_unreachable());
        assert!(!RegError::NotRegistered("a".into()).is_unreachable());
        // And survives the round trip onto the wire error space.
        let rpc: RpcError = e.into();
        assert!(rpc.is_unreachable());
    }

    #[test]
    fn not_registered_maps_to_not_found() {
        let rpc: RpcError = RegError::NotRegistered("a".into()).into();
        assert!(matches!(rpc, RpcError::NotFound(_)));
        assert!(std::error::Error::source(&RegError::Rpc(RpcError::BadProcedure(1))).is_some());
    }
}
