//! HNS errors.

use std::fmt;

use hrpc::RpcError;

/// Failures in the HCS Name Service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HnsError {
    /// No context with that name is registered.
    NoSuchContext(String),
    /// No NSM is registered for the (name service, query class) pair.
    NoSuchNsm {
        /// Name service.
        name_service: String,
        /// Query class.
        query_class: String,
    },
    /// A needed host-address NSM is not linked with this HNS instance.
    ///
    /// Recursion in `FindNSM` is broken by linking host-address NSMs
    /// directly with the HNS; without one, mapping 3 cannot terminate.
    NoLinkedHostAddrNsm(String),
    /// A meta record was malformed.
    BadMetaRecord(String),
    /// An HNS name was malformed, or a name the meta zone is keyed by
    /// (context, name service, query class, NSM name) has no key of its own.
    BadName(String),
    /// The underlying RPC or name-service layer failed.
    Rpc(RpcError),
}

impl fmt::Display for HnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HnsError::NoSuchContext(c) => write!(f, "no such context: {c}"),
            HnsError::NoSuchNsm {
                name_service,
                query_class,
            } => {
                write!(f, "no NSM for query class {query_class} on {name_service}")
            }
            HnsError::NoLinkedHostAddrNsm(ns) => {
                write!(f, "no linked host-address NSM for {ns}")
            }
            HnsError::BadMetaRecord(msg) => write!(f, "bad meta record: {msg}"),
            HnsError::BadName(msg) => write!(f, "bad HNS name: {msg}"),
            HnsError::Rpc(e) => write!(f, "rpc: {e}"),
        }
    }
}

impl std::error::Error for HnsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HnsError::Rpc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RpcError> for HnsError {
    fn from(e: RpcError) -> Self {
        HnsError::Rpc(e)
    }
}

impl From<wire::WireError> for HnsError {
    fn from(e: wire::WireError) -> Self {
        HnsError::Rpc(RpcError::Wire(e))
    }
}

/// Result alias for HNS operations.
pub type HnsResult<T> = Result<T, HnsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        for (e, needle) in [
            (HnsError::NoSuchContext("c".into()), "context"),
            (
                HnsError::NoSuchNsm {
                    name_service: "BIND".into(),
                    query_class: "q".into(),
                },
                "NSM",
            ),
            (HnsError::NoLinkedHostAddrNsm("CH".into()), "linked"),
            (HnsError::BadMetaRecord("m".into()), "meta"),
            (HnsError::BadName("n".into()), "name"),
            (HnsError::Rpc(RpcError::BadProcedure(1)), "rpc"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn conversions_and_source() {
        let e: HnsError = RpcError::Timeout { attempts: 2 }.into();
        assert!(matches!(e, HnsError::Rpc(_)));
        assert!(std::error::Error::source(&e).is_some());
        let w: HnsError = wire::WireError::Truncated.into();
        assert!(matches!(w, HnsError::Rpc(RpcError::Wire(_))));
        assert!(std::error::Error::source(&HnsError::BadName("x".into())).is_none());
    }
}
