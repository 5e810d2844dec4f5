//! RPC errors.

use std::fmt;

use simnet::topology::HostId;
use wire::WireError;

/// Failures while making or serving a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No service is exported at the target host/port.
    NoSuchService {
        /// Target host.
        host: HostId,
        /// Target port.
        port: u16,
    },
    /// The binding protocol found no port for the program.
    NoSuchProgram {
        /// Target host.
        host: HostId,
        /// Requested program number.
        program: u32,
    },
    /// The service does not implement the procedure.
    BadProcedure(u32),
    /// Marshalling failed.
    Wire(WireError),
    /// The service reported an application-level failure.
    Service(String),
    /// A datagram suite exhausted its retransmissions.
    Timeout {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The named entity was not found by a name service.
    NotFound(String),
    /// Authentication was rejected (Clearinghouse-style services).
    AuthFailed(String),
    /// The target host is crashed or partitioned away; the control
    /// protocol gave up after its attempt budget with backoff.
    HostUnreachable {
        /// The unreachable host.
        host: HostId,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl RpcError {
    /// True for availability failures — the target never answered
    /// (unreachable host or exhausted retransmissions) — as opposed to
    /// definitive answers like [`RpcError::NotFound`]. Serve-stale and
    /// NSM failover trigger only on these.
    pub fn is_unreachable(&self) -> bool {
        matches!(
            self,
            RpcError::HostUnreachable { .. } | RpcError::Timeout { .. }
        )
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::NoSuchService { host, port } => {
                write!(f, "no service at {host}:{port}")
            }
            RpcError::NoSuchProgram { host, program } => {
                write!(f, "no program {program} registered on {host}")
            }
            RpcError::BadProcedure(p) => write!(f, "unknown procedure {p}"),
            RpcError::Wire(e) => write!(f, "marshalling error: {e}"),
            RpcError::Service(msg) => write!(f, "service error: {msg}"),
            RpcError::Timeout { attempts } => {
                write!(f, "timed out after {attempts} attempts")
            }
            RpcError::NotFound(name) => write!(f, "not found: {name}"),
            RpcError::AuthFailed(who) => write!(f, "authentication failed for {who}"),
            RpcError::HostUnreachable { host, attempts } => {
                write!(f, "host {host} unreachable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

/// A value its type refused is the service's failure; any other, marshalling's.
impl From<WireError> for RpcError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Refused(why) => RpcError::Service(why),
            other => RpcError::Wire(other),
        }
    }
}

/// Result alias for RPC operations.
pub type RpcResult<T> = Result<T, RpcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<(RpcError, &str)> = vec![
            (
                RpcError::NoSuchService {
                    host: HostId(1),
                    port: 80,
                },
                "host1:80",
            ),
            (
                RpcError::NoSuchProgram {
                    host: HostId(2),
                    program: 9,
                },
                "program 9",
            ),
            (RpcError::BadProcedure(3), "procedure 3"),
            (RpcError::Wire(WireError::Truncated), "truncated"),
            (RpcError::Service("boom".into()), "boom"),
            (RpcError::Timeout { attempts: 4 }, "4 attempts"),
            (RpcError::NotFound("fiji".into()), "fiji"),
            (RpcError::AuthFailed("guest".into()), "guest"),
            (
                RpcError::HostUnreachable {
                    host: HostId(5),
                    attempts: 3,
                },
                "unreachable after 3 attempts",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn unreachable_classification() {
        assert!(RpcError::HostUnreachable {
            host: HostId(1),
            attempts: 3
        }
        .is_unreachable());
        assert!(RpcError::Timeout { attempts: 4 }.is_unreachable());
        assert!(!RpcError::NotFound("x".into()).is_unreachable());
        assert!(!RpcError::Service("x".into()).is_unreachable());
    }

    #[test]
    fn wire_error_converts_and_sources() {
        let err: RpcError = WireError::BadUtf8.into();
        assert_eq!(err, RpcError::Wire(WireError::BadUtf8));
        assert!(std::error::Error::source(&err).is_some());
        assert!(std::error::Error::source(&RpcError::BadProcedure(1)).is_none());
        let refused: RpcError = WireError::Refused("bad name".into()).into();
        assert_eq!(refused, RpcError::Service("bad name".into()));
    }
}
