//! Errors for the BIND-like name service.

use std::fmt;

/// Failures in the name service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    /// A name failed syntactic validation.
    BadName(String),
    /// The name does not exist (NXDOMAIN).
    NameError(String),
    /// The name exists but carries no records of the requested type.
    NoData(String),
    /// This server is not authoritative for the name.
    NotAuthoritative(String),
    /// Dynamic updates are not enabled on this server.
    UpdatesDisabled,
    /// A record was malformed (e.g. oversized rdata).
    BadRecord(String),
    /// The requested zone does not exist on this server.
    NoSuchZone(String),
    /// An update would create a conflicting record set.
    Conflict(String),
}

impl fmt::Display for NsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsError::BadName(msg) => write!(f, "bad name: {msg}"),
            NsError::NameError(name) => write!(f, "no such name: {name}"),
            NsError::NoData(name) => write!(f, "no data of requested type at {name}"),
            NsError::NotAuthoritative(name) => write!(f, "not authoritative for {name}"),
            NsError::UpdatesDisabled => write!(f, "dynamic updates are not enabled"),
            NsError::BadRecord(msg) => write!(f, "bad record: {msg}"),
            NsError::NoSuchZone(origin) => write!(f, "no such zone: {origin}"),
            NsError::Conflict(msg) => write!(f, "update conflict: {msg}"),
        }
    }
}

impl std::error::Error for NsError {}

/// Result alias for name-service operations.
pub type NsResult<T> = Result<T, NsError>;

/// Response codes carried in wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// Success.
    Ok = 0,
    /// Name does not exist.
    NameError = 1,
    /// Name exists but has no data of the requested type.
    NoData = 2,
    /// Server is not authoritative.
    NotAuth = 3,
    /// Update refused.
    Refused = 4,
    /// Malformed request.
    FormErr = 5,
    /// Not an error: the answer is a referral to a delegated zone (the
    /// reply carries the delegation's NS records plus glue addresses).
    Referral = 6,
}

impl Rcode {
    /// Decodes a wire code.
    pub fn from_u32(v: u32) -> Option<Rcode> {
        match v {
            0 => Some(Rcode::Ok),
            1 => Some(Rcode::NameError),
            2 => Some(Rcode::NoData),
            3 => Some(Rcode::NotAuth),
            4 => Some(Rcode::Refused),
            5 => Some(Rcode::FormErr),
            6 => Some(Rcode::Referral),
            _ => None,
        }
    }

    /// What this outcome means to whoever asked about `name`: nothing for
    /// [`Rcode::Ok`], else the lookup error it stands for.
    pub fn into_result(self, name: &crate::name::DomainName) -> NsResult<()> {
        Err(match self {
            Rcode::Ok => return Ok(()),
            Rcode::NameError => NsError::NameError(name.to_string()),
            Rcode::NoData => NsError::NoData(name.to_string()),
            // Callers that do not chase referrals treat one as "not here".
            Rcode::NotAuth | Rcode::Referral => NsError::NotAuthoritative(name.to_string()),
            Rcode::Refused => NsError::UpdatesDisabled,
            Rcode::FormErr => NsError::BadRecord("server rejected request".into()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        for (e, needle) in [
            (NsError::BadName("x".into()), "bad name"),
            (NsError::NameError("y".into()), "no such name"),
            (NsError::NoData("z".into()), "no data"),
            (NsError::NotAuthoritative("w".into()), "not authoritative"),
            (NsError::UpdatesDisabled, "not enabled"),
            (NsError::BadRecord("r".into()), "bad record"),
            (NsError::NoSuchZone("o".into()), "no such zone"),
            (NsError::Conflict("c".into()), "conflict"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn rcode_roundtrip() {
        for code in [
            Rcode::Ok,
            Rcode::NameError,
            Rcode::NoData,
            Rcode::NotAuth,
            Rcode::Refused,
            Rcode::FormErr,
            Rcode::Referral,
        ] {
            assert_eq!(Rcode::from_u32(code as u32), Some(code));
        }
        assert_eq!(Rcode::from_u32(99), None);
    }
}
