//! Clearinghouse three-part names.
//!
//! Clearinghouse (Oppen & Dalal 1983) names every object with a three-part
//! name `object:domain:organization`, e.g. `fiji:cs:uw`. Comparison is
//! case-insensitive.

use std::fmt;

use crate::error::{ChError, ChResult};

/// A three-part Clearinghouse name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreePartName {
    object: String,
    domain: String,
    organization: String,
}

impl ThreePartName {
    /// Builds a name from its three parts.
    pub fn new(object: &str, domain: &str, organization: &str) -> ChResult<Self> {
        for (part, label) in [
            (object, "object"),
            (domain, "domain"),
            (organization, "organization"),
        ] {
            if part.is_empty() {
                return Err(ChError::BadName(format!("empty {label} part")));
            }
            if part.contains(':') {
                return Err(ChError::BadName(format!("`:` inside {label} part")));
            }
            if part.len() > 64 {
                return Err(ChError::BadName(format!("{label} part too long")));
            }
        }
        Ok(ThreePartName {
            object: object.to_ascii_lowercase(),
            domain: domain.to_ascii_lowercase(),
            organization: organization.to_ascii_lowercase(),
        })
    }

    /// Parses `object:domain:organization`.
    pub fn parse(s: &str) -> ChResult<Self> {
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            [object, domain, organization] => ThreePartName::new(object, domain, organization),
            _ => Err(ChError::BadName(format!(
                "`{s}` is not object:domain:organization"
            ))),
        }
    }

    /// The object part.
    pub fn object(&self) -> &str {
        &self.object
    }

    /// The domain part.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The organization part.
    pub fn organization(&self) -> &str {
        &self.organization
    }

    /// The `(domain, organization)` pair identifying the database that
    /// holds this name.
    pub fn domain_key(&self) -> (String, String) {
        (self.domain.clone(), self.organization.clone())
    }
}

impl fmt::Display for ThreePartName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.object, self.domain, self.organization)
    }
}

impl std::str::FromStr for ThreePartName {
    type Err = ChError;

    fn from_str(s: &str) -> ChResult<Self> {
        ThreePartName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = ThreePartName::parse("fiji:cs:uw").expect("parse");
        assert_eq!(n.object(), "fiji");
        assert_eq!(n.domain(), "cs");
        assert_eq!(n.organization(), "uw");
        assert_eq!(n.to_string(), "fiji:cs:uw");
    }

    #[test]
    fn case_insensitive() {
        let a = ThreePartName::parse("Fiji:CS:UW").expect("parse");
        let b = ThreePartName::parse("fiji:cs:uw").expect("parse");
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed() {
        assert!(ThreePartName::parse("justone").is_err());
        assert!(ThreePartName::parse("a:b").is_err());
        assert!(ThreePartName::parse("a:b:c:d").is_err());
        assert!(ThreePartName::parse(":b:c").is_err());
        assert!(ThreePartName::new(&"x".repeat(65), "d", "o").is_err());
        assert!(ThreePartName::new("a:b", "d", "o").is_err());
    }

    #[test]
    fn domain_key_groups_names() {
        let a = ThreePartName::parse("printer:cs:uw").expect("parse");
        let b = ThreePartName::parse("fiji:cs:uw").expect("parse");
        let c = ThreePartName::parse("fiji:ee:uw").expect("parse");
        assert_eq!(a.domain_key(), b.domain_key());
        assert_ne!(a.domain_key(), c.domain_key());
    }
}
