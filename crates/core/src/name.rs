//! HNS names: context plus individual name.
//!
//! "HNS names contain two parts, a context and an individual name. Roughly,
//! the context identifies the local name service in which the data can be
//! found while the individual name determines the name of the object in
//! that local service."
//!
//! The mapping from local names to individual names must be a *function*
//! (produce a unique result); that restriction is what "guarantee\[s\] that
//! no naming conflicts can ever be created in the HNS name space when
//! combining previously separate systems". [`NameMapping`] captures the
//! invertible mappings this implementation supports.

use std::fmt;
use std::sync::Arc;

use simnet::ttl::arc_share;

use crate::cache::HeapBytes;
use crate::error::{HnsError, HnsResult};

/// A context identifier (case-insensitive), its text shared by every
/// copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Context(Arc<str>);

impl HeapBytes for Context {
    fn heap_bytes(&self) -> usize {
        arc_share(&self.0)
    }
}

impl Context {
    /// Creates a context (normalized to lowercase).
    ///
    /// Context names may not contain `!`, which separates context from
    /// individual name in the printed form.
    pub fn new(name: impl AsRef<str>) -> HnsResult<Self> {
        let name = name.as_ref();
        if name.is_empty() {
            return Err(HnsError::BadName("empty context".into()));
        }
        if name.contains('!') {
            return Err(HnsError::BadName(format!("`!` in context `{name}`")));
        }
        // Lowered only where it must be, so a lower-case name is copied
        // once, straight into the shared string.
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Ok(Context(name.to_ascii_lowercase().into()))
        } else {
            Ok(Context(name.into()))
        }
    }

    /// The normalized name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A complete HNS name. Both parts are shared, so a copy of the name —
/// into a request, a span, a reply — copies no text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HnsName {
    /// The context (selects the local name service).
    pub context: Context,
    /// The individual name within that context.
    pub individual: Arc<str>,
}

impl HnsName {
    /// Builds a name.
    pub fn new(context: Context, individual: impl Into<Arc<str>>) -> HnsResult<Self> {
        let individual = individual.into();
        if individual.is_empty() {
            return Err(HnsError::BadName("empty individual name".into()));
        }
        Ok(HnsName {
            context,
            individual,
        })
    }

    /// Parses the printed form `context!individual`.
    pub fn parse(s: &str) -> HnsResult<Self> {
        let (ctx, rest) = s
            .split_once('!')
            .ok_or_else(|| HnsError::BadName(format!("`{s}` lacks `!` separator")))?;
        HnsName::new(Context::new(ctx)?, rest)
    }
}

impl fmt::Display for HnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}!{}", self.context, self.individual)
    }
}

/// An invertible mapping between local names and individual names.
///
/// "In the simplest case [the individual name] is identical to the name of
/// the entity in its local name service" — that is [`NameMapping::Identity`].
/// The other variants support local services whose raw names would collide
/// or need qualification, while remaining functions (unique results) in
/// both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameMapping {
    /// individual = local.
    Identity,
    /// individual = `prefix` + local.
    Prefixed {
        /// The prefix prepended to local names.
        prefix: String,
    },
    /// individual = local + `suffix`.
    Suffixed {
        /// The suffix appended to local names.
        suffix: String,
    },
}

impl HeapBytes for NameMapping {
    fn heap_bytes(&self) -> usize {
        match self {
            NameMapping::Identity => 0,
            NameMapping::Prefixed { prefix: piece } | NameMapping::Suffixed { suffix: piece } => {
                piece.capacity()
            }
        }
    }
}

impl NameMapping {
    /// Maps a local name to its individual name.
    pub fn to_individual(&self, local: &str) -> String {
        match self {
            NameMapping::Identity => local.to_string(),
            NameMapping::Prefixed { prefix } => format!("{prefix}{local}"),
            NameMapping::Suffixed { suffix } => format!("{local}{suffix}"),
        }
    }

    /// Maps an individual name back to the local name, the part of it
    /// that the mapping did not add.
    pub fn to_local<'a>(&self, individual: &'a str) -> HnsResult<&'a str> {
        match self {
            NameMapping::Identity => Ok(individual),
            NameMapping::Prefixed { prefix } => {
                individual.strip_prefix(prefix.as_str()).ok_or_else(|| {
                    HnsError::BadName(format!("`{individual}` lacks prefix `{prefix}`"))
                })
            }
            NameMapping::Suffixed { suffix } => {
                individual.strip_suffix(suffix.as_str()).ok_or_else(|| {
                    HnsError::BadName(format!("`{individual}` lacks suffix `{suffix}`"))
                })
            }
        }
    }

    /// Serializes to a compact string for the meta store.
    pub fn encode(&self) -> String {
        match self {
            NameMapping::Identity => "id".to_string(),
            NameMapping::Prefixed { prefix } => format!("pre:{prefix}"),
            NameMapping::Suffixed { suffix } => format!("suf:{suffix}"),
        }
    }

    /// Parses the meta-store form.
    pub fn decode(s: &str) -> HnsResult<NameMapping> {
        if s == "id" {
            Ok(NameMapping::Identity)
        } else if let Some(prefix) = s.strip_prefix("pre:") {
            Ok(NameMapping::Prefixed {
                prefix: prefix.to_string(),
            })
        } else if let Some(suffix) = s.strip_prefix("suf:") {
            Ok(NameMapping::Suffixed {
                suffix: suffix.to_string(),
            })
        } else {
            Err(HnsError::BadMetaRecord(format!("bad mapping `{s}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_normalizes_and_validates() {
        let c = Context::new("HRPCBinding-BIND").expect("ok");
        assert_eq!(c.as_str(), "hrpcbinding-bind");
        assert!(Context::new("").is_err());
        assert!(Context::new("a!b").is_err());
    }

    #[test]
    fn hns_name_parse_and_display() {
        let n = HnsName::parse("hrpcbinding-bind!fiji.cs.washington.edu").expect("parse");
        assert_eq!(n.context.as_str(), "hrpcbinding-bind");
        assert_eq!(&*n.individual, "fiji.cs.washington.edu");
        assert_eq!(n.to_string(), "hrpcbinding-bind!fiji.cs.washington.edu");
        assert!(HnsName::parse("no-separator").is_err());
        let ctx = Context::new("c").expect("ok");
        assert!(HnsName::new(ctx, "").is_err());
    }

    #[test]
    fn identity_mapping_roundtrips() {
        let m = NameMapping::Identity;
        assert_eq!(m.to_individual("fiji"), "fiji");
        assert_eq!(m.to_local("fiji").expect("ok"), "fiji");
    }

    #[test]
    fn prefixed_mapping_roundtrips_and_rejects() {
        let m = NameMapping::Prefixed {
            prefix: "xerox-".into(),
        };
        assert_eq!(m.to_individual("printer"), "xerox-printer");
        assert_eq!(m.to_local("xerox-printer").expect("ok"), "printer");
        assert!(m.to_local("printer").is_err());
    }

    #[test]
    fn suffixed_mapping_roundtrips_and_rejects() {
        let m = NameMapping::Suffixed {
            suffix: ".uw".into(),
        };
        assert_eq!(m.to_individual("fiji"), "fiji.uw");
        assert_eq!(m.to_local("fiji.uw").expect("ok"), "fiji");
        assert!(m.to_local("fiji").is_err());
    }

    #[test]
    fn mapping_encode_decode() {
        for m in [
            NameMapping::Identity,
            NameMapping::Prefixed {
                prefix: "p-".into(),
            },
            NameMapping::Suffixed {
                suffix: "-s".into(),
            },
        ] {
            assert_eq!(NameMapping::decode(&m.encode()).expect("decode"), m);
        }
        assert!(NameMapping::decode("garbage").is_err());
    }

    #[test]
    fn mapping_is_a_function_no_conflicts() {
        // Distinct local names map to distinct individual names, the
        // paper's conflict-freedom requirement.
        let m = NameMapping::Prefixed {
            prefix: "x-".into(),
        };
        let locals = ["a", "b", "ab", "x-a"];
        let mut individuals: Vec<String> = locals.iter().map(|l| m.to_individual(l)).collect();
        individuals.sort();
        individuals.dedup();
        assert_eq!(individuals.len(), locals.len());
    }
}
