//! Clearinghouse three-part names.
//!
//! Clearinghouse (Oppen & Dalal 1983) names every object with a three-part
//! name `object:domain:organization`, e.g. `fiji:cs:uw`. Comparison is
//! case-insensitive.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use wire::message::{Field, Shape};
use wire::{Value, WireError, WireResult};

use crate::error::{ChError, ChResult};

/// Longest part, in bytes.
const MAX_PART: usize = 64;

/// A three-part Clearinghouse name: one shared, canonical (lowercase)
/// `object:domain:organization` string, its parts read off it in place.
/// Cloning bumps a reference count, so a request owns its name (and its
/// caller's credentials theirs) without copying a byte.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ThreePartName {
    text: Arc<str>,
    /// Where the domain part starts (one past the first `:`).
    domain_at: u8,
    /// Where the organization part starts (one past the second `:`).
    organization_at: u8,
}

impl ThreePartName {
    /// Builds a name from its three parts.
    #[expect(
        clippy::expect_used,
        reason = "the parts are UTF-8, and lowering ASCII bytes keeps them so"
    )]
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
            if part.len() > MAX_PART {
                return Err(ChError::BadName(format!("{label} part too long")));
            }
        }
        // Assembled and lowered on the stack: one allocation, the name's.
        let mut text = [0u8; 3 * MAX_PART + 2];
        let mut len = 0;
        for (i, part) in [object, domain, organization].into_iter().enumerate() {
            if i > 0 {
                text[len] = b':';
                len += 1;
            }
            text[len..len + part.len()].copy_from_slice(part.as_bytes());
            len += part.len();
        }
        text[..len].make_ascii_lowercase();
        let text = std::str::from_utf8(&text[..len]).expect("lowered UTF-8 parts");
        Ok(ThreePartName {
            text: Arc::from(text),
            domain_at: (object.len() + 1) as u8,
            organization_at: (object.len() + domain.len() + 2) as u8,
        })
    }

    /// Parses `object:domain:organization`.
    pub fn parse(s: &str) -> ChResult<Self> {
        let mut parts = s.split(':');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(object), Some(domain), Some(organization), None) => {
                ThreePartName::new(object, domain, organization)
            }
            _ => Err(ChError::BadName(format!(
                "`{s}` is not object:domain:organization"
            ))),
        }
    }

    /// The name `text` spells, sharing `text` itself when it is already
    /// canonical — three parts, none empty or longer than its limit, no
    /// upper case — so that a caller holding the text in an `Arc` pays
    /// nothing. Any other text is [`ThreePartName::parse`]d: one
    /// allocation, lowered, or the refusal `parse` gives.
    pub fn share(text: &Arc<str>) -> ChResult<Self> {
        match canonical_cuts(text) {
            Some((domain_at, organization_at)) => Ok(ThreePartName {
                text: Arc::clone(text),
                domain_at,
                organization_at,
            }),
            None => ThreePartName::parse(text),
        }
    }

    /// The object part.
    pub fn object(&self) -> &str {
        &self.text[..usize::from(self.domain_at) - 1]
    }

    /// The domain part.
    pub fn domain(&self) -> &str {
        &self.text[usize::from(self.domain_at)..usize::from(self.organization_at) - 1]
    }

    /// The organization part.
    pub fn organization(&self) -> &str {
        &self.text[usize::from(self.organization_at)..]
    }

    /// The canonical `object:domain:organization` text.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

/// Where the domain and organization parts of `text` start, if `text`
/// is a name exactly as [`ThreePartName::new`] would store it: one pass
/// over its bytes finds both `:` and any upper case.
fn canonical_cuts(text: &str) -> Option<(u8, u8)> {
    let bytes = text.as_bytes();
    if bytes.len() > 3 * MAX_PART + 2 {
        return None;
    }
    let mut cuts = [0; 2];
    let mut found = 0;
    for (at, &b) in bytes.iter().enumerate() {
        if b == b':' {
            *cuts.get_mut(found)? = at;
            found += 1;
        } else if b.is_ascii_uppercase() {
            return None;
        }
    }
    let [first, second] = cuts;
    let fits = |len: usize| (1..=MAX_PART).contains(&len);
    (found == 2 && fits(first) && fits(second - first - 1) && fits(bytes.len() - second - 1))
        .then(|| ((first + 1) as u8, (second + 1) as u8))
}

/// Part by part — object, then domain, then organization — so that a
/// part's end ranks below any byte that could continue it.
impl Ord for ThreePartName {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self, other);
        (a.object(), a.domain(), a.organization()).cmp(&(b.object(), b.domain(), b.organization()))
    }
}

impl PartialOrd for ThreePartName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for ThreePartName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreePartName")
            .field("object", &self.object())
            .field("domain", &self.domain())
            .field("organization", &self.organization())
            .finish()
    }
}

impl fmt::Display for ThreePartName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl std::str::FromStr for ThreePartName {
    type Err = ChError;

    fn from_str(s: &str) -> ChResult<Self> {
        ThreePartName::parse(s)
    }
}

/// Crosses the fabric as its text; text that is not three parts is
/// refused.
impl Field for ThreePartName {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.str(self.as_str())
    }

    fn read(v: &Value) -> WireResult<ThreePartName> {
        ThreePartName::parse(v.as_str()?).map_err(|e| WireError::Refused(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// A clone shares the text; parts, printed form and `Debug` read as
    /// they did when the name was three strings.
    #[test]
    fn one_shared_text_read_in_parts() {
        let n = ThreePartName::new("Printer-2", "CS", "UW").expect("name");
        assert_eq!(n.as_str(), "printer-2:cs:uw");
        assert_eq!(
            (n.object(), n.domain(), n.organization()),
            ("printer-2", "cs", "uw")
        );
        let copy = n.clone();
        assert!(std::ptr::eq(copy.as_str(), n.as_str()));
        assert_eq!(
            format!("{n:?}"),
            r#"ThreePartName { object: "printer-2", domain: "cs", organization: "uw" }"#
        );
        let longest = "x".repeat(MAX_PART);
        let long = ThreePartName::new(&longest, &longest, &longest).expect("longest parts");
        assert_eq!(long.organization(), longest);
    }

    /// Part by part, as the three strings compared: `a` before `a-b`,
    /// though `-` sorts below `:`.
    #[test]
    fn names_order_by_their_parts() {
        let mut names: Vec<ThreePartName> =
            ["a-b:cs:uw", "a:cs:uw", "a:cs-x:uw", "a:cs:uw-x", "b:a:a"]
                .iter()
                .map(|s| ThreePartName::parse(s).expect("name"))
                .collect();
        names.sort();
        let printed: Vec<String> = names.iter().map(ToString::to_string).collect();
        assert_eq!(
            printed,
            ["a:cs:uw", "a:cs:uw-x", "a:cs-x:uw", "a-b:cs:uw", "b:a:a"]
        );
    }

    /// [`canonical_cuts`] as it was defined by splitting at `:`, after a
    /// scan for upper case.
    fn cuts_by_split(text: &str) -> Option<(u8, u8)> {
        if text.bytes().any(|b| b.is_ascii_uppercase()) {
            return None;
        }
        let mut parts = text.split(':');
        let (object, domain, organization) = (parts.next()?, parts.next()?, parts.next()?);
        let fits = |part: &str| !part.is_empty() && part.len() <= MAX_PART;
        if parts.next().is_some() || ![object, domain, organization].into_iter().all(fits) {
            return None;
        }
        Some((
            (object.len() + 1) as u8,
            (object.len() + domain.len() + 2) as u8,
        ))
    }

    /// Text of three parts half the time, else of one to five: parts
    /// empty, of 63–65 bytes, with upper case, non-ASCII, or of any
    /// characters at all.
    fn arb_text() -> impl Strategy<Value = String> {
        let part = || {
            prop_oneof![
                "[a-z0-9._-]{0,8}",
                "[A-Za-z0-9]{0,8}",
                "[a-zé☃ß]{0,6}",
                (63usize..66).prop_map(|n| "p".repeat(n)),
                "(?s).{0,8}",
            ]
        };
        let three = (part(), part(), part()).prop_map(|(o, d, g)| format!("{o}:{d}:{g}"));
        let any = proptest::collection::vec(part(), 1..6).prop_map(|parts| parts.join(":"));
        prop_oneof![three, any]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn one_pass_cuts_are_the_split_cuts(text in arb_text()) {
            prop_assert_eq!(canonical_cuts(&text), cuts_by_split(&text));
        }
    }
}
