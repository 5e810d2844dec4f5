//! Domain names: case-insensitive dotted label sequences.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{NsError, NsResult};

/// Maximum bytes in one label.
pub const MAX_LABEL: usize = 63;
/// Maximum total bytes in a name (labels plus separating dots).
pub const MAX_NAME: usize = 255;

/// A fully qualified domain name: one shared, canonical (lowercase,
/// dotted, no trailing dot) string; the root is the empty string.
/// Cloning bumps a reference count, and every relation is computed on
/// the text in place — names are hashed or compared on every lookup and
/// cloned into every message, so neither may allocate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DomainName {
    text: Arc<str>,
}

impl DomainName {
    /// The root (empty) name.
    pub fn root() -> Self {
        DomainName {
            text: Arc::from(""),
        }
    }

    /// Parses a dotted name. A single trailing dot (absolute form) is
    /// accepted and ignored; comparison is case-insensitive.
    pub fn parse(s: &str) -> NsResult<DomainName> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(DomainName::root());
        }
        let text = if check_labels(trimmed, trimmed.len())? {
            Arc::from(trimmed.to_ascii_lowercase())
        } else {
            Arc::from(trimmed)
        };
        Ok(DomainName { text })
    }

    /// The canonical dotted text (`.` for the root).
    pub fn as_str(&self) -> &str {
        if self.text.is_empty() {
            "."
        } else {
            &self.text
        }
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.text.split('.').filter(|l| !l.is_empty())
    }

    /// Number of labels.
    pub fn depth(&self) -> usize {
        if self.text.is_empty() {
            0
        } else {
            1 + self.text.bytes().filter(|&b| b == b'.').count()
        }
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.text.is_empty()
    }

    /// Returns true if `self` equals `zone` or lies beneath it
    /// (`fiji.cs.washington.edu` is within `cs.washington.edu`): a suffix
    /// test that must land on a label boundary.
    pub fn is_within(&self, zone: &DomainName) -> bool {
        match self.text.strip_suffix(&*zone.text) {
            Some(below) => zone.is_root() || below.is_empty() || below.ends_with('.'),
            None => false,
        }
    }

    /// The name with the leftmost label removed.
    pub fn parent(&self) -> Option<DomainName> {
        if self.text.is_empty() {
            return None;
        }
        let rest = self.text.split_once('.').map_or("", |(_, rest)| rest);
        Some(DomainName {
            text: Arc::from(rest),
        })
    }

    /// Prepends `labels` (one, or several dotted), producing a name
    /// below this one. This name is valid already, so only the new labels
    /// and the total length are checked, and the text is assembled on the
    /// stack: one allocation, the name's own.
    #[expect(
        clippy::expect_used,
        reason = "`check_labels` admits ASCII only and this name is valid already"
    )]
    pub fn child(&self, labels: &str) -> NsResult<DomainName> {
        let below = labels.len();
        let total = below + usize::from(!self.is_root()) * (1 + self.text.len());
        check_labels(labels, total)?;
        let mut text = [0u8; MAX_NAME];
        text[..below].copy_from_slice(labels.as_bytes());
        text[..below].make_ascii_lowercase();
        if !self.is_root() {
            text[below] = b'.';
            text[below + 1..total].copy_from_slice(self.text.as_bytes());
        }
        let text = std::str::from_utf8(&text[..total]).expect("checked labels are ASCII");
        Ok(DomainName {
            text: Arc::from(text),
        })
    }

    /// The canonical text, [`DomainName::as_str`], as the shared
    /// allocation itself: what the resolver's cache keys an entry on.
    pub(crate) fn into_text(self) -> Arc<str> {
        if self.is_root() {
            Arc::from(".")
        } else {
            self.text
        }
    }

    /// Serialized length in bytes (labels plus dots).
    pub fn wire_len(&self) -> usize {
        self.as_str().len()
    }
}

/// Checks the dotted, non-empty `labels` of a name `total` bytes long in
/// all; says whether any of them needs lowering.
fn check_labels(labels: &str, total: usize) -> NsResult<bool> {
    if total > MAX_NAME {
        return Err(NsError::BadName(format!("name too long ({total} bytes)")));
    }
    let mut needs_lowering = false;
    for label in labels.split('.') {
        if label.is_empty() {
            return Err(NsError::BadName(format!("empty label in `{labels}`")));
        }
        if label.len() > MAX_LABEL {
            return Err(NsError::BadName(format!("label `{label}` too long")));
        }
        for b in label.bytes() {
            if !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
                return Err(NsError::BadName(format!(
                    "bad character in label `{label}`"
                )));
            }
            needs_lowering |= b.is_ascii_uppercase();
        }
    }
    Ok(needs_lowering)
}

/// Label-wise order (compare the leftmost labels, then the next, a
/// shorter name first on a tie), computed in one pass over the bytes: at
/// the first differing byte a `.` — the end of a label — ranks below
/// every label byte. A plain byte compare would misplace `a-b.c` after
/// `a.c`, because `-` sorts below `.`. It is the order a zone transfer
/// ships its owners in; names of one zone share long prefixes and the
/// sort compares two of them at every step, so the shared prefix is
/// skipped eight bytes at a time.
impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.text.as_bytes(), other.text.as_bytes());
        let skip = 8 * a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .take_while(|(x, y)| x == y)
            .count();
        match a[skip..].iter().zip(&b[skip..]).find(|(x, y)| x != y) {
            None => a.len().cmp(&b.len()),
            Some((b'.', _)) => Ordering::Less,
            Some((_, b'.')) => Ordering::Greater,
            Some((x, y)) => x.cmp(y),
        }
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for DomainName {
    type Err = NsError;

    fn from_str(s: &str) -> NsResult<DomainName> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DomainName::parse("fiji.cs.washington.edu").expect("parse");
        assert_eq!(n.depth(), 4);
        assert_eq!(n.to_string(), "fiji.cs.washington.edu");
        assert_eq!(n.labels().next(), Some("fiji"));
    }

    #[test]
    fn case_insensitive_and_trailing_dot() {
        let a = DomainName::parse("Fiji.CS.Washington.EDU.").expect("parse");
        let b = DomainName::parse("fiji.cs.washington.edu").expect("parse");
        assert_eq!(a, b);
    }

    #[test]
    fn root_parses_from_empty_or_dot() {
        assert!(DomainName::parse("").expect("parse").is_root());
        assert!(DomainName::parse(".").expect("parse").is_root());
        assert_eq!(DomainName::root().to_string(), ".");
    }

    #[test]
    fn rejects_bad_names() {
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse(&"x".repeat(MAX_LABEL + 1)).is_err());
        assert!(DomainName::parse("bad name.com").is_err());
        assert!(DomainName::parse(&format!("{}.com", "a.".repeat(130))).is_err());
    }

    #[test]
    fn within_relation() {
        let host = DomainName::parse("fiji.cs.washington.edu").expect("parse");
        let zone = DomainName::parse("cs.washington.edu").expect("parse");
        let other = DomainName::parse("ee.washington.edu").expect("parse");
        assert!(host.is_within(&zone));
        assert!(host.is_within(&host));
        assert!(host.is_within(&DomainName::root()));
        assert!(!host.is_within(&other));
        assert!(!zone.is_within(&host));
    }

    #[test]
    fn parent_and_child() {
        let host = DomainName::parse("fiji.cs.washington.edu").expect("parse");
        let parent = host.parent().expect("parent");
        assert_eq!(parent.to_string(), "cs.washington.edu");
        assert_eq!(parent.child("fiji").expect("child"), host);
        assert!(DomainName::root().parent().is_none());
    }

    #[test]
    fn child_is_parse_of_the_joined_text() {
        let zone = DomainName::parse("cs.washington.edu").expect("parse");
        for (base, labels) in [
            (&zone, "Fiji"),
            (&zone, "www.Fiji"),
            (&DomainName::root(), "edu"),
        ] {
            let joined = format!("{labels}.{base}");
            let parsed = DomainName::parse(joined.trim_end_matches('.')).expect("parse");
            assert_eq!(base.child(labels).expect("child"), parsed);
        }
        for bad in ["", "a..b", "a.", ".a", "a b", &"x".repeat(MAX_LABEL + 1)] {
            assert!(zone.child(bad).is_err(), "`{bad}` accepted");
        }
        // The total is bounded, not just the new labels.
        let long = DomainName::parse(&format!("{}com", "a.".repeat(120))).expect("243 bytes");
        assert!(long.child("0123456789").is_ok(), "254 bytes");
        assert!(long.child("0123456789ab").is_err(), "256 bytes");
    }

    #[test]
    fn wire_len_counts_labels_and_dots() {
        let n = DomainName::parse("ab.cd").expect("parse");
        assert_eq!(n.wire_len(), 5);
        assert_eq!(DomainName::root().wire_len(), 1);
    }

    #[test]
    fn underscore_and_hyphen_allowed() {
        assert!(DomainName::parse("my-host.cs_dept.edu").is_ok());
    }

    #[test]
    fn ordering_is_stable_for_tree_keys() {
        let a = DomainName::parse("a.z").expect("parse");
        let b = DomainName::parse("b.z").expect("parse");
        assert!(a < b);
    }
}
