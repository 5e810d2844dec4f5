//! Domain names: case-insensitive dotted label sequences.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, LazyLock};

use wire::message::{Field, Shape};
use wire::{Value, WireError, WireResult};

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
    /// The root (empty) name: one shared text, made once.
    pub fn root() -> Self {
        static ROOT: LazyLock<DomainName> = LazyLock::new(|| DomainName {
            text: Arc::from(""),
        });
        ROOT.clone()
    }

    /// Parses a dotted name. A single trailing dot (absolute form) is
    /// accepted and ignored; comparison is case-insensitive.
    pub fn parse(s: &str) -> NsResult<DomainName> {
        DomainName::canonical(s).map(|text| DomainName::of_canonical(&text))
    }

    /// The text [`DomainName::parse`] gives `s` as its
    /// [`DomainName::as_str`], or the error it refuses `s` with: checked,
    /// one trailing dot dropped, lowered — borrowed from `s` unless a
    /// label needed lowering, so a name already canonical is read where
    /// it lies.
    pub fn canonical(s: &str) -> NsResult<Cow<'_, str>> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(Cow::Borrowed("."));
        }
        Ok(match check_labels(trimmed, trimmed.len())? {
            true => Cow::Owned(trimmed.to_ascii_lowercase()),
            false => Cow::Borrowed(trimmed),
        })
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
        self.below(zone).is_some()
    }

    /// This name's text below `origin`, what a zone keeps as its owner
    /// name: `n17` for `n17.cell0.hns` below `cell0.hns`, empty for
    /// `origin` itself, all of it below the root. `None` if the name is
    /// not within `origin`.
    pub(crate) fn below(&self, origin: &DomainName) -> Option<&str> {
        let below = self.text.strip_suffix(&*origin.text)?;
        if origin.is_root() || below.is_empty() {
            Some(below)
        } else {
            below.strip_suffix('.')
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
    /// and the total length are checked.
    pub fn child(&self, labels: &str) -> NsResult<DomainName> {
        self.child_of(&[labels])
    }

    /// [`DomainName::child`] of `pieces` joined, without joining them:
    /// each byte is copied, lowered and checked in one pass, into the
    /// name's one allocation. Labels may span pieces and a piece may hold
    /// several.
    #[expect(
        clippy::expect_used,
        reason = "checked labels are ASCII and this name is valid already"
    )]
    pub fn child_of(&self, pieces: &[&str]) -> NsResult<DomainName> {
        let below = pieces.iter().map(|piece| piece.len()).sum();
        let total = self.joined_len(below);
        check_total(total)?;
        let mut text = [0u8; MAX_NAME];
        // Per label, where it starts and its bytes' classes ANDed, as in
        // `check_labels`; a label is judged at the dot or end closing it.
        let (mut at, mut start, mut all, mut fine) = (0, 0, LABEL, true);
        for piece in pieces {
            for &b in piece.as_bytes() {
                let class = CLASSES[usize::from(b)];
                text[at] = b | (class & UPPER) << 4;
                if class == DOT {
                    fine &= all & LABEL != 0 && (1..=MAX_LABEL).contains(&(at - start));
                    (start, all) = (at + 1, LABEL);
                } else {
                    all &= class;
                }
                at += 1;
            }
        }
        fine &= all & LABEL != 0 && (1..=MAX_LABEL).contains(&(at - start));
        if !fine {
            // The refusal in `check_labels`' words, which name the label.
            check_labels(&pieces.concat(), total)?;
        }
        if !self.is_root() {
            text[below] = b'.';
            text[below + 1..total].copy_from_slice(self.text.as_bytes());
        }
        let text = std::str::from_utf8(&text[..total]).expect("checked labels are ASCII");
        Ok(DomainName {
            text: Arc::from(text),
        })
    }

    /// `labels` (empty for this name itself) checked as
    /// [`DomainName::child`] checks them, and lowered into `lowered` if
    /// any needs it: the text [`DomainName::below`] gives of the name
    /// they make below this one, with the error `child` gives for them.
    #[expect(
        clippy::expect_used,
        reason = "checked labels are ASCII and fit a name"
    )]
    pub(crate) fn checked_below<'a>(
        &self,
        labels: &'a str,
        lowered: &'a mut [u8; MAX_NAME],
    ) -> NsResult<&'a str> {
        if labels.is_empty() || !check_labels(labels, self.joined_len(labels.len()))? {
            return Ok(labels);
        }
        let lowered = &mut lowered[..labels.len()];
        lowered.copy_from_slice(labels.as_bytes());
        lowered.make_ascii_lowercase();
        Ok(std::str::from_utf8(lowered).expect("checked labels are ASCII"))
    }

    /// Length of the text of `below` bytes of labels prepended to this
    /// name.
    fn joined_len(&self, below: usize) -> usize {
        below + usize::from(!self.is_root()) * (1 + self.text.len())
    }

    /// The non-empty `labels`, lowered, a dot, and this name's text,
    /// assembled on the stack: one allocation, the name's own. The
    /// labels are not checked again: a zone kept them from a checked
    /// name below its origin.
    #[expect(
        clippy::expect_used,
        reason = "checked labels are ASCII and this name is valid already"
    )]
    pub(crate) fn prefixed_unchecked(&self, labels: &str) -> DomainName {
        let (below, total) = (labels.len(), self.joined_len(labels.len()));
        let mut text = [0u8; MAX_NAME];
        text[..below].copy_from_slice(labels.as_bytes());
        text[..below].make_ascii_lowercase();
        if !self.is_root() {
            text[below] = b'.';
            text[below + 1..total].copy_from_slice(self.text.as_bytes());
        }
        let text = std::str::from_utf8(&text[..total]).expect("checked labels are ASCII");
        DomainName {
            text: Arc::from(text),
        }
    }

    /// The canonical text as stored, the root's empty: what a zone strips
    /// its origin from to keep an owner name.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    /// The name whose [`DomainName::text`] is `text`, which is not
    /// checked again: how a zone hands back a suffix of a name it was
    /// asked about. One allocation, the name's own.
    pub(crate) fn from_text_unchecked(text: &str) -> DomainName {
        DomainName {
            text: Arc::from(text),
        }
    }

    /// The name whose [`DomainName::as_str`] is `text`, which
    /// [`DomainName::canonical`] gave and is not checked again: the root
    /// shared, any other name its one allocation.
    pub(crate) fn of_canonical(text: &str) -> DomainName {
        match text {
            "." => DomainName::root(),
            text => DomainName::from_text_unchecked(text),
        }
    }

    /// This name's share of its text's allocation, which every clone of
    /// it holds: what a structure keeping the name keeps resident.
    pub(crate) fn resident_share(&self) -> usize {
        simnet::ttl::arc_share(&self.text)
    }

    /// Serialized length in bytes (labels plus dots).
    pub fn wire_len(&self) -> usize {
        self.as_str().len()
    }
}

/// A byte a label may hold, in [`CLASSES`].
const LABEL: u8 = 1;
/// A label byte that needs lowering.
const UPPER: u8 = 2;
/// The separator.
const DOT: u8 = 4;

/// What each byte of a name's text is: [`LABEL`] for a label byte (with
/// [`UPPER`] too when it needs lowering), [`DOT`] for the separator, 0
/// for anything else.
const CLASSES: [u8; 256] = {
    let mut classes = [0; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        classes[b] = match c {
            b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' => LABEL,
            b'A'..=b'Z' => LABEL | UPPER,
            b'.' => DOT,
            _ => 0,
        };
        b += 1;
    }
    classes
};

/// Checks the dotted, non-empty `labels` of a name `total` bytes long in
/// all; says whether any of them needs lowering. One pass over the
/// bytes: a label is judged at the dot or end that closes it — empty,
/// then too long, then holding a byte no label may — so the first bad
/// label is the one reported.
fn check_labels(labels: &str, total: usize) -> NsResult<bool> {
    check_total(total)?;
    let bytes = labels.as_bytes();
    // Per label, the classes of its bytes ANDed (LABEL is gone once one
    // byte is no label byte) and, over the whole text, ORed.
    let (mut start, mut all, mut any) = (0, LABEL, 0);
    for at in 0..=bytes.len() {
        let class = bytes.get(at).map_or(DOT, |&b| CLASSES[usize::from(b)]);
        if class != DOT {
            (all, any) = (all & class, any | class);
            continue;
        }
        let label = &labels[start..at];
        if label.is_empty() {
            return Err(NsError::BadName(format!("empty label in `{labels}`")));
        }
        if label.len() > MAX_LABEL {
            return Err(NsError::BadName(format!("label `{label}` too long")));
        }
        if all & LABEL == 0 {
            return Err(NsError::BadName(format!(
                "bad character in label `{label}`"
            )));
        }
        (start, all) = (at + 1, LABEL);
    }
    Ok(any & UPPER != 0)
}

/// Refuses a name of `total` bytes past [`MAX_NAME`].
fn check_total(total: usize) -> NsResult<()> {
    match total > MAX_NAME {
        true => Err(NsError::BadName(format!("name too long ({total} bytes)"))),
        false => Ok(()),
    }
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

/// Crosses the fabric as its text; text that is no name is refused.
impl Field for DomainName {
    fn shape<S: Shape>(&self, s: &S) -> S::Out {
        s.str(self.as_str())
    }

    fn read(v: &Value) -> WireResult<DomainName> {
        DomainName::parse(v.as_str()?).map_err(|e| WireError::Refused(e.to_string()))
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

    /// `below` is the text a zone keeps; `checked_below` is `child` with
    /// that text for its answer: the same text, lowered, or the same
    /// error.
    #[test]
    fn checked_below_is_child_stripped() {
        let zone = DomainName::parse("cs.washington.edu").expect("parse");
        let host = zone.child("fiji").expect("child");
        assert_eq!(host.below(&zone), Some("fiji"));
        assert_eq!(zone.below(&zone), Some(""));
        assert_eq!(host.below(&DomainName::root()), Some(host.text()));
        let other = DomainName::parse("xcs.washington.edu").expect("parse");
        assert_eq!(other.below(&zone), None);
        let long = vec!["x".repeat(MAX_LABEL); 4].join(".");
        let mut lowered = [0; MAX_NAME];
        for origin in [zone, DomainName::root()] {
            for labels in [
                "",
                "Fiji",
                "www.FIJI",
                "a..b",
                "a.",
                "a b",
                &"x".repeat(64),
                &long,
            ] {
                let want = match labels {
                    "" => Ok(origin.clone()),
                    labels => origin.child(labels),
                };
                let want = want.map(|name| name.below(&origin).map(str::to_owned));
                let got = origin.checked_below(labels, &mut lowered);
                assert_eq!(got.map(|text| Some(text.to_owned())), want, "`{labels}`");
            }
        }
    }

    /// The label checker as it was written before it ran in one pass:
    /// the model the one-pass checker is held to.
    fn check_labels_by_label(labels: &str, total: usize) -> NsResult<bool> {
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

    /// Seeded texts of every byte class — label bytes, upper case, dots,
    /// space, punctuation, a control byte, non-ASCII — with empty labels,
    /// labels of 63 and 64 bytes, and totals of 255 and 256, judged by
    /// both checkers alike: the same verdict and the same error text.
    #[test]
    fn the_one_pass_checker_judges_as_the_label_by_label_one() {
        const GOOD: [&str; 8] = ["a", "z", "Q", "0", "9", "-", "_", "Ab"];
        const BAD: [&str; 5] = [" ", "*", "\0", "é", "~"];
        let mut rng = simnet::rng::DetRng::new(35);
        let mut pick = |n: usize| rng.next_below(n as u64) as usize;
        let mut texts: Vec<String> = vec![
            "a".repeat(63),
            "a".repeat(64),
            format!("{}.{}", "b".repeat(63), "C".repeat(64)),
            format!("{}.{}", "b".repeat(64), "c d"),
            format!("x y.{}", "b".repeat(64)),
            ".a".into(),
            "a.".into(),
            "a..b".into(),
            "..".into(),
        ];
        // Totals of 255 and 256: labels of 63 and a tail to make up the
        // length.
        for total in [254, 255, 256, 257] {
            let mut text = vec!["a".repeat(63); 3].join(".");
            text.push('.');
            text.push_str(&"B".repeat(total - text.len()));
            texts.push(text);
        }
        for _ in 0..4000 {
            let (pieces, bad_odds) = (1 + pick(40), 20 + pick(400));
            let text: String = (0..pieces)
                .map(|_| match pick(bad_odds) {
                    // A long run of one piece: labels near 63 and 64.
                    0..4 => GOOD[pick(GOOD.len())].repeat(50 + pick(20)),
                    4..8 => ".".into(),
                    8 => BAD[pick(BAD.len())].into(),
                    _ => GOOD[pick(GOOD.len())].into(),
                })
                .collect();
            texts.push(text);
        }
        let mut verdicts = [0; 2];
        for text in &texts {
            for total in [text.len(), text.len() + 11, MAX_NAME, MAX_NAME + 1] {
                let got = check_labels(text, total);
                assert_eq!(
                    got,
                    check_labels_by_label(text, total),
                    "`{text}` of {total}"
                );
                verdicts[usize::from(got.is_ok())] += 1;
            }
        }
        assert!(verdicts.iter().all(|&n| n > 1000), "{verdicts:?}");
    }

    /// `child` as it was written before it ran in one pass: check the
    /// labels, then copy and lower them.
    fn child_by_check_then_copy(origin: &DomainName, labels: &str) -> NsResult<DomainName> {
        check_labels(labels, origin.joined_len(labels.len()))?;
        Ok(origin.prefixed_unchecked(labels))
    }

    /// `child_of` is the check-then-copy `child` of the joined pieces,
    /// name or error text, over seeded texts of every byte class cut at
    /// seeded places, below the root, a short origin and one that leaves
    /// 20 bytes.
    #[test]
    fn a_child_of_pieces_is_the_child_of_their_join() {
        const GOOD: [&str; 6] = ["a", "Z", "0", "-", "_", "Ab"];
        const BAD: [&str; 4] = [" ", "é", "*", ".."];
        let mut rng = simnet::rng::DetRng::new(48);
        let mut pick = |n: usize| rng.next_below(n as u64) as usize;
        let long = DomainName::parse(&vec!["o".repeat(58); 4].join(".")).expect("235 bytes");
        let origins = [
            DomainName::root(),
            DomainName::parse("hns").expect("hns"),
            long,
        ];
        let mut verdicts = [0; 2];
        for _ in 0..3000 {
            let text: String = match pick(8) {
                0 => "q".repeat(60 + pick(8)),
                _ => (0..1 + pick(30))
                    .map(|_| match pick(40) {
                        0 => BAD[pick(BAD.len())],
                        1..4 => ".",
                        _ => GOOD[pick(GOOD.len())],
                    })
                    .collect(),
            };
            let mut cuts: Vec<usize> = (0..pick(4))
                .map(|_| pick(text.len() + 1))
                .filter(|&at| text.is_char_boundary(at))
                .collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut from = 0;
            for at in cuts.into_iter().chain([text.len()]) {
                pieces.push(&text[from..at]);
                from = at;
            }
            for origin in &origins {
                let got = origin.child_of(&pieces);
                let want = child_by_check_then_copy(origin, &text);
                assert_eq!(got, want, "{pieces:?} below `{origin}`");
                verdicts[usize::from(got.is_ok())] += 1;
            }
        }
        assert!(verdicts.iter().all(|&n| n > 1000), "{verdicts:?}");
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
