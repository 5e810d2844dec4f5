//! Errors for encoding and decoding.

use std::fmt;

/// Failures while marshalling or demarshalling wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// An unknown type tag was encountered.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A declared length exceeds the sanity limit.
    Oversize(usize),
    /// A struct was missing a required field.
    FieldMissing(String),
    /// A value did not match the expected type.
    TypeMismatch {
        /// What the caller expected.
        expected: &'static str,
        /// What was actually present.
        found: &'static str,
    },
    /// Trailing bytes remained after a complete value.
    TrailingBytes(usize),
    /// Lists, structs and options nested deeper than
    /// [`MAX_DEPTH`](crate::MAX_DEPTH).
    TooDeep,
    /// A value of the right kind that the type reading it refused (text
    /// that is no name, a code that names nothing), and why.
    Refused(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadTag(t) => write!(f, "unknown type tag {t}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            WireError::Oversize(n) => write!(f, "declared length {n} exceeds limit"),
            WireError::FieldMissing(name) => write!(f, "missing struct field `{name}`"),
            WireError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::TooDeep => write!(f, "nested deeper than {}", crate::MAX_DEPTH),
            WireError::Refused(why) => write!(f, "refused: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(WireError::Truncated.to_string(), "input truncated");
        assert_eq!(WireError::BadTag(9).to_string(), "unknown type tag 9");
        assert!(WireError::FieldMissing("host".into())
            .to_string()
            .contains("host"));
        assert!(WireError::TypeMismatch {
            expected: "u32",
            found: "str"
        }
        .to_string()
        .contains("u32"));
        assert!(WireError::TrailingBytes(4).to_string().contains('4'));
        assert!(WireError::Oversize(1 << 30).to_string().contains("limit"));
        assert!(WireError::BadUtf8.to_string().contains("UTF-8"));
        assert!(WireError::TooDeep.to_string().contains("128"));
        assert!(WireError::Refused("bad name".into())
            .to_string()
            .contains("bad name"));
    }
}
