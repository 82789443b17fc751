//! Error type for loaders and parsers.

use std::fmt;

/// Convenience alias used across the loader APIs.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the data loaders (CSV / JSON) and ground-truth
/// resolution.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed CSV input (message, 1-based line number).
    Csv { message: String, line: usize },
    /// Malformed JSON input: the message, the byte offset of the fault
    /// and, for JSON-lines input, the 1-based line it is on (the offset is
    /// then within the whole file).
    Json {
        message: String,
        offset: usize,
        line: Option<usize>,
    },
    /// A ground-truth record references an unknown original id.
    UnknownOriginalId { source: u8, original_id: String },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Csv { message, line } => write!(f, "csv error at line {line}: {message}"),
            Error::Json {
                message,
                offset,
                line: None,
            } => write!(f, "json error at offset {offset}: {message}"),
            Error::Json {
                message,
                offset,
                line: Some(line),
            } => write!(f, "json error at line {line} (byte {offset}): {message}"),
            Error::UnknownOriginalId {
                source,
                original_id,
            } => write!(
                f,
                "ground truth references unknown original id {original_id:?} in source {source}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::Csv {
            message: "unterminated quote".into(),
            line: 3,
        };
        assert_eq!(e.to_string(), "csv error at line 3: unterminated quote");
        let e = Error::UnknownOriginalId {
            source: 1,
            original_id: "abc".into(),
        };
        assert!(e.to_string().contains("abc"));
        let e: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "nope").into();
        assert!(e.to_string().contains("nope"));
        let e = Error::Json {
            message: "expected ':'".into(),
            offset: 7,
            line: None,
        };
        assert_eq!(e.to_string(), "json error at offset 7: expected ':'");
        let e = Error::Json {
            message: "expected ':'".into(),
            offset: 57,
            line: Some(2),
        };
        assert_eq!(
            e.to_string(),
            "json error at line 2 (byte 57): expected ':'"
        );
    }

    #[test]
    fn io_error_exposes_source() {
        use std::error::Error as _;
        let e: Error = std::io::Error::other("x").into();
        assert!(e.source().is_some());
        let e = Error::Json {
            message: "bad".into(),
            offset: 0,
            line: None,
        };
        assert!(e.source().is_none());
    }
}
