//! Error type for the public (facade) API.

use std::fmt;

/// Errors surfaced by the embedded store API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The cluster was shut down while an operation was in flight.
    ClusterDown,
    /// An operation did not complete within the configured deadline.
    Timeout,
    /// Invalid argument (e.g., an empty ROT key set).
    InvalidArgument(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ClusterDown => write!(f, "cluster is shut down"),
            Error::Timeout => write!(f, "operation timed out"),
            Error::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Error::Timeout.to_string(), "operation timed out");
        assert!(Error::InvalidArgument("empty key set")
            .to_string()
            .contains("empty"));
    }

    #[test]
    fn every_variant_names_its_cause_through_std_error() {
        let errors: [Box<dyn std::error::Error>; 3] = [
            Box::new(Error::ClusterDown),
            Box::new(Error::Timeout),
            Box::new(Error::InvalidArgument("empty key set")),
        ];
        let shown: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        assert_eq!(
            shown,
            [
                "cluster is shut down",
                "operation timed out",
                "invalid argument: empty key set"
            ]
        );
    }
}
