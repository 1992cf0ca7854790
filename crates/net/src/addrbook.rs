//! The cluster address book: where each node listens.
//!
//! The reactor needs exactly one piece of deployment knowledge — the
//! `Addr → SocketAddr` map — and this module externalizes it behind
//! [`AddressBook`] so the same transport serves two deployments:
//!
//! * **single-process loopback** (the default, and all the tests): every
//!   listener binds `127.0.0.1:0` and the book is assembled from the
//!   ephemeral ports the kernel handed out;
//! * **multi-process / multi-machine** (the ROADMAP's geo-deployment
//!   direction): a static config file names every node's endpoint;
//!   [`StaticBook::load`] parses it, each process binds the listeners for
//!   the nodes it hosts and connects out to everything else.
//!
//! The config format is one node per line, `<addr> <ipv4:port>`, using the
//! same rendering [`Addr`]'s `Display` produces (`dc0/p3` for partition
//! servers, `dc1/c2` for client sessions). `#` starts a comment. Endpoints
//! are IPv4 only: the reactor dials IPv4 peers and nothing else.

use contrarian_types::{Addr, DcId};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;

/// Resolves a node address to the socket endpoint its listener binds.
pub trait AddressBook: Send + Sync {
    fn lookup(&self, addr: Addr) -> Option<SocketAddr>;
}

/// A fixed `Addr → SocketAddr` table: the loopback books the cluster
/// builders assemble, and the config-file books of multi-process runs.
#[derive(Clone, Debug, Default)]
pub struct StaticBook {
    map: HashMap<Addr, SocketAddr>,
}

impl StaticBook {
    pub fn new(map: HashMap<Addr, SocketAddr>) -> Self {
        StaticBook { map }
    }

    pub fn insert(&mut self, addr: Addr, at: SocketAddr) {
        self.map.insert(addr, at);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Parses the config-file format: one `<addr> <ipv4:port>` pair per
    /// line, blank lines and `#` comments ignored. Duplicate node entries
    /// are an error — two listeners for one node is a broken deployment,
    /// not a tie to break silently — and so is an IPv6 endpoint, which the
    /// reactor could never dial.
    pub fn parse(text: &str) -> Result<StaticBook, String> {
        let mut map = HashMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(node), Some(endpoint), None) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "line {}: expected `<addr> <ipv4:port>`, got `{line}`",
                    lineno + 1
                ));
            };
            let addr = parse_addr(node)
                .ok_or_else(|| format!("line {}: bad node address `{node}`", lineno + 1))?;
            let at: SocketAddr = endpoint
                .parse()
                .map_err(|e| format!("line {}: bad endpoint `{endpoint}`: {e}", lineno + 1))?;
            if !at.is_ipv4() {
                return Err(format!(
                    "line {}: endpoint `{endpoint}` is not IPv4 (the reactor dials IPv4 peers only)",
                    lineno + 1
                ));
            }
            if map.insert(addr, at).is_some() {
                return Err(format!("line {}: duplicate entry for {addr}", lineno + 1));
            }
        }
        Ok(StaticBook { map })
    }

    /// Loads and parses a config file.
    pub fn load(path: impl AsRef<Path>) -> Result<StaticBook, String> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

impl AddressBook for StaticBook {
    fn lookup(&self, addr: Addr) -> Option<SocketAddr> {
        self.map.get(&addr).copied()
    }
}

/// Parses the `Display` form of [`Addr`]: `dc<N>/p<P>` or `dc<N>/c<I>`.
pub fn parse_addr(s: &str) -> Option<Addr> {
    let (dc_part, node_part) = s.split_once('/')?;
    let dc: u8 = dc_part.strip_prefix("dc")?.parse().ok()?;
    if let Some(p) = node_part.strip_prefix('p') {
        Some(Addr::server(
            DcId(dc),
            contrarian_types::PartitionId(p.parse().ok()?),
        ))
    } else if let Some(c) = node_part.strip_prefix('c') {
        Some(Addr::client(DcId(dc), c.parse().ok()?))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::PartitionId;

    #[test]
    fn addr_parse_round_trips_display() {
        for addr in [
            Addr::server(DcId(0), PartitionId(0)),
            Addr::server(DcId(3), PartitionId(127)),
            Addr::client(DcId(1), 0),
            Addr::client(DcId(7), 65535),
        ] {
            assert_eq!(parse_addr(&addr.to_string()), Some(addr), "{addr}");
        }
        assert_eq!(parse_addr("dc0"), None);
        assert_eq!(parse_addr("dc0/x3"), None);
        assert_eq!(parse_addr("d0/p3"), None);
        assert_eq!(parse_addr("dc999/p3"), None);
    }

    #[test]
    fn config_file_parses_comments_and_entries() {
        let book = StaticBook::parse(
            "# cluster layout\n\
             dc0/p0 127.0.0.1:4000\n\
             dc0/p1 127.0.0.1:4001   # second partition\n\
             \n\
             dc1/c2 10.0.0.8:9000\n",
        )
        .unwrap();
        assert_eq!(book.len(), 3);
        assert_eq!(
            book.lookup(Addr::server(DcId(0), PartitionId(1))),
            Some("127.0.0.1:4001".parse().unwrap())
        );
        assert_eq!(
            book.lookup(Addr::client(DcId(1), 2)),
            Some("10.0.0.8:9000".parse().unwrap())
        );
        assert_eq!(book.lookup(Addr::client(DcId(0), 0)), None);
    }

    #[test]
    fn config_file_rejects_malformed_lines() {
        for (bad, why) in [
            ("dc0/p0", "missing endpoint"),
            ("dc0/p0 127.0.0.1:1 extra", "trailing token"),
            ("dc0/q0 127.0.0.1:1", "bad node kind"),
            ("dc0/p0 127.0.0.1:notaport", "bad port"),
            ("dc0/p0 127.0.0.1:1\ndc0/p0 127.0.0.1:2", "duplicate"),
            ("dc0/p0 [::1]:4000", "IPv6 endpoint"),
        ] {
            let err = StaticBook::parse(bad).expect_err(why);
            assert!(err.starts_with("line "), "{why}: `{err}` names no line");
        }
    }

    /// Comments and blank lines still count toward the reported line.
    #[test]
    fn errors_name_the_offending_line_of_the_file() {
        let err = StaticBook::parse(
            "# layout\n\
             \n\
             dc0/p0 127.0.0.1:4000\n\
             dc0/p1 [::1]:4001\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 4: "), "{err}");
        assert!(err.contains("[::1]:4001"), "{err}");
    }

    #[test]
    fn load_reports_the_path_it_cannot_read() {
        let err = StaticBook::load("no/such/dir/cluster.book").unwrap_err();
        assert!(err.starts_with("read no/such/dir/cluster.book: "), "{err}");
    }
}
