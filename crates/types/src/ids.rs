//! Identifiers for data centers, partitions, clients, transactions and nodes.

use std::fmt;

/// A data center (replication site). The paper evaluates `M ∈ {1, 2}` but the
/// protocols support any `M ≥ 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct DcId(pub u8);

impl DcId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

/// A partition (shard) of the key space. Every DC hosts one server per
/// partition; partition `p` in DC `m` is the replica of partition `p` in
/// every other DC (multi-master).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct PartitionId(pub u16);

impl PartitionId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A globally unique client identifier: the owning DC in the high bits and
/// the client index within that DC in the low bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct ClientId(pub u32);

impl ClientId {
    #[inline]
    pub fn new(dc: DcId, idx: u16) -> Self {
        ClientId(((dc.0 as u32) << 16) | idx as u32)
    }

    #[inline]
    pub fn dc(self) -> DcId {
        DcId((self.0 >> 16) as u8)
    }

    #[inline]
    pub fn idx(self) -> u16 {
        (self.0 & 0xffff) as u16
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}.{}", self.dc().0, self.idx())
    }
}

/// A transaction identifier: unique per ROT issued by a client.
///
/// COPS-SNOW tracks *ROT ids* (not client ids) in reader records precisely
/// because a client may have several transactions in flight over its
/// lifetime; two ROTs of the same client are distinct readers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxId {
    pub client: ClientId,
    pub seq: u32,
}

impl TxId {
    #[inline]
    pub fn new(client: ClientId, seq: u32) -> Self {
        TxId { client, seq }
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}#{}", self.client, self.seq)
    }
}

crate::wire_enum! {
    /// Whether a node is a storage server (one per partition per DC) or a client.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
    pub enum NodeKind {
        Server,
        Client,
    }
}

/// The address of a node in the cluster: `(dc, kind, index)`.
///
/// For servers the index is the partition id; for clients it is the client
/// index within the DC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Addr {
    pub dc: DcId,
    pub kind: NodeKind,
    pub idx: u16,
}

impl Addr {
    #[inline]
    pub fn server(dc: DcId, partition: PartitionId) -> Self {
        Addr {
            dc,
            kind: NodeKind::Server,
            idx: partition.0,
        }
    }

    #[inline]
    pub fn client(dc: DcId, idx: u16) -> Self {
        Addr {
            dc,
            kind: NodeKind::Client,
            idx,
        }
    }

    #[inline]
    pub fn partition(self) -> PartitionId {
        debug_assert_eq!(self.kind, NodeKind::Server);
        PartitionId(self.idx)
    }

    #[inline]
    pub fn client_id(self) -> ClientId {
        debug_assert_eq!(self.kind, NodeKind::Client);
        ClientId::new(self.dc, self.idx)
    }

    #[inline]
    pub fn is_server(self) -> bool {
        self.kind == NodeKind::Server
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NodeKind::Server => write!(f, "{}/p{}", self.dc, self.idx),
            NodeKind::Client => write!(f, "{}/c{}", self.dc, self.idx),
        }
    }
}

impl From<ClientId> for Addr {
    fn from(c: ClientId) -> Addr {
        Addr::client(c.dc(), c.idx())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_id_round_trips_dc_and_index() {
        let c = ClientId::new(DcId(3), 517);
        assert_eq!(c.dc(), DcId(3));
        assert_eq!(c.idx(), 517);
    }

    #[test]
    fn client_id_is_unique_across_dcs() {
        assert_ne!(ClientId::new(DcId(0), 1), ClientId::new(DcId(1), 1));
    }

    #[test]
    fn addr_from_client_id_round_trips() {
        let c = ClientId::new(DcId(2), 9);
        let a: Addr = c.into();
        assert_eq!(a.client_id(), c);
        assert_eq!(a.dc, DcId(2));
    }

    #[test]
    fn server_addr_partition() {
        let a = Addr::server(DcId(1), PartitionId(7));
        assert!(a.is_server());
        assert_eq!(a.partition(), PartitionId(7));
    }

    #[test]
    fn tx_ids_ordered_by_client_then_seq() {
        let c0 = ClientId::new(DcId(0), 0);
        let c1 = ClientId::new(DcId(0), 1);
        assert!(TxId::new(c0, 5) < TxId::new(c1, 0));
        assert!(TxId::new(c0, 1) < TxId::new(c0, 2));
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(Addr::server(DcId(0), PartitionId(3)).to_string(), "dc0/p3");
        assert_eq!(
            TxId::new(ClientId::new(DcId(1), 2), 7).to_string(),
            "tc1.2#7"
        );
    }

    #[test]
    fn indices_and_short_names() {
        assert_eq!(DcId(4).index(), 4);
        assert_eq!(PartitionId(300).index(), 300);
        assert_eq!(DcId(4).to_string(), "dc4");
        assert_eq!(PartitionId(300).to_string(), "p300");
        assert_eq!(ClientId::new(DcId(1), 65535).to_string(), "c1.65535");
        assert_eq!(Addr::client(DcId(2), 5).to_string(), "dc2/c5");
    }

    #[test]
    fn addresses_order_by_dc_then_servers_before_clients() {
        let mut addrs = vec![
            Addr::client(DcId(1), 0),
            Addr::server(DcId(1), PartitionId(3)),
            Addr::client(DcId(0), 9),
            Addr::server(DcId(0), PartitionId(5)),
            Addr::server(DcId(0), PartitionId(1)),
        ];
        addrs.sort();
        assert_eq!(
            addrs,
            vec![
                Addr::server(DcId(0), PartitionId(1)),
                Addr::server(DcId(0), PartitionId(5)),
                Addr::client(DcId(0), 9),
                Addr::server(DcId(1), PartitionId(3)),
                Addr::client(DcId(1), 0),
            ]
        );
        assert!(!Addr::client(DcId(0), 0).is_server());
    }
}
