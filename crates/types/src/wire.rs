//! Wire-size accounting.
//!
//! The simulator charges network transmission and per-byte CPU costs based
//! on an explicit estimate of each message's serialized size, mirroring the
//! paper's protobuf encoding: 8-byte keys, 8-byte timestamps, 8-byte ROT
//! ids, 8 bytes per vector entry, plus a fixed per-message header.

/// Fixed per-message envelope overhead (framing, type tag, addresses).
pub const MSG_HEADER: usize = 24;
/// Serialized size of a key.
pub const KEY: usize = 8;
/// Serialized size of a timestamp.
pub const TS: usize = 8;
/// Serialized size of a ROT (transaction) id — the paper uses 8 bytes per
/// ROT id when estimating readers-check traffic (~7 KB for 855 ids).
pub const TX_ID: usize = 8;
/// Serialized size of one dependency-vector entry.
pub const VEC_ENTRY: usize = 8;
/// Serialized size of a version id (timestamp + origin DC).
pub const VERSION_ID: usize = 9;

/// Types that know their serialized size.
pub trait WireSize {
    fn wire_size(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_check_estimate_matches_paper() {
        // The paper: 855 ROT ids ≈ 7 KB at 8 bytes per id.
        assert_eq!(855 * TX_ID, 6840);
    }

    #[test]
    fn a_version_id_is_a_timestamp_and_an_origin_byte() {
        assert_eq!(VERSION_ID, TS + 1);
        // A vector entry is one timestamp.
        assert_eq!(VEC_ENTRY, TS);
    }
}
