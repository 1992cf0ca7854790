//! The Okapi-style server: the snapshot server on an HLC, reading at the
//! scalar universal stable time.

use crate::spec::Okapi;
use contrarian_core::server::{Flavor, HlcClock, SnapshotServer};
use contrarian_types::DepVector;

/// Okapi: HLC timestamps (like Contrarian — nothing ever waits), and every
/// remote snapshot entry is the *universal stable time*, the minimum of the
/// stabilized vector: visibility is gated on the slowest DC — Okapi's
/// freshness-for-metadata trade.
impl Flavor for Okapi {
    type Clock = HlcClock;

    fn stable(gss: &DepVector) -> DepVector {
        DepVector::from_vec(vec![gss.min_entry(); gss.len()])
    }
}

/// The Okapi storage server.
pub type Server = SnapshotServer<Okapi>;

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_clock::PhysicalClockModel;
    use contrarian_core::Msg;
    use contrarian_protocol::ProtocolServer;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::{
        Addr, ClientId, ClusterConfig, DcId, Key, PartitionId, TxId, Value, VersionId,
    };

    fn server(dc: u8, p: u16, n_dcs: u8) -> Server {
        let cfg = ClusterConfig::small().with_dcs(n_dcs);
        Server::new(
            Addr::server(DcId(dc), PartitionId(p)),
            cfg,
            PhysicalClockModel::perfect(),
        )
    }

    fn put(s: &mut Server, ctx: &mut ScriptCtx<Msg>, key: Key, lts: u64, m: usize) -> VersionId {
        let client = Addr::client(DcId(0), 0);
        s.on_message(
            ctx,
            client,
            Msg::PutReq {
                key,
                value: Value::from_static(b"v"),
                lts,
                gss: DepVector::zero(m),
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::PutResp { vid, .. } => *vid,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Delivers a GSS broadcast from the DC's aggregator.
    fn gss_bcast(s: &mut Server, ctx: &mut ScriptCtx<Msg>, gss: Vec<u64>) {
        let gss = DepVector::from_vec(gss);
        s.on_message(
            ctx,
            Addr::server(DcId(0), PartitionId(0)),
            Msg::GssBcast { gss },
        );
    }

    fn snap(s: &mut Server, ctx: &mut ScriptCtx<Msg>, lts: u64, cgss: DepVector) -> DepVector {
        let client = Addr::client(DcId(0), 0);
        let tx = TxId::new(ClientId::new(DcId(0), 0), 0);
        s.on_message(ctx, client, Msg::RotSnapReq { tx, lts, gss: cgss });
        match &ctx.drain_to(client)[0] {
            Msg::RotSnap { sv, .. } => sv.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_remote_entries_are_the_scalar_ust() {
        let mut s = server(0, 0, 3);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        // Stabilized vector [_, 70, 40]: UST must be the minimum (40),
        // applied to *both* remote DCs — not the per-DC entries.
        gss_bcast(&mut s, &mut ctx, vec![50, 70, 40]);
        assert_eq!(s.gss().min_entry(), 40);
        // A client whose session already observed local time 1<<30 (16.4
        // ms, within the skew bound's ε of this clock at 16 ms) drives the
        // HLC well past the stabilized entries.
        ctx.now = 16_000_000;
        let sv = snap(&mut s, &mut ctx, 1 << 30, DepVector::zero(3));
        assert_eq!(sv[1], 40, "remote entry capped at UST, not gss[1]=70");
        assert_eq!(sv[2], 40);
        assert!(sv[0] > 1 << 30, "local entry comes from the HLC");
    }

    #[test]
    fn snapshot_joins_client_view_for_monotone_sessions() {
        let mut s = server(0, 0, 2);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        gss_bcast(&mut s, &mut ctx, vec![10, 10]);
        // The client has already observed remote time 90 elsewhere: the
        // snapshot must not travel backwards for this session.
        let sv = snap(&mut s, &mut ctx, 0, DepVector::from_vec(vec![0, 90]));
        assert_eq!(sv[1], 90);
    }

    #[test]
    fn put_is_nonblocking_and_timestamps_past_client() {
        let mut s = server(0, 0, 2);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let vid = put(&mut s, &mut ctx, Key(0), 12345, 2);
        assert!(vid.ts > 12345, "HLC dominates the client's causal past");
        // Replication went out to the other DC.
        let repl = ctx
            .drain_sent()
            .into_iter()
            .filter(|(_, m)| matches!(m, Msg::Replicate { .. }))
            .count();
        assert_eq!(repl, 1);
    }

    #[test]
    fn remote_version_invisible_until_ust_covers_it() {
        let mut s = server(0, 0, 2);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let ts = contrarian_clock::hlc::encode(100, 0);
        let mut dv = DepVector::zero(2);
        dv.set(1, ts);
        s.on_message(
            &mut ctx,
            Addr::server(DcId(1), PartitionId(0)),
            Msg::Replicate {
                key: Key(0),
                value: Value::from_static(b"r"),
                dv,
                origin: DcId(1),
                birth: 0,
            },
        );
        // Stable time below the version: the Okapi snapshot hides it.
        gss_bcast(&mut s, &mut ctx, vec![ts + 5, ts - 1]);
        let sv = snap(&mut s, &mut ctx, 0, DepVector::zero(2));
        let client = Addr::client(DcId(0), 0);
        let tx = TxId::new(ClientId::new(DcId(0), 0), 1);
        s.on_message(
            &mut ctx,
            client,
            Msg::RotRead {
                tx,
                keys: vec![Key(0)],
                sv,
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::RotSlice { pairs, .. } => assert!(pairs[0].1.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        // Stable time past the version everywhere: visible.
        gss_bcast(&mut s, &mut ctx, vec![ts + 5, ts]);
        let sv2 = snap(&mut s, &mut ctx, 0, DepVector::zero(2));
        s.on_message(
            &mut ctx,
            client,
            Msg::RotRead {
                tx,
                keys: vec![Key(0)],
                sv: sv2,
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::RotSlice { pairs, .. } => {
                assert_eq!(pairs[0].1.as_ref().unwrap().0, VersionId::new(ts, DcId(1)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_your_writes_survives_a_lagging_ust() {
        // UST stuck at 0 must not hide a session's own write.
        let mut s = server(0, 0, 2);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let vid = put(&mut s, &mut ctx, Key(0), 0, 2);
        ctx.drain_sent();
        // The client's gss after PutResp is at least the version's remote
        // deps (zero here); its lts is vid.ts.
        let sv = snap(&mut s, &mut ctx, vid.ts, DepVector::zero(2));
        let client = Addr::client(DcId(0), 0);
        let tx = TxId::new(ClientId::new(DcId(0), 0), 2);
        s.on_message(
            &mut ctx,
            client,
            Msg::RotRead {
                tx,
                keys: vec![Key(0)],
                sv,
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::RotSlice { pairs, .. } => {
                assert_eq!(pairs[0].1.as_ref().unwrap().0, vid);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_heads_reports_lww_winners() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let _v1 = put(&mut s, &mut ctx, Key(0), 0, 1);
        let v2 = put(&mut s, &mut ctx, Key(0), 0, 1);
        let mut heads = s.store_heads();
        heads.sort_unstable();
        assert_eq!(heads, vec![(Key(0), v2)]);
    }
}
