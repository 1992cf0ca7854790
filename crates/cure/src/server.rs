//! The Cure server: the snapshot server on a physical clock, which cannot
//! be pushed forward — so reads, snapshots and writes *wait* for it.

use crate::spec::Cure;
use contrarian_clock::{hlc, PhysicalClockModel};
use contrarian_core::server::{Flavor, ServerClock, SnapshotServer};
use contrarian_types::DepVector;

/// A skewed physical clock, read in the shared (µs, counter) timestamp space.
pub struct PhysClock {
    phys: PhysicalClockModel,
    /// Last issued version timestamp (physical clocks are not guaranteed to
    /// tick between two PUTs; the low counter bits disambiguate).
    last_ts: u64,
}

impl From<PhysicalClockModel> for PhysClock {
    fn from(phys: PhysicalClockModel) -> Self {
        PhysClock { phys, last_ts: 0 }
    }
}

impl PhysClock {
    fn read(&self, now: u64) -> u64 {
        hlc::encode(self.phys.now_us(now), 0)
    }

    /// Nanoseconds until the clock reads strictly past `ts`.
    fn wait_ns(&self, now: u64, ts: u64) -> u64 {
        self.phys.ns_until(now, hlc::decode(ts).0).max(1)
    }
}

impl ServerClock for PhysClock {
    /// Waits while the client's causal floor is ahead of the clock.
    fn stamp_put(&mut self, now: u64, floor: u64) -> Result<u64, u64> {
        let clock = self.read(now);
        if clock <= floor {
            return Err(self.wait_ns(now, floor));
        }
        self.last_ts = clock.max(self.last_ts + 1);
        Ok(self.last_ts)
    }

    /// The snapshot is the coordinator's clock reading; waits while the
    /// client has seen a later local timestamp.
    fn stamp_snapshot(&mut self, now: u64, lts: u64) -> Result<u64, u64> {
        let clock = self.read(now);
        if clock <= lts {
            return Err(self.wait_ns(now, lts));
        }
        Ok(clock)
    }

    /// Waits until the clock reaches the snapshot's local entry (the
    /// skew-induced wait of Section 3).
    fn admit_read(&mut self, now: u64, ts: u64) -> Result<(), u64> {
        if self.read(now) < ts {
            return Err(self.wait_ns(now, ts));
        }
        Ok(())
    }

    fn peek(&self, now: u64) -> u64 {
        self.read(now).max(self.last_ts)
    }

    fn physical_us(&self, now: u64) -> u64 {
        self.phys.now_us(now)
    }
}

/// Cure: physical-clock timestamps, the full GSS vector as stable time.
impl Flavor for Cure {
    type Clock = PhysClock;

    fn stable(gss: &DepVector) -> DepVector {
        gss.clone()
    }
}

/// The Cure storage server.
pub type Server = SnapshotServer<Cure>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{timers, Msg};
    use contrarian_protocol::ProtocolServer;
    use contrarian_runtime::actor::TimerKind;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::{Addr, ClientId, ClusterConfig, DcId, Key, PartitionId, TxId, Value};

    fn addr() -> Addr {
        Addr::server(DcId(0), PartitionId(0))
    }

    fn tx() -> TxId {
        TxId::new(ClientId::new(DcId(0), 0), 0)
    }

    fn client() -> Addr {
        Addr::client(DcId(0), 0)
    }

    #[test]
    fn lagging_clock_blocks_read_until_caught_up() {
        // Server clock is 3ms behind true time.
        let cfg = ClusterConfig::small();
        let mut s = Server::new(addr(), cfg, PhysicalClockModel::with_offset_ns(-3_000_000));
        let mut ctx = ScriptCtx::new(addr());
        ctx.now = 5_000_000; // true 5ms, local clock 2ms
        let mut sv = DepVector::zero(1);
        sv.set(0, hlc::encode(4_000, 0)); // snapshot at 4ms
        s.on_message(
            &mut ctx,
            client(),
            Msg::RotRead {
                tx: tx(),
                keys: vec![Key(0)],
                sv,
            },
        );
        assert!(ctx.drain_sent().is_empty(), "read must block");
        assert_eq!(ctx.sink.timers.len(), 1, "one parked read, one RESUME");
        let (wake, _) = ctx.sink.timers[0];
        // Local clock reaches 4ms+ at true 7ms+.
        assert!(wake > 7_000_000 && wake < 7_100_000, "wake at {wake}");
        // Fire the resume: the read completes.
        ctx.now = wake;
        s.on_timer(&mut ctx, TimerKind::new(timers::RESUME));
        assert_eq!(ctx.drain_to(client()).len(), 1);
    }

    #[test]
    fn ahead_clock_serves_immediately() {
        let cfg = ClusterConfig::small();
        let mut s = Server::new(addr(), cfg, PhysicalClockModel::with_offset_ns(2_000_000));
        let mut ctx = ScriptCtx::new(addr());
        ctx.now = 5_000_000;
        let mut sv = DepVector::zero(1);
        sv.set(0, hlc::encode(4_000, 0));
        s.on_message(
            &mut ctx,
            client(),
            Msg::RotRead {
                tx: tx(),
                keys: vec![Key(0)],
                sv,
            },
        );
        assert_eq!(
            ctx.drain_to(client()).len(),
            1,
            "no blocking when clock is ahead"
        );
        assert!(ctx.sink.timers.is_empty(), "nothing parked");
    }

    #[test]
    fn snapshot_request_blocks_on_future_client_timestamp() {
        let cfg = ClusterConfig::small();
        let mut s = Server::new(addr(), cfg, PhysicalClockModel::perfect());
        let mut ctx = ScriptCtx::new(addr());
        ctx.now = 1_000_000; // clock at 1ms
        let lts = hlc::encode(2_000, 0); // client saw 2ms
        s.on_message(
            &mut ctx,
            client(),
            Msg::RotSnapReq {
                tx: tx(),
                lts,
                gss: DepVector::zero(1),
            },
        );
        assert!(ctx.drain_sent().is_empty());
        ctx.now = 2_100_000;
        s.on_timer(&mut ctx, TimerKind::new(timers::RESUME));
        match ctx.drain_to(client()).pop() {
            Some(Msg::RotSnap { sv, .. }) => assert!(sv[0] > lts),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn put_blocks_until_clock_passes_dependency() {
        let cfg = ClusterConfig::small();
        let mut s = Server::new(addr(), cfg, PhysicalClockModel::perfect());
        let mut ctx = ScriptCtx::new(addr());
        ctx.now = 1_000_000;
        // The client saw 1.9 ms: a clock within the skew bound's ε (1 ms).
        let lts = hlc::encode(1_900, 0);
        s.on_message(
            &mut ctx,
            client(),
            Msg::PutReq {
                key: Key(0),
                value: Value::from_static(b"v"),
                lts,
                gss: DepVector::zero(1),
            },
        );
        assert!(ctx.drain_sent().is_empty(), "PUT must wait for the clock");
        ctx.now = 2_100_000;
        s.on_timer(&mut ctx, TimerKind::new(timers::RESUME));
        match ctx.drain_to(client()).pop() {
            Some(Msg::PutResp { vid, .. }) => assert!(vid.ts > lts),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn put_timestamps_strictly_increase_even_with_stalled_clock() {
        let cfg = ClusterConfig::small();
        let mut s = Server::new(addr(), cfg, PhysicalClockModel::perfect());
        let mut ctx = ScriptCtx::new(addr());
        ctx.now = 1_000_000;
        let mut last = 0;
        for _ in 0..5 {
            s.on_message(
                &mut ctx,
                client(),
                Msg::PutReq {
                    key: Key(0),
                    value: Value::new(),
                    lts: 0,
                    gss: DepVector::zero(1),
                },
            );
            match ctx.drain_to(client()).pop() {
                Some(Msg::PutResp { vid, .. }) => {
                    assert!(vid.ts > last);
                    last = vid.ts;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn read_returns_version_within_snapshot() {
        let cfg = ClusterConfig::small();
        let mut s = Server::new(addr(), cfg, PhysicalClockModel::perfect());
        let mut ctx = ScriptCtx::new(addr());
        ctx.now = 1_000_000;
        s.on_message(
            &mut ctx,
            client(),
            Msg::PutReq {
                key: Key(0),
                value: Value::from_static(b"a"),
                lts: 0,
                gss: DepVector::zero(1),
            },
        );
        let v1 = match ctx.drain_to(client()).pop() {
            Some(Msg::PutResp { vid, .. }) => vid,
            other => panic!("unexpected {other:?}"),
        };
        ctx.now = 2_000_000;
        s.on_message(
            &mut ctx,
            client(),
            Msg::PutReq {
                key: Key(0),
                value: Value::from_static(b"b"),
                lts: 0,
                gss: DepVector::zero(1),
            },
        );
        ctx.drain_sent();
        // Snapshot at v1: reads must see "a".
        let mut sv = DepVector::zero(1);
        sv.set(0, v1.ts);
        s.on_message(
            &mut ctx,
            client(),
            Msg::RotRead {
                tx: tx(),
                keys: vec![Key(0)],
                sv,
            },
        );
        match ctx.drain_to(client()).pop() {
            Some(Msg::RotSlice { pairs, .. }) => {
                assert_eq!(pairs[0].1.as_ref().unwrap().0, v1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
