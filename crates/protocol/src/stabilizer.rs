//! The shared stabilization machinery of vector-clock protocols.
//!
//! Contrarian and Cure (and any future GentleRain-style backend) share the
//! whole Global-Stable-Snapshot pipeline: every partition keeps a version
//! vector `vv` (`vv[local]` = newest local timestamp, `vv[i]` = newest
//! timestamp received from the replica in DC `i`); a periodic stabilization
//! round aggregates the partitions' vectors into their entrywise minimum —
//! the GSS, the vector of remote prefixes fully installed in the DC — and
//! broadcasts it; idle partitions send heartbeats so their replicas' vectors
//! (and hence everyone's GSS) keep advancing.
//!
//! [`Stabilizer`] owns that pipeline. The protocol server keeps one and
//! forwards the relevant messages and timer ticks; message *construction*
//! stays with the protocol (closures), so backends with different wire
//! types share the logic.

use contrarian_runtime::actor::ActorCtx;
use contrarian_types::{Addr, ClusterConfig, DcId, DepVector, PartitionId, TraceKind};

/// Per-server stabilization state: version vector, GSS, and (on the
/// aggregator) the table of reported partition vectors.
pub struct Stabilizer {
    addr: Addr,
    my_dc: usize,
    /// Version vector: `vv[my_dc]` newest local timestamp, `vv[i]` newest
    /// received from DC `i`.
    pub vv: DepVector,
    /// The DC-wide Global Stable Snapshot (monotone).
    pub gss: DepVector,
    /// Last vector reported by each partition (read by the aggregator).
    vv_table: Vec<DepVector>,
    /// True time of the last replication send (suppresses heartbeats).
    last_replicate_ns: u64,
}

impl Stabilizer {
    /// Heap bytes: both vectors and the aggregator's per-partition table.
    pub fn heap_bytes(&self) -> usize {
        self.vv.heap_bytes()
            + self.gss.heap_bytes()
            + contrarian_types::heap::vec_bytes(&self.vv_table)
            + self
                .vv_table
                .iter()
                .map(DepVector::heap_bytes)
                .sum::<usize>()
    }

    pub fn new(addr: Addr, cfg: &ClusterConfig) -> Self {
        let m = cfg.n_dcs as usize;
        let n = cfg.n_partitions as usize;
        Stabilizer {
            addr,
            my_dc: addr.dc.index(),
            vv: DepVector::zero(m),
            gss: DepVector::zero(m),
            vv_table: vec![DepVector::zero(m); n],
            last_replicate_ns: 0,
        }
    }

    pub fn gss(&self) -> &DepVector {
        &self.gss
    }

    pub fn vv(&self) -> &DepVector {
        &self.vv
    }

    /// Partition 0 of each DC aggregates.
    pub fn is_aggregator(&self) -> bool {
        self.addr.idx == 0
    }

    fn aggregator_addr(&self) -> Addr {
        Addr::server(self.addr.dc, PartitionId(0))
    }

    /// Notes a locally created version timestamp.
    pub fn record_local(&mut self, ts: u64) {
        self.vv.raise(self.my_dc, ts);
    }

    /// Notes that replication traffic went out now (suppresses the next
    /// heartbeat if it comes soon enough).
    pub fn note_replication_sent(&mut self, now_ns: u64) {
        self.last_replicate_ns = now_ns;
    }

    /// Handles an incoming replicated version's origin timestamp (also used
    /// for heartbeats: both raise the origin's vector entry).
    pub fn record_remote(&mut self, origin: DcId, ts: u64) {
        self.vv.raise(origin.index(), ts);
    }

    /// Handles a partition's vector report (aggregation input).
    pub fn on_vv_report(&mut self, partition: PartitionId, vv: DepVector) {
        self.vv_table[partition.index()] = vv;
    }

    /// Handles a GSS broadcast: the GSS joins monotonically.
    pub fn on_gss_bcast(&mut self, gss: &DepVector) {
        self.gss.join(gss);
    }

    /// One stabilization tick.
    ///
    /// `fresh_local_ts` is the server clock's current reading: an idle
    /// partition's local entry advances with its clock, so everything it
    /// will ever create is timestamped past it and laggards do not hold the
    /// GSS back. `mk_report` / `mk_bcast` build the protocol's wire
    /// messages.
    pub fn stabilize<M>(
        &mut self,
        ctx: &mut dyn ActorCtx<M>,
        cfg: &ClusterConfig,
        fresh_local_ts: u64,
        mk_report: impl Fn(PartitionId, DepVector) -> M,
        mk_bcast: impl Fn(DepVector) -> M,
    ) {
        self.vv.raise(self.my_dc, fresh_local_ts);
        if self.is_aggregator() {
            self.vv_table[0] = self.vv.clone();
            let min = self.compute_min();
            self.gss.join(&min);
            self.note_gss_advance(ctx, fresh_local_ts);
            for p in 1..cfg.n_partitions {
                let peer = Addr::server(self.addr.dc, PartitionId(p));
                ctx.send(peer, mk_bcast(self.gss.clone()));
            }
        } else {
            ctx.send(
                self.aggregator_addr(),
                mk_report(self.addr.partition(), self.vv.clone()),
            );
        }
    }

    /// Records how far the freshly joined GSS trails the local clock
    /// reading — the *stabilization lag*, in protocol timestamp units
    /// (comparable within a backend, not across them) — and emits a
    /// [`TraceKind::GssAdvance`] event when tracing.
    fn note_gss_advance<M>(&mut self, ctx: &mut dyn ActorCtx<M>, fresh_local_ts: u64) {
        let gss_min = self.gss.as_slice().iter().copied().min().unwrap_or(0);
        let lag = fresh_local_ts.saturating_sub(gss_min);
        ctx.metrics().gss_lagged(lag);
        if ctx.tracing() {
            ctx.trace(TraceKind::GssAdvance, gss_min, lag);
        }
    }

    /// One heartbeat tick: if no replication went out within the heartbeat
    /// interval, tell every replica how far the clock advanced (`fresh_ts`)
    /// so their vectors keep moving. Returns whether heartbeats were sent.
    pub fn heartbeat<M>(
        &mut self,
        ctx: &mut dyn ActorCtx<M>,
        cfg: &ClusterConfig,
        fresh_ts: u64,
        mk_heartbeat: impl Fn(DcId, u64) -> M,
    ) -> bool {
        let idle_ns = ctx.now().saturating_sub(self.last_replicate_ns);
        if idle_ns < cfg.heartbeat_interval_us * 1000 {
            return false;
        }
        self.vv.raise(self.my_dc, fresh_ts);
        for peer in peer_replicas(self.addr, cfg.n_dcs) {
            ctx.send(peer, mk_heartbeat(self.addr.dc, fresh_ts));
        }
        true
    }

    /// Entrywise minimum of all reported partition vectors (the GSS
    /// candidate).
    fn compute_min(&self) -> DepVector {
        let mut min = self.vv_table[0].clone();
        for vv in &self.vv_table[1..] {
            min.meet(vv);
        }
        min
    }
}

/// The same partition's server in every *other* DC — the replication (and
/// heartbeat) fan-out every multi-master protocol shares.
pub fn peer_replicas(addr: Addr, n_dcs: u8) -> impl Iterator<Item = Addr> {
    let partition = addr.partition();
    let my_dc = addr.dc;
    (0..n_dcs)
        .filter_map(move |dc| (DcId(dc) != my_dc).then_some(Addr::server(DcId(dc), partition)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::testkit::ScriptCtx;

    #[derive(Debug, PartialEq)]
    enum M {
        Report(PartitionId, DepVector),
        Bcast(DepVector),
        Hb(DcId, u64),
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig::small().with_dcs(2).with_partitions(3)
    }

    #[test]
    fn star_aggregator_joins_min_and_broadcasts() {
        let addr = Addr::server(DcId(0), PartitionId(0));
        let mut s = Stabilizer::new(addr, &cfg());
        let mut ctx: ScriptCtx<M> = ScriptCtx::new(addr);
        s.on_vv_report(PartitionId(1), DepVector::from_vec(vec![0, 50]));
        s.on_vv_report(PartitionId(2), DepVector::from_vec(vec![0, 80]));
        s.vv.raise(1, 60);
        s.stabilize(&mut ctx, &cfg(), 0, M::Report, M::Bcast);
        assert_eq!(s.gss()[1], 50, "GSS = min(50, 80, 60)");
        let bcasts = ctx.drain_sent();
        assert_eq!(bcasts.len(), 2);
        assert!(bcasts.iter().all(|(_, m)| matches!(m, M::Bcast(_))));
    }

    #[test]
    fn star_follower_reports_to_partition_zero() {
        let addr = Addr::server(DcId(0), PartitionId(2));
        let mut s = Stabilizer::new(addr, &cfg());
        let mut ctx: ScriptCtx<M> = ScriptCtx::new(addr);
        s.stabilize(&mut ctx, &cfg(), 7, M::Report, M::Bcast);
        let sent = ctx.drain_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, Addr::server(DcId(0), PartitionId(0)));
        match &sent[0].1 {
            M::Report(p, vv) => {
                assert_eq!(*p, PartitionId(2));
                assert_eq!(vv[0], 7, "local entry freshened by the clock");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn star_follower_gss_moves_only_on_the_aggregators_broadcast() {
        // Reports reaching a follower never advance its GSS by themselves:
        // partition 0 alone computes the minimum.
        let addr = Addr::server(DcId(0), PartitionId(1));
        let mut s = Stabilizer::new(addr, &cfg());
        let mut ctx: ScriptCtx<M> = ScriptCtx::new(addr);
        s.on_vv_report(PartitionId(0), DepVector::from_vec(vec![5, 5]));
        s.on_vv_report(PartitionId(2), DepVector::from_vec(vec![9, 9]));
        s.stabilize(&mut ctx, &cfg(), 6, M::Report, M::Bcast);
        assert_eq!(ctx.drain_sent().len(), 1, "one report, to partition 0");
        assert_eq!(s.gss().as_slice(), &[0, 0]);
        s.on_gss_bcast(&DepVector::from_vec(vec![5, 0]));
        assert_eq!(s.gss().as_slice(), &[5, 0]);
    }

    #[test]
    fn gss_never_regresses() {
        let addr = Addr::server(DcId(0), PartitionId(1));
        let mut s = Stabilizer::new(addr, &cfg());
        s.on_gss_bcast(&DepVector::from_vec(vec![10, 90]));
        s.on_gss_bcast(&DepVector::from_vec(vec![5, 100]));
        assert_eq!(s.gss().as_slice(), &[10, 100]);
    }

    #[test]
    fn heartbeat_suppressed_by_recent_replication() {
        let addr = Addr::server(DcId(0), PartitionId(0));
        let c = cfg();
        let mut s = Stabilizer::new(addr, &c);
        let mut ctx: ScriptCtx<M> = ScriptCtx::new(addr);
        s.note_replication_sent(0);
        ctx.now = 100; // inside the heartbeat interval
        assert!(!s.heartbeat(&mut ctx, &c, 1, M::Hb));
        ctx.now = 10_000_000_000;
        assert!(s.heartbeat(&mut ctx, &c, 2, M::Hb));
        let sent = ctx.drain_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, Addr::server(DcId(1), PartitionId(0)));
        assert_eq!(s.vv()[0], 2);
    }

    #[test]
    fn peer_replicas_cover_every_other_dc() {
        let addr = Addr::server(DcId(1), PartitionId(3));
        let peers: Vec<_> = peer_replicas(addr, 3).collect();
        assert_eq!(
            peers,
            vec![
                Addr::server(DcId(0), PartitionId(3)),
                Addr::server(DcId(2), PartitionId(3)),
            ]
        );
    }
}
