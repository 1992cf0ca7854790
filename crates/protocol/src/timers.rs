//! Shared timer kinds and the periodic-timer registry.
//!
//! Every protocol used to hand-roll the same loop three times: arm
//! stabilization/heartbeat/GC in `on_start`, then in each timer handler run
//! the tick and re-arm unless the harness stopped the run. [`Timers`] keeps
//! that loop in one place; a server registers its periodic kinds once and
//! calls [`Timers::rearm`] at the end of its timer dispatch.

use contrarian_runtime::actor::{ActorCtx, TimerKind};
use contrarian_types::{Addr, ClusterConfig};

/// Periodic stabilization (GSS computation).
pub const STABILIZE: u16 = 1;
/// Idle replication heartbeat.
pub const HEARTBEAT: u16 = 2;
/// Version-chain (and reader-record) garbage collection.
pub const GC: u16 = 3;
/// Client start (staggered).
pub const CLIENT_START: u16 = 4;
/// Wake-up for parked (deferred) operations.
pub const RESUME: u16 = 5;

struct Periodic {
    kind: u16,
    interval_ns: u64,
    initial_ns: u64,
}

/// A registry of periodic timers: armed once at start, re-armed after each
/// tick until the run is stopped.
#[derive(Default)]
pub struct Timers {
    periodic: Vec<Periodic>,
}

impl Timers {
    /// Heap bytes: the registered periodic kinds.
    pub fn heap_bytes(&self) -> usize {
        contrarian_types::heap::vec_bytes(&self.periodic)
    }

    /// Registers `kind` to fire every `interval_ns`, first after
    /// `interval_ns`.
    pub fn with_periodic(self, kind: u16, interval_ns: u64) -> Self {
        self.with_periodic_initial(kind, interval_ns, interval_ns)
    }

    /// Registers `kind` with a distinct initial delay (e.g. jittered).
    pub fn with_periodic_initial(mut self, kind: u16, interval_ns: u64, initial_ns: u64) -> Self {
        debug_assert!(interval_ns > 0);
        debug_assert!(
            !self.periodic.iter().any(|p| p.kind == kind),
            "duplicate timer kind"
        );
        self.periodic.push(Periodic {
            kind,
            interval_ns,
            initial_ns,
        });
        self
    }

    /// The standard registry of a replicated vector-clock server:
    /// stabilization (staggered deterministically by partition index so the
    /// cluster avoids lock-step message storms), replication heartbeat, and
    /// version GC. Single-DC clusters only run GC.
    pub fn replication_server(addr: Addr, cfg: &ClusterConfig) -> Self {
        let mut t = Timers::default();
        if cfg.n_dcs > 1 {
            let jitter = (addr.idx as u64 * 37_129) % cfg.stabilization_interval_us;
            t = t
                .with_periodic_initial(
                    STABILIZE,
                    cfg.stabilization_interval_us * 1000,
                    (cfg.stabilization_interval_us + jitter) * 1000,
                )
                .with_periodic(HEARTBEAT, cfg.heartbeat_interval_us * 1000);
        }
        t.with_periodic(GC, cfg.version_gc_retention_us * 1000)
    }

    /// Arms every registered timer (call from `on_start`).
    pub fn start<M>(&self, ctx: &mut dyn ActorCtx<M>) {
        for p in &self.periodic {
            ctx.set_timer(p.initial_ns, TimerKind::new(p.kind));
        }
    }

    /// Re-arms `kind` for its next period unless the run has stopped.
    /// Returns whether the kind is registered (callers can `debug_assert!`
    /// on unknown kinds).
    pub fn rearm<M>(&self, ctx: &mut dyn ActorCtx<M>, kind: u16) -> bool {
        let Some(p) = self.periodic.iter().find(|p| p.kind == kind) else {
            return false;
        };
        if !ctx.stopped() {
            ctx.set_timer(p.interval_ns, TimerKind::new(p.kind));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::{DcId, PartitionId};

    fn addr() -> Addr {
        Addr::server(DcId(0), PartitionId(1))
    }

    #[test]
    fn replicated_server_arms_all_three() {
        let cfg = ClusterConfig::small().with_dcs(2);
        let t = Timers::replication_server(addr(), &cfg);
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr());
        t.start(&mut ctx);
        let kinds: Vec<u16> = ctx.sink.timers.iter().map(|(_, k)| k.kind).collect();
        assert_eq!(kinds, vec![STABILIZE, HEARTBEAT, GC]);
        // Partition 1 staggers its first stabilization.
        assert!(ctx.sink.timers[0].0 > cfg.stabilization_interval_us * 1000);
    }

    #[test]
    fn single_dc_server_only_runs_gc() {
        let t = Timers::replication_server(addr(), &ClusterConfig::small());
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr());
        t.start(&mut ctx);
        assert_eq!(ctx.sink.timers.len(), 1);
        assert_eq!(ctx.sink.timers[0].1.kind, GC);
    }

    #[test]
    fn rearm_respects_stop_and_unknown_kinds() {
        let cfg = ClusterConfig::small().with_dcs(2);
        let t = Timers::replication_server(addr(), &cfg);
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr());
        assert!(t.rearm(&mut ctx, STABILIZE));
        assert_eq!(ctx.sink.timers.len(), 1);
        assert!(
            !t.rearm(&mut ctx, RESUME),
            "RESUME is one-shot, not periodic"
        );
        ctx.sink.stopped = true;
        assert!(t.rearm(&mut ctx, GC), "registered even when stopped");
        assert_eq!(ctx.sink.timers.len(), 1, "but not re-armed");
    }

    /// Every server's timer dispatch matches on these kinds: two equal
    /// ones would send one timer to the other's handler.
    #[test]
    fn timer_kinds_are_distinct() {
        let mut kinds = vec![STABILIZE, HEARTBEAT, GC, CLIENT_START, RESUME];
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 5);
    }

    #[test]
    fn a_rearmed_timer_fires_one_interval_after_now() {
        let cfg = ClusterConfig::small().with_dcs(2);
        let t = Timers::replication_server(addr(), &cfg);
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr());
        ctx.now = 5_000;
        assert!(t.rearm(&mut ctx, HEARTBEAT));
        let want = 5_000 + cfg.heartbeat_interval_us * 1000;
        assert_eq!(ctx.sink.timers, [(want, TimerKind::new(HEARTBEAT))]);
    }

    #[test]
    fn stabilization_jitter_stays_within_one_interval() {
        let cfg = ClusterConfig::small().with_dcs(2);
        let interval = cfg.stabilization_interval_us * 1000;
        let mut firsts = Vec::new();
        for p in 0..64 {
            let a = Addr::server(DcId(1), PartitionId(p));
            let mut ctx: ScriptCtx<u32> = ScriptCtx::new(a);
            Timers::replication_server(a, &cfg).start(&mut ctx);
            let first = ctx.sink.timers[0].0;
            assert!((interval..2 * interval).contains(&first), "p{p}: {first}");
            firsts.push(first);
        }
        firsts.dedup();
        assert!(firsts.len() > 1, "every partition stabilizes in lock-step");
    }

    #[test]
    fn a_custom_registry_arms_in_registration_order() {
        let t = Timers::default()
            .with_periodic_initial(RESUME, 1_000, 10)
            .with_periodic(GC, 500);
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr());
        t.start(&mut ctx);
        assert_eq!(
            ctx.sink.timers,
            [(10, TimerKind::new(RESUME)), (500, TimerKind::new(GC))]
        );
        assert!(t.heap_bytes() > 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate timer kind")]
    fn a_kind_registers_once() {
        let _ = Timers::default().with_periodic(GC, 1).with_periodic(GC, 2);
    }
}
