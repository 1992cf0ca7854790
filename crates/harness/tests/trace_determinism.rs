//! Traces merge like histories: the per-node trace rings carry `(t, node,
//! seq)` identities whose `seq` counters advance only while that node's
//! events execute, so the merged event stream must be bit-identical under
//! the calendar and sharded engines — the exported Chrome trace is
//! a deterministic artifact of (backend, rate, seed), not of the engine
//! that happened to produce it.

use contrarian_harness::experiment::{run_sim, Clients, Observe, Protocol, RunSpec};
use contrarian_sim::SchedKind;
use contrarian_types::ClusterConfig;
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};

/// The four backends of the 2-DC telemetry rows in `load_sweep`, each run
/// under both engines with tracing on.
#[test]
fn traced_load_runs_merge_identically_across_engines() {
    for protocol in [
        Protocol::Contrarian,
        Protocol::CcLo,
        Protocol::Cure,
        Protocol::Okapi,
    ] {
        let mut cfg = RunSpec {
            // 2 DCs: replication crosses the shard boundary, so sharded
            // conservative windows genuinely reorder execution batches.
            cluster: ClusterConfig::small().with_dcs(2),
            clients: Clients::Open(OpenLoopSpec::new(
                WorkloadSpec::paper_default(),
                10_000,
                3_000.0,
            )),
            warmup_ns: 20_000_000,
            measure_ns: 60_000_000,
            sched: SchedKind::Calendar,
            ..RunSpec::functional_open(protocol, 3_000.0)
        };
        let reference = run_sim(
            &cfg,
            Observe {
                trace: true,
                ..Observe::default()
            },
        );
        assert!(
            !reference.trace.is_empty(),
            "{protocol:?}: traced run produced no events"
        );
        cfg.sched = SchedKind::Sharded;
        let run = run_sim(
            &cfg,
            Observe {
                trace: true,
                ..Observe::default()
            },
        );
        assert_eq!(
            run.trace, reference.trace,
            "{protocol:?}: the sharded trace diverged from the calendar engine"
        );
        assert_eq!(
            run.metrics.ops_done(),
            reference.metrics.ops_done(),
            "{protocol:?}: the sharded completed-op count diverged"
        );
    }
}
