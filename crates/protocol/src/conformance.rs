//! The shared backend conformance suite.
//!
//! Every backend must provide the same functional guarantees regardless of
//! how it pays for them; this module runs the *same* checks against any
//! [`ProtocolSpec`] on both runtimes — the simulator ([`check_sim`], once
//! per engine of [`ENGINES`]) and loopback TCP on the reactor
//! ([`check_net`]):
//!
//! * **causal-session checks** on the recorded history — read-your-writes
//!   and per-key monotonic reads within each client session (the full
//!   cross-client causal checker lives in `contrarian-harness`; these are
//!   the session guarantees every causal system must already provide);
//! * **replica convergence** — after load stops and replication drains,
//!   every DC's copy of every partition holds identical per-key head
//!   versions (via [`ProtocolServer::store_heads`]);
//! * **progress** — the cluster actually served operations.
//!
//! Protocol crates run this suite from their integration tests (one line
//! per runtime); a new backend gets the whole battery for free.

use crate::build::{build_cluster, build_nodes, Clients, ClusterParams, ProtocolSpec};
use crate::node::ProtocolServer;
use contrarian_net::NetCluster;
use contrarian_runtime::cost::CostModel;
pub use contrarian_sim::{SchedKind, ENGINES};
use contrarian_types::{
    Addr, ClientId, ClusterConfig, DcId, HistoryEvent, Key, PartitionId, VersionId,
};
use contrarian_workload::WorkloadSpec;
use std::collections::HashMap;

/// What a passing conformance run observed.
#[derive(Clone, Copy, Debug)]
pub struct ConformanceOutcome {
    /// Completed operations in the history.
    pub ops: usize,
    /// Distinct keys compared during the convergence check.
    pub keys_compared: usize,
}

/// Session guarantees on a recorded history: within each client session,
/// reads of a key never go backwards and never miss the client's own
/// writes. Returns the first violation, if any.
pub fn check_sessions(history: &[HistoryEvent]) -> Result<(), String> {
    // Per client per key: floor version the session must observe from now
    // on (own writes and prior reads, whichever is newest).
    let mut floor: HashMap<(ClientId, Key), VersionId> = HashMap::new();
    for (i, ev) in history.iter().enumerate() {
        match ev {
            HistoryEvent::PutDone {
                client, key, vid, ..
            } => {
                let e = floor.entry((*client, *key)).or_insert(*vid);
                if *vid > *e {
                    *e = *vid;
                }
            }
            HistoryEvent::RotDone { client, pairs, .. } => {
                for (key, read) in pairs {
                    let entry = floor.entry((*client, *key));
                    match entry {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            let want = *e.get();
                            match read {
                                None => {
                                    return Err(format!(
                                        "event {i}: client {client} read ⊥ of {key} after observing {want:?}"
                                    ));
                                }
                                Some(vid) if *vid < want => {
                                    return Err(format!(
                                        "event {i}: client {client} read {vid:?} of {key} after observing {want:?}"
                                    ));
                                }
                                Some(vid) => {
                                    e.insert(*vid);
                                }
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            if let Some(vid) = read {
                                v.insert(*vid);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Compares per-partition head versions across DCs. `heads_of(dc, p)` must
/// return the partition's `store_heads()`. Returns keys compared.
fn check_convergence(
    cfg: &ClusterConfig,
    mut heads_of: impl FnMut(DcId, PartitionId) -> Vec<(Key, VersionId)>,
) -> Result<usize, String> {
    let mut compared = 0;
    for p in 0..cfg.n_partitions {
        let mut reference: Option<Vec<(Key, VersionId)>> = None;
        for dc in 0..cfg.n_dcs {
            let mut heads = heads_of(DcId(dc), PartitionId(p));
            heads.sort_unstable();
            match &reference {
                None => {
                    compared += heads.len();
                    reference = Some(heads);
                }
                Some(want) => {
                    if *want != heads {
                        let diff = want
                            .iter()
                            .zip(heads.iter())
                            .find(|(a, b)| a != b)
                            .map(|(a, b)| format!("{a:?} vs {b:?}"))
                            .unwrap_or_else(|| format!("{} vs {} keys", want.len(), heads.len()));
                        return Err(format!("partition {p}: dc0 and dc{dc} diverged ({diff})"));
                    }
                }
            }
        }
    }
    Ok(compared)
}

/// The battery's client side: three closed-loop clients per DC.
fn conformance_clients() -> Clients {
    Clients::Closed {
        workload: WorkloadSpec::paper_default()
            .with_rot_size(2)
            .with_write_ratio(0.2),
        per_dc: 3,
    }
}

/// Runs the conformance battery on the discrete-event simulator, once per
/// engine of [`ENGINES`]: a replicated closed-loop cluster, stopped and
/// drained, then session + convergence + progress checks, and a history
/// identical to the calendar engine's.
pub fn check_sim<P: ProtocolSpec>(dcs: u8, seed: u64) -> Result<ConformanceOutcome, String> {
    let cfg = ClusterConfig::small().with_dcs(dcs);
    let params = ClusterParams {
        cfg: cfg.clone(),
        cost: CostModel::functional(),
        clients: conformance_clients(),
        seed,
    };
    let cfg = P::normalize(cfg);
    let label = |sched: SchedKind| format!("{} (sim, {sched:?})", P::NAME);
    // One engine's run: the history's fingerprint and what it observed.
    let run = |sched: SchedKind| -> Result<(String, ConformanceOutcome), String> {
        let mut sim = build_cluster::<P>(&params, sched);
        // Serial windows: the window path never changes a history, and
        // the sim crate's engine tests force the parallel one.
        sim.set_parallel(false);
        sim.set_recording(true);
        sim.start();
        sim.run_until(40_000_000);
        sim.set_stopped(true);
        sim.run_to_quiescence(20_000_000_000);

        let history = sim.drain_history();
        if history.len() < 50 {
            return Err(format!(
                "{}: too little progress ({} events)",
                label(sched),
                history.len()
            ));
        }
        check_sessions(&history).map_err(|e| format!("{}: {e}", label(sched)))?;
        let keys_compared = check_convergence(&cfg, |dc, p| {
            sim.actor(Addr::server(dc, p))
                .as_server()
                .expect("server node")
                .store_heads()
        })
        .map_err(|e| format!("{}: {e}", label(sched)))?;
        let outcome = ConformanceOutcome {
            ops: history.len(),
            keys_compared,
        };
        Ok((format!("{history:?}"), outcome))
    };
    // The first engine is the calendar reference.
    let (calendar, outcome) = run(ENGINES[0])?;
    for sched in &ENGINES[1..] {
        if run(*sched)?.0 != calendar {
            return Err(format!(
                "{}: history diverged from the calendar engine",
                label(*sched)
            ));
        }
    }
    Ok(outcome)
}

/// Runs the conformance battery on the TCP runtime: real concurrency and
/// wall-clock timers, every message crossing a loopback socket on the
/// epoll reactor through the wire codec. The shut-down cluster must show
/// frames on the wire, progress, per-thread metrics, session guarantees
/// and convergence.
#[expect(
    clippy::disallowed_methods,
    reason = "the TCP half sleeps wall-clock time while real sockets drain"
)]
pub fn check_net<P: ProtocolSpec>(dcs: u8, seed: u64) -> Result<ConformanceOutcome, String> {
    // Real sockets want the wall-clock tuning: no simulated skew, and
    // millisecond-scale control-plane periods (the sub-millisecond test
    // defaults are simulator-tuned — over TCP every tick is a frame plus
    // thread wakeups per server).
    let cfg = ClusterConfig::small().with_dcs(dcs).for_wall_clock();
    let cluster = NetCluster::start(
        build_nodes::<P>(&cfg, &conformance_clients(), seed),
        true,
        seed,
    );
    // Measure from the start: exercises the per-reactor metrics sinks
    // that are merged when the reactor threads join.
    cluster.set_measuring(true);
    std::thread::sleep(std::time::Duration::from_millis(250));
    cluster.stop_issuing();
    // Grace for in-flight operations, replication, and dependency checks to
    // drain before the nodes are stopped.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let (actors, metrics, history) = cluster.shutdown();

    let fail = |e: String| format!("{} (net): {e}", P::NAME);
    if metrics.counter("net.frames_sent") == 0 {
        return Err(fail(
            "no frames crossed the sockets — the run cannot have exercised the transport".into(),
        ));
    }
    if history.len() < 50 {
        return Err(fail(format!(
            "too little progress ({} events)",
            history.len()
        )));
    }
    if metrics.ops_done() == 0 {
        return Err(fail("per-thread metrics recorded no operations".into()));
    }
    check_sessions(&history).map_err(fail)?;

    let cfg = P::normalize(cfg);
    let servers: HashMap<Addr, &<P as ProtocolSpec>::Server> = actors
        .iter()
        .filter_map(|(addr, node)| node.as_server().map(|s| (*addr, s)))
        .collect();
    let keys_compared =
        check_convergence(&cfg, |dc, p| servers[&Addr::server(dc, p)].store_heads())
            .map_err(fail)?;

    Ok(ConformanceOutcome {
        ops: history.len(),
        keys_compared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(ts: u64) -> VersionId {
        VersionId::new(ts, DcId(0))
    }

    fn client() -> ClientId {
        ClientId::new(DcId(0), 0)
    }

    fn put(key: Key, v: VersionId) -> HistoryEvent {
        HistoryEvent::PutDone {
            client: client(),
            seq: 0,
            t_start: 0,
            t_end: 1,
            key,
            vid: v,
        }
    }

    fn rot(key: Key, read: Option<VersionId>) -> HistoryEvent {
        HistoryEvent::RotDone {
            client: client(),
            tx: contrarian_types::TxId::new(client(), 0),
            t_start: 2,
            t_end: 3,
            pairs: vec![(key, read)],
            values: vec![None],
        }
    }

    #[test]
    fn sessions_accept_monotone_reads() {
        let h = vec![
            put(Key(1), vid(10)),
            rot(Key(1), Some(vid(10))),
            rot(Key(1), Some(vid(12))),
        ];
        assert!(check_sessions(&h).is_ok());
    }

    #[test]
    fn sessions_reject_read_your_writes_violation() {
        let h = vec![put(Key(1), vid(10)), rot(Key(1), Some(vid(5)))];
        assert!(check_sessions(&h).is_err());
    }

    #[test]
    fn sessions_reject_backwards_reads_and_bottom_after_read() {
        let h = vec![rot(Key(2), Some(vid(9))), rot(Key(2), Some(vid(4)))];
        assert!(check_sessions(&h).is_err());
        let h2 = vec![rot(Key(2), Some(vid(9))), rot(Key(2), None)];
        assert!(check_sessions(&h2).is_err());
    }

    #[test]
    fn convergence_detects_divergent_heads() {
        let cfg = ClusterConfig::small().with_dcs(2).with_partitions(1);
        let err = check_convergence(&cfg, |dc, _| {
            vec![(Key(0), vid(if dc.0 == 0 { 10 } else { 11 }))]
        });
        assert!(err.is_err());
        let ok = check_convergence(&cfg, |_, _| vec![(Key(0), vid(10))]);
        assert_eq!(ok.unwrap(), 1);
    }
}
