//! The Section-6 theory harness: Theorem 1 ("the cost of latency-optimal
//! ROTs is inherent and grows linearly with the number of clients") made
//! executable on the simulator every other run uses.
//!
//! The paper's adversarial schedule E* (Figure 10) is a link hold on the
//! real runtime. Each reader's `ROT(x, y)` starts before `X1` is written,
//! so its read of x reaches px first, while its link to py is held
//! ([`Sim::hold_link`]) until `Y1` has completed, so its read of y arrives
//! after `Y1`. [`run_estar`] runs that schedule on any [`EStar`] backend
//! through the same builder, client loop, engine and checker as every other
//! run. Three artifacts:
//!
//! 1. **The straw-man refutation** (end of Section 6): [`Strawman`] serves
//!    one-round, one-version, nonblocking ROTs using only Lamport
//!    timestamps, *without* communicating readers, and returns `(X0, Y1)`
//!    under E*; the checker catches the snapshot.
//! 2. **The same schedule against CC-LO** ([`CcLo`]): the readers check
//!    blocks the old readers from `Y1`, so the execution stays causally
//!    consistent.
//! 3. **Lemma 1, executably** ([`distinguishability`]): running the
//!    schedule for every subset `R ⊆ D` of readers yields pairwise distinct
//!    readers-check transcripts (the old readers py sealed into `Y1`) —
//!    `2^|D|` distinguishable behaviours need at least `|D|` bits, Lemma 2's
//!    counting argument.

use crate::checker::{check_causal, CheckReport};
use contrarian_cclo::msg::Msg as CMsg;
use contrarian_cclo::{CcLo, DepSession};
use contrarian_clock::LogicalClock;
use contrarian_protocol::{
    build_cluster, Clients, ClusterParams, ProtoNode, ProtocolServer, ProtocolSpec, SchedKind,
};
use contrarian_runtime::actor::{ActorCtx, TimerKind};
use contrarian_runtime::cost::CostModel;
use contrarian_sim::sim::Sim;
use contrarian_types::{
    Addr, ClusterConfig, DcId, HistoryEvent, Key, Op, PartitionId, TxId, Value, VersionId,
};
use rand::rngs::SmallRng;
use std::collections::{BTreeMap, BTreeSet};

fn py() -> Addr {
    Addr::server(DcId(0), PartitionId(1))
}

fn x() -> Key {
    Key(0) // partition 0 of 4
}

fn y() -> Key {
    Key(1) // partition 1 of 4
}

/// The writer: queue client 0.
fn cw() -> Addr {
    Addr::client(DcId(0), 0)
}

/// Potential reader `i` of `D`: queue client `1 + i`, so a reader keeps its
/// id whichever subset it runs in.
fn reader(i: u16) -> Addr {
    Addr::client(DcId(0), 1 + i)
}

/// What one E* execution produced.
pub struct ScenarioResult {
    /// The full client-observable history (feed to the checker).
    pub history: Vec<HistoryEvent>,
    /// The readers-check transcript: the (ROT id, read time) pairs py
    /// sealed into `Y1`'s old-reader record (empty for the straw-man,
    /// which never communicates readers).
    pub transcript: Vec<(TxId, u64)>,
    /// What each reader's ROT returned for (x, y).
    pub reads: Vec<(TxId, Option<VersionId>, Option<VersionId>)>,
    /// What a ROT the writer started after `Y1` completed returned.
    pub fresh: (Option<VersionId>, Option<VersionId>),
    pub x0: VersionId,
    pub y0: VersionId,
    pub x1: VersionId,
    pub y1: VersionId,
}

impl ScenarioResult {
    pub fn check(&self) -> CheckReport {
        check_causal(&self.history)
    }
}

/// A backend E* runs on: a [`ProtocolSpec`] whose server shows which ROTs
/// it keeps from a version, the readers-check transcript Lemma 1 counts.
pub trait EStar: ProtocolSpec {
    /// The (ROT id, read time) pairs `server` sealed into `vid` of `key`.
    fn sealed_readers(server: &Self::Server, key: Key, vid: VersionId) -> Vec<(TxId, u64)>;
}

impl EStar for CcLo {
    fn sealed_readers(
        server: &contrarian_cclo::Server,
        key: Key,
        vid: VersionId,
    ) -> Vec<(TxId, u64)> {
        let (version, _) = server.store().read_visible(key, |v| v.vid == vid);
        version
            .expect("the version installed")
            .meta
            .entries()
            .to_vec()
    }
}

// ---------------------------------------------------------------------------
// The straw-man: one-round ROTs on bare Lamport clocks, no reader tracking.
// ---------------------------------------------------------------------------

/// A "latency-optimal" backend with no readers check: CC-LO's messages
/// and client session over [`HeadServer`]. Lamport timestamps are tracked
/// faithfully — the point of the paper's remark is that logical time
/// *alone* cannot replace communicating readers.
pub struct Strawman;

/// [`Strawman`]'s partition server: it answers a `PutReq` or a `RotRead`
/// at once from the head, on a Lamport clock, and counts anything else
/// (or a stamp the clock cannot move past) in `rejected_msgs`.
pub struct HeadServer {
    dc: DcId,
    lamport: LogicalClock,
    heads: BTreeMap<Key, (VersionId, Value)>,
}

impl ProtocolSpec for Strawman {
    type Msg = CMsg;
    type Server = HeadServer;
    type Session = DepSession;

    const NAME: &'static str = "straw-man";

    fn server(addr: Addr, _cfg: &ClusterConfig, _rng: &mut SmallRng) -> HeadServer {
        HeadServer {
            dc: addr.dc,
            lamport: LogicalClock::new(),
            heads: BTreeMap::new(),
        }
    }
}

impl EStar for Strawman {
    fn sealed_readers(_: &HeadServer, _: Key, _: VersionId) -> Vec<(TxId, u64)> {
        Vec::new()
    }
}

impl ProtocolServer for HeadServer {
    type Msg = CMsg;

    fn on_start(&mut self, _ctx: &mut dyn ActorCtx<CMsg>) {}

    fn on_message(&mut self, ctx: &mut dyn ActorCtx<CMsg>, from: Addr, msg: CMsg) {
        let reply = match msg {
            CMsg::PutReq {
                key,
                value,
                lamport,
                ..
            } => self.lamport.observe(lamport).map(|ts| {
                let vid = VersionId::new(ts, self.dc);
                self.heads.insert(key, (vid, value));
                CMsg::PutResp {
                    key,
                    vid,
                    lamport: ts,
                }
            }),
            CMsg::RotRead { tx, keys, lamport } => self.lamport.observe(lamport).map(|t| {
                let pairs = keys
                    .into_iter()
                    .map(|k| (k, self.heads.get(&k).cloned()))
                    .collect();
                CMsg::RotSlice {
                    tx,
                    pairs,
                    lamport: t,
                }
            }),
            _ => None,
        };
        match reply {
            Some(reply) => ctx.send(from, reply),
            None => ctx.metrics().rejected(),
        }
    }

    fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<CMsg>, _kind: TimerKind) {}

    fn store_heads(&self) -> Vec<(Key, VersionId)> {
        self.heads.iter().map(|(k, (vid, _))| (*k, *vid)).collect()
    }
}

// ---------------------------------------------------------------------------
// The E* schedule on the simulator.
// ---------------------------------------------------------------------------

/// Virtual time each step of the schedule runs for: far beyond one
/// operation's latency under the functional cost model (tens of µs).
const STEP_NS: u64 = 1_000_000;

/// Runs the E* schedule of Figure 10 on backend `P`. `readers` lists the
/// indices of the subset `R ⊆ D` of potential readers issuing `ROT(x, y)`
/// at `t1`.
pub fn run_estar<P: EStar>(readers: &[u16]) -> ScenarioResult {
    estar::<P>(readers, SchedKind::default())
}

fn estar<P: EStar>(readers: &[u16], sched: SchedKind) -> ScenarioResult {
    let clients = 1 + readers.iter().max().map_or(0, |r| r + 1);
    let params = ClusterParams {
        cfg: ClusterConfig::small(),
        cost: CostModel::functional(),
        clients: Clients::Queue(clients),
        seed: 0xE57A,
    };
    let mut sim = build_cluster::<P>(&params, sched);
    sim.set_recording(true);
    sim.start();
    let step = |sim: &mut Sim<ProtoNode<P>>, ops: Vec<(Addr, Op)>| {
        for (client, op) in ops {
            sim.inject_op(client, op);
        }
        sim.run_until(sim.now() + STEP_NS);
    };
    let put = |key, value| vec![(cw(), Op::Put(key, Value::from_static(value)))];
    let rot = || Op::Rot(vec![x(), y()]);

    // cw's causal chain X0 ; Y0 ; X1 ; Y1, each PUT issued once the
    // previous one completed.
    step(&mut sim, put(x(), b"x0"));
    step(&mut sim, put(y(), b"y0"));
    // t1: the readers' ROTs start. Their reads of x reach px before X1;
    // their reads of y wait on held links until Y1 has completed.
    let held = sim.now() + 3 * STEP_NS;
    for &r in readers {
        sim.hold_link(reader(r), py(), held);
    }
    step(
        &mut sim,
        readers.iter().map(|&r| (reader(r), rot())).collect(),
    );
    step(&mut sim, put(x(), b"x1"));
    // The dangerous PUT: Y1 depends on X1, so a latency-optimal protocol
    // must learn x's old readers before Y1 becomes visible — the
    // communication Theorem 1 proves unavoidable.
    step(&mut sim, put(y(), b"y1"));
    step(&mut sim, Vec::new());
    // A ROT that starts after Y1 completed.
    step(&mut sim, vec![(cw(), rot())]);

    let history = sim.drain_history();
    let writes: Vec<(VersionId, u64)> = history
        .iter()
        .filter_map(|ev| match ev {
            HistoryEvent::PutDone { vid, t_end, .. } => Some((*vid, *t_end)),
            HistoryEvent::RotDone { .. } => None,
        })
        .collect();
    let [(x0, _), (y0, _), (x1, _), (y1, y1_done)] = writes[..] else {
        panic!(
            "{}: cw's four PUTs did not all complete: {writes:?}",
            P::NAME
        );
    };
    assert!(y1_done < held, "{}: Y1 completed after the hold", P::NAME);
    let read_of = |a: Addr| {
        let rot = history.iter().find_map(|ev| match ev {
            HistoryEvent::RotDone {
                client, tx, pairs, ..
            } if *client == a.client_id() => Some((*tx, pairs)),
            _ => None,
        });
        let (tx, pairs) = rot.unwrap_or_else(|| panic!("{}: {a}'s ROT did not complete", P::NAME));
        let get = |key| pairs.iter().find(|p| p.0 == key).and_then(|p| p.1);
        (tx, get(x()), get(y()))
    };
    let reads = readers.iter().map(|&r| read_of(reader(r))).collect();
    let (_, fx, fy) = read_of(cw());
    let py_server = sim.actor(py()).as_server().expect("py is a server");
    ScenarioResult {
        transcript: P::sealed_readers(py_server, y(), y1),
        history,
        reads,
        fresh: (fx, fy),
        x0,
        y0,
        x1,
        y1,
    }
}

/// Lemma 1 made executable: runs the schedule for **every** subset of `n`
/// potential readers and reports how many distinct px→py transcripts the
/// executions produced. If all `2^n` differ, the worst-case readers-check
/// communication carries at least `n` bits (Lemma 2).
pub struct DistinguishResult {
    pub n_clients: u16,
    pub executions: usize,
    pub distinct_transcripts: usize,
    pub min_bits: u32,
    pub max_transcript_ids: usize,
}

pub fn distinguishability(n_clients: u16) -> DistinguishResult {
    assert!(n_clients <= 12, "2^n executions — keep n small");
    let mut transcripts: BTreeSet<Vec<(TxId, u64)>> = BTreeSet::new();
    let mut max_ids = 0;
    let total = 1usize << n_clients;
    for mask in 0..total {
        let readers: Vec<u16> = (0..n_clients)
            .filter(|i| mask & (1usize << i) != 0)
            .collect();
        let res = run_estar::<CcLo>(&readers);
        // Every execution must also be causally consistent.
        let report = res.check();
        assert!(
            report.ok(),
            "CC-LO violated causality for R={readers:?}: {:?}",
            report.violations
        );
        max_ids = max_ids.max(res.transcript.len());
        transcripts.insert(res.transcript);
    }
    DistinguishResult {
        n_clients,
        executions: total,
        distinct_transcripts: transcripts.len(),
        min_bits: (transcripts.len() as f64).log2().ceil() as u32,
        max_transcript_ids: max_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strawman_violates_causal_consistency() {
        let res = run_estar::<Strawman>(&[0, 1, 2]);
        // Every reader saw (X0, Y1): the forbidden snapshot.
        for (_, vx, vy) in &res.reads {
            assert_eq!(*vx, Some(res.x0));
            assert_eq!(*vy, Some(res.y1));
        }
        let report = res.check();
        assert!(!report.ok(), "the straw-man must violate causality");
        assert!(report.violations[0].contains("causal snapshot violation"));
    }

    #[test]
    fn cclo_survives_the_same_schedule() {
        let res = run_estar::<CcLo>(&[0, 1, 2]);
        for (tx, vx, vy) in &res.reads {
            assert_eq!(*vx, Some(res.x0), "{tx} read x before X1");
            assert_ne!(*vy, Some(res.y1), "{tx} must not see Y1");
            assert_eq!(
                *vy,
                Some(res.y0),
                "{tx} gets the version before its read time"
            );
        }
        let report = res.check();
        assert!(report.ok(), "{:?}", report.violations);
        // And the protection was paid for in communication: px told py
        // about all three readers.
        assert_eq!(res.transcript.len(), 3);
    }

    #[test]
    fn fresh_rots_still_see_y1() {
        // Eventual visibility: a reader that was NOT an old reader of x
        // observes the newest y.
        let res = run_estar::<CcLo>(&[]);
        assert!(res.transcript.is_empty());
        assert!(res.check().ok());
        assert_eq!(res.fresh, (Some(res.x1), Some(res.y1)));
        // Also while old readers are kept from Y1.
        let res = run_estar::<CcLo>(&[0, 1, 2]);
        assert_eq!(res.fresh, (Some(res.x1), Some(res.y1)));
    }

    #[test]
    fn transcripts_distinguish_every_reader_subset() {
        let r = distinguishability(5);
        assert_eq!(r.executions, 32);
        assert_eq!(
            r.distinct_transcripts, 32,
            "Lemma 1: different readers, different messages"
        );
        assert_eq!(
            r.min_bits, 5,
            "Lemma 2: at least |D| bits in the worst case"
        );
        assert_eq!(r.max_transcript_ids, 5, "worst case carries every client");
    }

    #[test]
    fn communication_grows_linearly_with_readers() {
        for n in [1u16, 3, 6] {
            let res = run_estar::<CcLo>(&(0..n).collect::<Vec<_>>());
            assert_eq!(res.transcript.len(), n as usize);
            for (tx, vx, vy) in &res.reads {
                assert_eq!((*vx, *vy), (Some(res.x0), Some(res.y0)), "{tx}");
            }
            assert!(res.check().ok(), "{:?}", res.check().violations);
        }
    }

    #[test]
    fn estar_histories_are_identical_on_both_engines() {
        let run = |sched| {
            let strawman = estar::<Strawman>(&[0, 2], sched);
            let cclo = estar::<CcLo>(&[0, 2], sched);
            format!(
                "{:?} {:?} {:?}",
                strawman.history, cclo.history, cclo.transcript
            )
        };
        let want = run(SchedKind::Calendar);
        for sched in contrarian_sim::ENGINES {
            assert_eq!(run(sched), want, "{sched:?}");
        }
    }
}
