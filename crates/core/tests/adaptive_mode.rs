//! The adaptive per-ROT mode (Section 5.7's proposed optimization): small
//! ROTs take the low-latency 1½-round path, large ROTs the message-frugal
//! 2-round path.

use contrarian_core::msg::Msg;
use contrarian_core::{Client, Contrarian, Node};
use contrarian_protocol::{build_cluster, Clients, ClusterParams, SchedKind};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::testkit::ScriptCtx;
use contrarian_types::{Addr, ClusterConfig, DcId, Key, Op, RotMode};
use contrarian_workload::WorkloadSpec;

fn adaptive_client(threshold: u16) -> (Client, ScriptCtx<Msg>) {
    let mut cfg = ClusterConfig::small().with_partitions(4);
    cfg.rot_mode = RotMode::Adaptive {
        two_round_at: threshold,
    };
    let addr = Addr::client(DcId(0), 0);
    (Client::new(addr, &cfg, None), ScriptCtx::new(addr))
}

#[test]
fn for_rot_resolves_threshold() {
    let m = RotMode::Adaptive { two_round_at: 3 };
    assert_eq!(m.for_rot(2), RotMode::OneHalfRound);
    assert_eq!(m.for_rot(3), RotMode::TwoRound);
    assert_eq!(m.for_rot(24), RotMode::TwoRound);
    // Fixed modes resolve to themselves.
    assert_eq!(RotMode::OneHalfRound.for_rot(24), RotMode::OneHalfRound);
    assert_eq!(RotMode::TwoRound.for_rot(1), RotMode::TwoRound);
}

#[test]
fn small_rot_takes_one_and_a_half_rounds() {
    let (mut c, mut ctx) = adaptive_client(3);
    let a = ctx.node.addr;
    c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0), Key(1)])));
    let sent = ctx.drain_sent();
    assert_eq!(sent.len(), 1);
    assert!(
        matches!(sent[0].1, Msg::RotReq { .. }),
        "2 partitions < 3 → 1½-round path"
    );
}

#[test]
fn large_rot_takes_two_rounds() {
    let (mut c, mut ctx) = adaptive_client(3);
    let a = ctx.node.addr;
    c.on_message(
        &mut ctx,
        a,
        Msg::Inject(Op::Rot(vec![Key(0), Key(1), Key(2), Key(3)])),
    );
    let sent = ctx.drain_sent();
    assert_eq!(sent.len(), 1);
    assert!(
        matches!(sent[0].1, Msg::RotSnapReq { .. }),
        "4 partitions ≥ 3 → 2-round path"
    );
}

#[test]
fn adaptive_cluster_serves_mixed_modes_consistently() {
    let mut cfg = ClusterConfig::small();
    cfg.rot_mode = RotMode::Adaptive { two_round_at: 3 };
    let params = ClusterParams {
        cfg,
        cost: CostModel::functional(),
        clients: Clients::Closed {
            workload: WorkloadSpec::paper_default().with_rot_size(4), // all large
            per_dc: 4,
        },
        seed: 3,
    };
    let mut sim = build_cluster::<Contrarian>(&params, SchedKind::default());
    sim.set_recording(true);
    sim.start();
    sim.metrics_mut().enabled = true;
    sim.run_until(30_000_000);
    assert!(sim.metrics().rots_done > 50);
    // Mixed-size interactive checks live in the root test suite; here the
    // point is simply that the adaptive client completes ROTs end to end.
}

#[test]
fn adaptive_node_variant_round_trips_ops() {
    let mut cfg = ClusterConfig::small();
    cfg.rot_mode = RotMode::Adaptive { two_round_at: 2 };
    let mut sim =
        contrarian_sim::sim::Sim::with_scheduler(CostModel::functional(), 8, SchedKind::default());
    for p in 0..cfg.n_partitions {
        let addr = Addr::server(DcId(0), contrarian_types::PartitionId(p));
        sim.add_server(
            addr,
            Node::Server(contrarian_core::Server::new(
                addr,
                cfg.clone(),
                contrarian_clock::PhysicalClockModel::perfect(),
            )),
            2,
        );
    }
    let client = Addr::client(DcId(0), 0);
    sim.add_client(client, Node::Client(Client::new(client, &cfg, None)));
    sim.set_recording(true);
    sim.start();

    sim.inject_op(client, Op::Put(Key(1), "x".into()));
    sim.run_until(10_000_000);
    // A 3-partition ROT (≥ threshold 2): the 2-round path must still return
    // a complete snapshot.
    sim.inject_op(client, Op::Rot(vec![Key(0), Key(1), Key(2)]));
    sim.run_until(20_000_000);
    let rot = sim
        .history()
        .iter()
        .find_map(|ev| match ev {
            contrarian_types::HistoryEvent::RotDone { pairs, values, .. } => {
                Some((pairs.clone(), values.clone()))
            }
            _ => None,
        })
        .expect("ROT completed");
    assert_eq!(rot.0.len(), 3);
    let v1 = rot.0.iter().position(|(k, _)| *k == Key(1)).unwrap();
    assert_eq!(rot.1[v1].as_deref(), Some(&b"x"[..]));
}
