//! What a child process runs: one round, one checker pass, the replay,
//! or the timed layer calls. It prints one JSON line and exits.

use crate::fields::{put, ratio, Fields};
use crate::json::Json;
use crate::layers;
use crate::replay::{self, layer_times, Layer, Replay};
use crate::rungs::{net_check, net_rung, sim_check, sim_rung};
use crate::with_backend;
use crate::workloads::{Rung, RuntimeKind, Workload};
use crate::Args;
use contrarian_protocol::ProtocolSpec;
use std::time::Duration;

/// Virtual warm-up and target operation count of the replay window.
const REPLAY_WARMUP_NS: u64 = 20_000_000;
const REPLAY_OPS: f64 = 20_000.0;

fn replay_child<P: ProtocolSpec>(w: &Workload, seed: u64, spans_out: Option<&str>) -> Fields {
    let window = (REPLAY_OPS / w.mid_rate * 1e9) as u64;
    let run = |traced| Replay::<P>::new(w, seed).run(REPLAY_WARMUP_NS, window, traced);
    // Spans-off runs bracket the traced one; the quieter of the two is the
    // base the tracing overhead is taken against.
    let before = run(false);
    let traced = run(true);
    let after = run(false);
    assert_eq!(before.ops, traced.ops, "replay must repeat exactly");
    let plain = if after.wall_ns < before.wall_ns {
        &after
    } else {
        &before
    };
    if let Some(path) = spans_out {
        if let Err(e) = replay::write_spans(path, &traced.spans) {
            eprintln!("could not write spans to {path}: {e}");
        }
    }
    let t = layer_times(&traced.spans, traced.clock_floor_ns);
    let ops = traced.ops as f64;
    let per_op = |l: Layer| ratio(t.self_ns[l as usize] as f64, ops);
    let mut out = Fields::new();
    put(
        &mut out,
        [
            ("replay_ops", ops),
            ("draw_ns_per_op", per_op(Layer::Draw)),
            ("sched_ns_per_op", per_op(Layer::Sched)),
            (
                "sched_ops_per_op",
                ratio(traced.counts.sched_ops as f64, ops),
            ),
            ("server_ns_per_op", per_op(Layer::Server)),
            (
                "server_calls_per_op",
                ratio(traced.counts.server_calls as f64, ops),
            ),
            ("client_ns_per_op", per_op(Layer::Client)),
            ("timer_ns_per_op", per_op(Layer::Timer)),
            ("encode_ns_per_op", per_op(Layer::Encode)),
            ("decode_ns_per_op", per_op(Layer::Decode)),
            (
                "encoded_bytes_per_msg",
                ratio(
                    traced.counts.encoded_bytes as f64,
                    traced.counts.msgs as f64,
                ),
            ),
            ("frame_ns_per_op", per_op(Layer::Frame)),
            (
                "self_ns_per_op",
                ratio(traced.wall_ns.saturating_sub(t.covered_ns) as f64, ops),
            ),
            (
                "replay_cpu_us_per_op",
                ratio(plain.cpu_ns as f64 / 1e3, ops),
            ),
            (
                "coverage_frac",
                ratio(t.covered_ns as f64, traced.wall_ns as f64),
            ),
            (
                "trace_overhead_frac",
                ratio(
                    traced.wall_ns as f64 - plain.wall_ns as f64,
                    plain.wall_ns as f64,
                ),
            ),
        ],
    );
    out
}

pub fn child_main(kind: &str, args: &Args) -> Result<(), String> {
    let w = args.workload()?.ok_or("--child needs --workload")?;
    let seed = args.seed()?;
    let fields: Fields = match kind {
        "rung" => {
            let rung = args
                .get("rung")
                .and_then(Rung::parse)
                .ok_or("--child rung needs --rung mid|over")?;
            match w.runtime {
                RuntimeKind::Sim => with_backend!(w.backend, sim_rung(w, rung, seed)),
                RuntimeKind::Net => {
                    let window = Duration::from_secs_f64(args.number("window-s")?.unwrap_or(2.0));
                    with_backend!(w.backend, net_rung(w, rung, seed, window))
                }
            }
        }
        "check" => match w.runtime {
            RuntimeKind::Sim => with_backend!(w.backend, sim_check(w, seed)),
            RuntimeKind::Net => with_backend!(w.backend, net_check(w, seed)),
        },
        "replay" => with_backend!(w.backend, replay_child(w, seed, args.get("spans"))),
        "layers" => layers::layers(w, seed),
        other => return Err(format!("unknown child kind `{other}`")),
    };
    let mut line = Json::obj();
    for (k, v) in &fields {
        line.set(k, Json::Num(*v));
    }
    println!("{}", line.encode());
    Ok(())
}
