//! The metric tables: names, units, directions, estimators and bounds.
//! `BENCHMARK.json` lists the same names, units, directions and bounds; a
//! unit test holds the two together.

use crate::stats::Estimator;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would quote.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// How per-round samples collapse on a simulator workload: virtual
    /// values repeat exactly for one seed, `mid` latencies take the median
    /// over cluster realizations, host values take the quiet round ...
    pub sim: Estimator,
    /// ... and on the TCP workload, where every value is wall clock.
    pub net: Estimator,
}

use Better::{Higher, Lower};
use Estimator::{Exact, Max, Median, Min, SlicewiseMin};

pub const END_TO_END: [EndToEnd; 8] = [
    // Build -> first measured instant; fixed warm-up sleeps excluded.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        sim: Median,
        net: Median,
    },
    // Latencies are read at `mid`, clocked from the scheduled arrival.
    EndToEnd {
        name: "rot_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
        sim: Median,
        net: Min,
    },
    EndToEnd {
        name: "rot_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.2,
        sim: Median,
        net: Min,
    },
    EndToEnd {
        name: "put_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.1,
        sim: Median,
        net: Min,
    },
    EndToEnd {
        name: "put_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.2,
        sim: Median,
        net: Min,
    },
    // Goodput at `over`: the backlog grows, so goodput is capacity.
    EndToEnd {
        name: "peak_ops_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.06,
        sim: Exact,
        net: Max,
    },
    // Host time over completed operations at `over`: at saturation nothing
    // idles, so the figure prices work and not wake-ups. The widest bound
    // but set-up's: on a shared host the same binary reads 15 % apart
    // from one quarter of an hour to the next.
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Lower,
        bound: 0.25,
        sim: SlicewiseMin,
        net: Min,
    },
    // VmHWM of the `over` child.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
        sim: Median,
        net: Median,
    },
];

/// A single layer's reading. No bound: these explain, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Mirrors `BENCHMARK.json`; only the test that compares the two reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 47] = [
    // (A) public counters after the timed rounds.
    layer("sim.events_per_op", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("runtime.msgs_per_op", "count", Lower),
    layer("runtime.wire_bytes_per_op", "bytes", Lower),
    layer("runtime.server_util_mid", "fraction", Lower),
    layer("runtime.server_util_over", "fraction", Higher),
    layer("protocol.block_p99_ms", "ms", Lower),
    layer("protocol.gss_lag_p50", "ticks", Lower),
    layer("protocol.vis_p99_ms", "ms", Lower),
    layer("storage.data_stale_p99_ms", "ms", Lower),
    layer("cclo.check_ids_per_put", "count", Lower),
    layer("cclo.check_bytes_per_put", "bytes", Lower),
    layer("net.frames_per_op", "count", Lower),
    layer("net.bytes_per_op", "bytes", Lower),
    layer("net.sockets", "count", Lower),
    layer("net.io_threads", "count", Lower),
    layer("net.sys_cpu_frac", "fraction", Lower),
    layer("net.ctx_switches_per_op", "count", Lower),
    layer("net.cpu_us_per_op_mid", "us", Lower),
    layer("alloc.count_per_op", "count", Lower),
    layer("alloc.bytes_per_op", "bytes", Lower),
    layer("workload.failed_ops_frac", "fraction", Lower),
    layer("machine.spin_ns", "ns", Lower),
    layer("machine.pingpong_ns", "ns", Lower),
    // (B) the traced replay: spans and counts around calls into layers.
    layer("workload.draw_ns_per_op", "ns", Lower),
    layer("sim.sched_ns_per_op", "ns", Lower),
    layer("sim.sched_ops_per_op", "count", Lower),
    layer("backend.server_ns_per_op", "ns", Lower),
    layer("backend.server_calls_per_op", "count", Lower),
    layer("backend.client_ns_per_op", "ns", Lower),
    layer("protocol.timer_ns_per_op", "ns", Lower),
    layer("types.encode_ns_per_op", "ns", Lower),
    layer("types.decode_ns_per_op", "ns", Lower),
    layer("types.encoded_bytes_per_msg", "bytes", Lower),
    layer("runtime.frame_ns_per_op", "ns", Lower),
    layer("replay.self_ns_per_op", "ns", Lower),
    layer("replay.cpu_us_per_op", "us", Lower),
    layer("replay.coverage_frac", "fraction", Higher),
    layer("replay.trace_overhead_frac", "fraction", Lower),
    // (C) timed calls on workload-derived inputs.
    layer("storage.read_ns", "ns", Lower),
    layer("storage.put_ns", "ns", Lower),
    layer("storage.versions_scanned_per_read", "count", Lower),
    layer("cclo.records_query_ns", "ns", Lower),
    layer("runtime.hist_record_ns", "ns", Lower),
    layer("harness.checker_feed_ns_per_event", "ns", Lower),
    layer("harness.checker_events", "count", Higher),
    layer("harness.checker_violations", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::{RuntimeKind, WORKLOADS};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let b = benchmark_json();
        let e2e = field(&b, "end_to_end").as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(field(j, "better").as_str(), Some(m.better.name()));
            assert_eq!(field(j, "bound").as_f64(), Some(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        let layers = field(&b, "per_layer").as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(field(j, "better").as_str(), Some(m.better.name()));
        }
        // The driver gates on the simulator workloads; the TCP workload runs
        // by name and in the full report only (README: its every number
        // follows the host's epochs).
        let gated: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| w.runtime == RuntimeKind::Sim)
            .map(|w| w.name)
            .collect();
        let listed = field(&b, "workloads").as_arr().unwrap();
        let names: Vec<&str> = listed
            .iter()
            .map(|j| field(j, "name").as_str().unwrap())
            .collect();
        assert_eq!(names, gated);
        for j in listed {
            let why = field(j, "why").as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
