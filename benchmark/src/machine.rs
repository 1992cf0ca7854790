//! What the machine is doing: process CPU/memory/context-switch readings
//! from `/proc`, the two machine-epoch probes, and the report's `meta`.

use crate::json::Json;
use std::fs;
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::Instant;

/// Reads `/proc/self/task/*/<file>` for every live thread.
fn per_task(file: &str) -> Vec<String> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| fs::read_to_string(e.path().join(file)).ok())
        .collect()
}

/// CPU time consumed by the live threads of this process, ns.
///
/// Summed from each task's `schedstat` run time. The kernel brings a
/// running task's figure up to date at its 4 ms scheduler tick, so a
/// reading is good to about a tick per thread: fine for a window of a
/// second, not for one of milliseconds. Threads that exited are not
/// included, so take both readings of a window while the same threads are
/// alive.
pub fn cpu_ns() -> u64 {
    per_task("schedstat")
        .iter()
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `(user, system)` CPU time of the whole process from `/proc/self/stat`,
/// in clock ticks. Only the ratio is used (`net.sys_cpu_frac`).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after `)`.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut it = rest.split_whitespace().skip(11);
    let utime = it.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime = it.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (utime, stime)
}

/// Voluntary + involuntary context switches over all live threads.
pub fn ctx_switches() -> u64 {
    per_task("status")
        .iter()
        .flat_map(|s| s.lines())
        .filter(|l| l.contains("ctxt_switches"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn vm_hwm_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Iterations of the spin kernel: about 100 ms on the box the benchmark
/// was defined on. Fixed, so the reading compares machines and epochs.
const SPIN_ITERS: u64 = 60_000_000;

/// `machine.spin_ns`: wall time of a fixed dependent multiply-xorshift
/// chain. Pure ALU work in registers: it moves with clock frequency and
/// CPU steal, not with cache or memory pressure.
pub fn spin_probe() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_ITERS {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64
}

const PINGPONG_ROUNDS: u32 = 2_000;

/// `machine.pingpong_ns`: mean round trip of one byte between two threads
/// over a pair of pipes — two wake-ups and four syscalls, the unit cost the
/// TCP workload pays per message hop.
pub fn pingpong_probe() -> f64 {
    let (Ok((mut a_rx, mut a_tx)), Ok((mut b_rx, mut b_tx))) = (std::io::pipe(), std::io::pipe())
    else {
        return 0.0;
    };
    let echo = std::thread::spawn(move || {
        let mut byte = [0u8; 1];
        while a_rx.read_exact(&mut byte).is_ok() {
            if b_tx.write_all(&byte).is_err() {
                break;
            }
        }
    });
    let mut byte = [1u8; 1];
    let t0 = Instant::now();
    let mut ok = true;
    for _ in 0..PINGPONG_ROUNDS {
        ok &= a_tx.write_all(&byte).is_ok() && b_rx.read_exact(&mut byte).is_ok();
    }
    let ns = t0.elapsed().as_nanos() as f64 / PINGPONG_ROUNDS as f64;
    drop(a_tx); // EOF ends the echo thread
    let joined = echo.join().is_ok();
    if ok && joined {
        ns
    } else {
        0.0
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what the numbers were taken.
pub fn meta() -> Json {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    let mut m = Json::obj();
    m.set("nproc", Json::Num(nproc as f64))
        .set("cpu_model", Json::Str(model))
        .set(
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        )
        .set(
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        );
    m
}
