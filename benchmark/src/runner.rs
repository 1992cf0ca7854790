//! The runner: plans a workload's rounds, re-executes this binary once
//! per round, and collects what the children report.

use crate::fields::{get, ratio, Fields};
use crate::json::Json;
use crate::machine;
use crate::workloads::{Rung, RuntimeKind, Workload};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Timed rounds of the TCP workload: three per rung.
pub const NET_ROUNDS: usize = 3;
/// Fewest `over` rounds of a simulator workload when end-to-end metrics
/// are wanted; more follow while the `--seconds` budget lasts.
pub const SIM_OVER_ROUNDS: usize = 3;
/// `over` rounds of a simulator workload in the all-workloads plan.
pub const SIM_OVER_ROUNDS_ALL: usize = 5;
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Job {
    /// One timed round. `cluster` picks the cluster realization: the seed
    /// of a simulated cluster also draws its servers' clock offsets, which
    /// move the physical-clock backend's latencies by +-15 %, so `mid` is
    /// read on several realizations and the median reported.
    Round {
        rung: Rung,
        cluster: u32,
    },
    Check,
    Replay,
    Layers,
}

/// Everything the children of one workload reported.
#[derive(Default)]
pub struct Collected {
    pub mid: Vec<Fields>,
    pub over: Vec<Fields>,
    pub check: Option<Fields>,
    /// The replay and the timed layer calls may run several times; each
    /// field is then read as the median over the runs.
    pub replay: Vec<Fields>,
    pub layers: Vec<Fields>,
    /// A child that panicked, timed out or printed nothing: not a missing
    /// row but a failed run.
    pub errors: Vec<String>,
}

impl Collected {
    pub fn measured_s(&self) -> f64 {
        self.mid
            .iter()
            .chain(&self.over)
            .map(|r| get(r, "window_wall_s"))
            .sum()
    }
}

pub struct Runner {
    pub exe: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub spans_out: Option<String>,
    pub spin_ns: Vec<f64>,
    pub pingpong_ns: Vec<f64>,
}

impl Runner {
    /// Runs one child to completion and parses the one JSON line it prints.
    fn child(&mut self, w: &Workload, job: Job) -> Result<Fields, String> {
        // Machine-epoch probes before every round: a reader can tell a slow
        // box from a slow commit.
        self.spin_ns.push(machine::spin_probe());
        self.pingpong_ns.push(machine::pingpong_probe());

        let mut cmd = Command::new(&self.exe);
        let (kind, cluster) = match job {
            Job::Round { cluster, .. } => ("rung", cluster),
            Job::Check => ("check", 0),
            Job::Replay => ("replay", 0),
            Job::Layers => ("layers", 0),
        };
        let seed = self
            .seed
            .wrapping_mul(1000)
            .wrapping_add(u64::from(cluster));
        cmd.args(["--child", kind, "--workload", w.name])
            .args(["--seed", &seed.to_string()]);
        if let Job::Round { rung, .. } = job {
            // The TCP workload's wall-clock windows: `--seconds` over three
            // rounds per rung, three quarters of it at `mid`, where the
            // percentiles need the samples.
            let share = match rung {
                Rung::Mid => 0.75,
                Rung::Over => 0.25,
            };
            let window_s = self.seconds * share / NET_ROUNDS as f64;
            cmd.args(["--rung", rung.name()])
                .args(["--window-s", &window_s.to_string()]);
        }
        if let (Job::Replay, Some(path)) = (job, &self.spans_out) {
            cmd.args(["--spans", path]);
        }
        // Engine and socket knobs must not leak in from the caller's shell.
        // lint:allow(env-registry): a prefix to strip, not a variable name
        let knob_prefix = "CONTRARIAN_";
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with(knob_prefix) {
                cmd.env_remove(k);
            }
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let t0 = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if t0.elapsed() > CHILD_TIMEOUT => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("timed out after {CHILD_TIMEOUT:?}"));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("wait: {e}"));
                }
            }
        };
        // A child prints one short line, far below the pipe's capacity, so
        // reading after it exited cannot deadlock.
        let mut text = String::new();
        if let Some(mut out) = child.stdout.take() {
            use std::io::Read;
            out.read_to_string(&mut text)
                .map_err(|e| format!("read: {e}"))?;
        }
        if !status.success() {
            return Err(format!("exited with {status}"));
        }
        let line = text.lines().rev().find(|l| !l.trim().is_empty());
        let parsed = Json::parse(line.ok_or("printed nothing")?)?;
        let fields = parsed.as_obj().ok_or("result is not an object")?;
        Ok(fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect())
    }

    pub fn run(&mut self, w: &Workload, job: Job, c: &mut Collected) {
        let t0 = Instant::now();
        let result = self.child(w, job);
        // One progress line per round, with the probes taken just before it.
        eprintln!(
            "[{}] {job:?}: {:.2}s  spin {:.1} ms  pingpong {:.1} us  {}",
            w.name,
            t0.elapsed().as_secs_f64(),
            self.spin_ns.last().copied().unwrap_or(0.0) / 1e6,
            self.pingpong_ns.last().copied().unwrap_or(0.0) / 1e3,
            match &result {
                Ok(m) if m.contains_key("cpu_ns") => format!(
                    "{:.3} cpu us/op",
                    ratio(get(m, "cpu_ns") / 1e3, get(m, "ops"))
                ),
                Ok(_) => String::new(),
                Err(_) => "FAILED".to_string(),
            }
        );
        match (job, result) {
            (_, Err(e)) => c.errors.push(format!("{job:?}: {e}")),
            (Job::Round { rung, cluster }, Ok(mut m)) => {
                m.insert("cluster".to_string(), f64::from(cluster));
                match rung {
                    Rung::Mid => c.mid.push(m),
                    Rung::Over => c.over.push(m),
                }
            }
            (Job::Check, Ok(m)) => c.check = Some(m),
            (Job::Replay, Ok(m)) => c.replay.push(m),
            (Job::Layers, Ok(m)) => c.layers.push(m),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Want {
    EndToEnd,
    PerLayer,
    Both,
}

/// The rounds of one workload, in order. Rungs alternate so that each
/// rung's repeats span the workload's whole share of the invocation.
pub fn plan(w: &Workload, want: Want) -> Vec<Job> {
    use Job::{Check, Layers, Replay};
    let mid = |cluster| Job::Round {
        rung: Rung::Mid,
        cluster,
    };
    if want == Want::PerLayer {
        return vec![mid(0), OVER, Check, Replay, Layers];
    }
    let (mids, overs): (Vec<Job>, usize) = match w.runtime {
        RuntimeKind::Net => (vec![mid(0); NET_ROUNDS], NET_ROUNDS),
        RuntimeKind::Sim => (
            // The first realization twice: the two must agree to the bit.
            std::iter::once(0)
                .chain(0..w.mid_clusters)
                .map(mid)
                .collect(),
            if want == Want::Both {
                SIM_OVER_ROUNDS_ALL
            } else {
                SIM_OVER_ROUNDS
            },
        ),
    };
    let mut jobs = Vec::new();
    for i in 0..mids.len().max(overs) {
        jobs.extend(mids.get(i));
        if i < overs {
            jobs.push(OVER);
        }
    }
    jobs.push(Check);
    if want == Want::Both {
        jobs.extend([Replay, Layers]);
    }
    jobs
}

pub const OVER: Job = Job::Round {
    rung: Rung::Over,
    cluster: 0,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn plans_alternate_rungs_and_repeat_the_first_cluster() {
        let sim = &WORKLOADS[0];
        let jobs = plan(sim, Want::EndToEnd);
        let mids: Vec<u32> = jobs
            .iter()
            .filter_map(|j| match j {
                Job::Round {
                    rung: Rung::Mid,
                    cluster,
                } => Some(*cluster),
                _ => None,
            })
            .collect();
        assert_eq!(mids, [0, 0, 1, 2], "first realization twice, then the rest");
        assert_eq!(jobs.iter().filter(|j| **j == OVER).count(), SIM_OVER_ROUNDS);
        assert_eq!(jobs[1], OVER, "rungs alternate");
        assert_eq!(jobs.last(), Some(&Job::Check));

        let net = &WORKLOADS[4];
        let jobs = plan(net, Want::Both);
        assert_eq!(jobs.iter().filter(|j| **j == OVER).count(), NET_ROUNDS);
        assert_eq!(
            &jobs[jobs.len() - 3..],
            [Job::Check, Job::Replay, Job::Layers]
        );
        assert_eq!(plan(net, Want::PerLayer).len(), 5);
    }
}
