//! The original map-based causal checker, kept as a test-only differential
//! oracle.
//!
//! This is the two-pass implementation the frontier-compressed
//! [`contrarian_harness::checker`] replaced: it materializes, for every version, its
//! entire causal past as a per-key max-version map (`Rc<HashMap<Key,
//! VersionId>>`). That representation is simple to audit — the snapshot
//! check is a direct transcription of Section 2.2 — but its cost grows
//! with `versions × distinct keys` and it took ~41 s on a 12k-event
//! 128-partition history, which is why tier-1 used to dodge it.
//!
//! It stays in the test tree for two jobs:
//!
//! - **Differential testing**: `tests/checker_differential.rs` asserts
//!   that the streaming checker and this oracle agree on real protocol
//!   histories of every backend.
//! - **Auditability**: when the fast checker flags a history, this module
//!   is the independent second opinion.
//!
//! Known, intended divergences from [`contrarian_harness::checker`] (both only
//! observable on hand-corrupted histories, never on histories produced by
//! the recorded runtimes):
//!
//! - The session check here compares versions with the total LWW order, so
//!   it also flags a client that re-reads a *concurrent* (causally
//!   unrelated) cross-DC version — see the monotonic-reads notes in
//!   [`contrarian_harness::checker`].
//! - A *phantom* version (read but never written in the history) acts as a
//!   causal source here (its coordinate enters past maps); the streaming
//!   checker gives phantoms no causal past.

use contrarian_types::{HistoryEvent, Key, VersionId};
use std::collections::HashMap;
use std::rc::Rc;

use contrarian_harness::CheckReport;

type Node = (Key, VersionId);

/// Per-key maximum versions in a version's causal past (including itself).
type Past = Rc<HashMap<Key, VersionId>>;

struct Graph {
    /// version → its direct dependencies (the writer's observed frontier).
    deps: HashMap<Node, Vec<Node>>,
    past: HashMap<Node, Past>,
}

impl Graph {
    fn new() -> Self {
        Graph {
            deps: HashMap::new(),
            past: HashMap::new(),
        }
    }

    /// The causal past of `node` as a per-key max-version map, memoized,
    /// computed iteratively (dependency chains grow with the execution).
    fn past_of(&mut self, node: Node) -> Past {
        if let Some(p) = self.past.get(&node) {
            return p.clone();
        }
        let mut stack = vec![node];
        while let Some(&n) = stack.last() {
            if self.past.contains_key(&n) {
                stack.pop();
                continue;
            }
            let deps = self.deps.get(&n).cloned().unwrap_or_default();
            let unresolved: Vec<Node> = deps
                .iter()
                .copied()
                .filter(|d| !self.past.contains_key(d))
                .collect();
            if !unresolved.is_empty() {
                stack.extend(unresolved);
                continue;
            }
            stack.pop();
            let mut merged: HashMap<Key, VersionId> = HashMap::new();
            for d in &deps {
                raise(&mut merged, d.0, d.1);
                let dp = self.past[d].clone();
                for (k, v) in dp.iter() {
                    raise(&mut merged, *k, *v);
                }
            }
            raise(&mut merged, n.0, n.1);
            self.past.insert(n, Rc::new(merged));
        }
        self.past[&node].clone()
    }
}

fn raise(m: &mut HashMap<Key, VersionId>, k: Key, v: VersionId) {
    match m.get_mut(&k) {
        Some(cur) => {
            if v > *cur {
                *cur = v;
            }
        }
        None => {
            m.insert(k, v);
        }
    }
}

/// Checks a recorded history with the map-based algorithm. Same contract
/// as [`contrarian_harness::check_causal`]; see the module docs for the two intended
/// divergences on corrupted histories.
pub(crate) fn check_causal_oracle(history: &[HistoryEvent]) -> CheckReport {
    let mut report = CheckReport::default();
    let mut graph = Graph::new();
    // Per-client observed frontier: key → max version observed.
    let mut frontier: HashMap<contrarian_types::ClientId, HashMap<Key, VersionId>> = HashMap::new();

    // Pass 1: build the dependency graph from client sessions, and run the
    // session checks along the way.
    for ev in history {
        match ev {
            HistoryEvent::PutDone {
                client, key, vid, ..
            } => {
                let f = frontier.entry(*client).or_default();
                let deps: Vec<Node> = f.iter().map(|(k, v)| (*k, *v)).collect();
                graph.deps.insert((*key, *vid), deps);
                raise(f, *key, *vid);
                report.versions += 1;
            }
            HistoryEvent::RotDone {
                client, tx, pairs, ..
            } => {
                let f = frontier.entry(*client).or_default();
                for (k, v) in pairs {
                    match (f.get(k), v) {
                        (Some(seen), Some(got)) if got < seen => {
                            report.violations.push(format!(
                                "session violation: {tx} read {k}@{got} after observing {k}@{seen}"
                            ));
                        }
                        (Some(seen), None) => {
                            report.violations.push(format!(
                                "session violation: {tx} read {k}=⊥ after observing {k}@{seen}"
                            ));
                        }
                        _ => {}
                    }
                }
                for (k, v) in pairs {
                    if let Some(v) = v {
                        raise(f, *k, *v);
                    }
                }
            }
        }
    }

    // Pass 2: the causal snapshot property for every ROT.
    for ev in history {
        let HistoryEvent::RotDone { tx, pairs, .. } = ev else {
            continue;
        };
        report.rots_checked += 1;
        for (kj, vj) in pairs {
            let Some(vj) = vj else { continue };
            let past = graph.past_of((*kj, *vj));
            for (ki, vi) in pairs {
                if ki == kj {
                    continue;
                }
                if let Some(w) = past.get(ki) {
                    let stale = match vi {
                        None => true,         // read ⊥ but the past has a version
                        Some(vi) => *w > *vi, // read something older than the past requires
                    };
                    if stale {
                        report.violations.push(format!(
                            "causal snapshot violation: {tx} returned {ki}@{vi:?} and {kj}@{vj}, \
                             but {kj}@{vj} causally depends on {ki}@{w}"
                        ));
                    }
                }
            }
        }
    }
    report
}
