//! An embedded, synchronous causal key-value store facade.
//!
//! [`CausalStore`] runs a single-DC Contrarian cluster *deterministically in
//! process* (on the discrete-event simulator) and exposes blocking
//! `put`/`rot` calls. It exists so that examples and downstream users can
//! exercise the protocol through a plain key-value API without touching the
//! simulator directly. For a real multi-threaded deployment of the same
//! state machines over TCP see [`contrarian_net`].

use contrarian_core::{Contrarian, Node};
use contrarian_protocol::build_interactive_cluster;
use contrarian_sim::sim::Sim;
use contrarian_types::{ClusterConfig, Error, HistoryEvent, Key, Result, Value};
use std::collections::{HashMap, VecDeque};

/// An embedded causally consistent store backed by a simulated Contrarian
/// cluster with one interactive client.
pub struct CausalStore {
    sim: Sim<Node>,
    client: contrarian_types::Addr,
    /// Completion log, drained out of the engine between steps (the
    /// engine's history buffers are per-shard; this is the facade's own
    /// append-only view with a stable cursor).
    log: Vec<HistoryEvent>,
    history_cursor: usize,
    put_seq: u32,
    rot_seq: u32,
    down: bool,
}

impl CausalStore {
    /// Starts a cluster with the given configuration.
    pub fn open(cfg: ClusterConfig) -> CausalStore {
        let (sim, client) = build_interactive_cluster::<Contrarian>(&cfg, 0xC0FFEE);
        CausalStore {
            sim,
            client,
            log: Vec::new(),
            history_cursor: 0,
            put_seq: 0,
            rot_seq: 0,
            down: false,
        }
    }

    /// Writes a new version of `key`, returning once the PUT completed.
    pub fn put(&mut self, key: Key, value: Value) -> Result<()> {
        if self.down {
            return Err(Error::ClusterDown);
        }
        let seq = self.put_seq;
        self.put_seq += 1;
        self.sim
            .inject_op(self.client, contrarian_types::Op::Put(key, value));
        self.wait_for(|ev| matches!(ev, HistoryEvent::PutDone { seq: s, .. } if *s == seq))?;
        Ok(())
    }

    /// Reads a causally consistent snapshot of `keys`. Entry `i` of the
    /// result is the value of `keys[i]`, or `None` if the key does not exist
    /// in the snapshot.
    pub fn rot(&mut self, keys: &[Key]) -> Result<Vec<Option<Value>>> {
        if self.down {
            return Err(Error::ClusterDown);
        }
        if keys.is_empty() {
            return Err(Error::InvalidArgument("empty ROT key set"));
        }
        let seq = self.rot_seq;
        self.rot_seq += 1;
        self.sim
            .inject_op(self.client, contrarian_types::Op::Rot(keys.to_vec()));
        let ev =
            self.wait_for(|ev| matches!(ev, HistoryEvent::RotDone { tx, .. } if tx.seq == seq))?;
        if let HistoryEvent::RotDone { pairs, values, .. } = ev {
            // Responses arrive grouped by partition; restore request order
            // with a key→pending-slot index built once (O(n + m) instead of
            // the old O(n·m) scan, which also silently aliased duplicate
            // request keys to the first response only).
            let mut slots: HashMap<Key, VecDeque<usize>> = HashMap::with_capacity(keys.len());
            for (i, k) in keys.iter().enumerate() {
                slots.entry(*k).or_default().push_back(i);
            }
            let mut out = vec![None; keys.len()];
            let mut first_response: HashMap<Key, usize> = HashMap::new();
            for (j, (k, _)) in pairs.iter().enumerate() {
                first_response.entry(*k).or_insert(j);
                // Each response occurrence fills the next pending slot of
                // its key, so duplicated request keys each get an answer.
                if let Some(q) = slots.get_mut(k) {
                    if let Some(i) = q.pop_front() {
                        out[i] = values[j].clone();
                    }
                }
            }
            // A backend that deduplicates reads answers each key once;
            // remaining duplicate slots alias that key's single response.
            for (k, q) in slots {
                if q.is_empty() {
                    continue;
                }
                if let Some(&j) = first_response.get(&k) {
                    for i in q {
                        out[i] = values[j].clone();
                    }
                }
            }
            Ok(out)
        } else {
            unreachable!("wait_for matched RotDone")
        }
    }

    /// Convenience single-key read (a ROT over one key).
    pub fn get(&mut self, key: Key) -> Result<Option<Value>> {
        Ok(self.rot(&[key])?.pop().flatten())
    }

    /// Shuts the cluster down. Further operations fail with `ClusterDown`.
    pub fn shutdown(&mut self) {
        self.down = true;
    }

    fn wait_for<F>(&mut self, mut pred: F) -> Result<HistoryEvent>
    where
        F: FnMut(&HistoryEvent) -> bool,
    {
        // Deterministic virtual time: run the simulation until the matching
        // completion event is recorded. 10 virtual seconds is far beyond any
        // single-op latency; reaching it means the protocol lost the op.
        // The cursor only advances past a match, so a later wait with a
        // different predicate still sees the skipped-over events.
        let deadline = self.sim.now() + 10_000_000_000;
        loop {
            self.log.extend(self.sim.drain_history());
            for i in self.history_cursor..self.log.len() {
                if pred(&self.log[i]) {
                    self.history_cursor = i + 1;
                    return Ok(self.log[i].clone());
                }
            }
            if self.sim.now() >= deadline || !self.sim.step() {
                return Err(Error::Timeout);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut s = CausalStore::open(ClusterConfig::small());
        s.put(Key(7), Value::from_static(b"v1")).unwrap();
        assert_eq!(s.get(Key(7)).unwrap().as_deref(), Some(&b"v1"[..]));
    }

    #[test]
    fn missing_key_reads_bottom() {
        let mut s = CausalStore::open(ClusterConfig::small());
        assert_eq!(s.get(Key(42)).unwrap(), None);
    }

    #[test]
    fn rot_reads_consistent_snapshot_across_partitions() {
        let mut s = CausalStore::open(ClusterConfig::small());
        s.put(Key(0), Value::from_static(b"x0")).unwrap();
        s.put(Key(1), Value::from_static(b"y0")).unwrap();
        let snap = s.rot(&[Key(0), Key(1)]).unwrap();
        assert_eq!(snap[0].as_deref(), Some(&b"x0"[..]));
        assert_eq!(snap[1].as_deref(), Some(&b"y0"[..]));
    }

    #[test]
    fn duplicate_rot_keys_each_get_the_value() {
        let mut s = CausalStore::open(ClusterConfig::small());
        s.put(Key(0), Value::from_static(b"x0")).unwrap();
        s.put(Key(1), Value::from_static(b"y0")).unwrap();
        let snap = s.rot(&[Key(0), Key(1), Key(0), Key(0)]).unwrap();
        assert_eq!(snap[0].as_deref(), Some(&b"x0"[..]));
        assert_eq!(snap[1].as_deref(), Some(&b"y0"[..]));
        assert_eq!(
            snap[2].as_deref(),
            Some(&b"x0"[..]),
            "duplicate key slot must be filled"
        );
        assert_eq!(snap[3].as_deref(), Some(&b"x0"[..]));
    }

    #[test]
    fn duplicate_rot_of_missing_key_stays_bottom() {
        let mut s = CausalStore::open(ClusterConfig::small());
        let snap = s.rot(&[Key(9), Key(9)]).unwrap();
        assert_eq!(snap, vec![None, None]);
    }

    #[test]
    fn empty_rot_is_rejected() {
        let mut s = CausalStore::open(ClusterConfig::small());
        assert!(matches!(s.rot(&[]), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn shutdown_stops_service() {
        let mut s = CausalStore::open(ClusterConfig::small());
        s.shutdown();
        assert!(matches!(
            s.put(Key(1), Value::new()),
            Err(Error::ClusterDown)
        ));
    }

    #[test]
    fn overwrites_read_newest() {
        let mut s = CausalStore::open(ClusterConfig::small());
        for i in 0..5u8 {
            s.put(Key(3), Value::from(vec![i])).unwrap();
        }
        assert_eq!(s.get(Key(3)).unwrap().unwrap()[0], 4);
    }
}
