//! The causal-consistency checker, frontier-compressed.
//!
//! Replays a recorded execution history and verifies, for every ROT, the
//! causal snapshot property of Section 2.2: if a ROT returns `X` for key
//! `x` and `Y` for key `y`, there must be no `X'` on `x` with
//! `X ; X' ; Y`. It also verifies per-client session guarantees (monotonic
//! reads, read-your-writes).
//!
//! # Representation
//!
//! Ground-truth causality is reconstructed from client sessions: a version
//! causally depends on everything its writer had observed (read or
//! written) when the PUT was issued, closed transitively. The original
//! checker (kept as a test-only oracle, `tests/oracle/mod.rs`) materialized
//! each version's causal past as a per-key max-version map, which grows
//! with the distinct keys a wide cluster touches — ~41 s on a 12k-event
//! 128-partition history.
//!
//! This checker compresses pasts into *per-writer-session frontiers*:
//!
//! - Keys and clients are interned into dense indices
//!   ([`contrarian_types::Interner`]).
//! - Every version gets a coordinate `(session, seq)`: the writer's dense
//!   session index and a 1-based sequence number within that session.
//! - A version's causal past is a per-session high-water vector: entry
//!   `s` is the highest sequence of session `s`'s versions in the past.
//!   Session order is causal order, so one integer per session replaces a
//!   per-key map. The vector is delta-encoded against the version's direct
//!   dependencies: a version stores its writer's *observed* frontier (an
//!   `Rc` shared by every consecutive write of the session until a read
//!   changes it) plus its own implicit coordinate.
//! - The snapshot check becomes: for a ROT returning `vj` on `kj` and `vi`
//!   on `ki`, find the newest version of `ki` *covered by `vj`'s frontier*
//!   via a per-key index of each session's writes (ascending sequence,
//!   with a running LWW max) and compare it with `vi`. Each lookup is a
//!   binary search — no past map is ever materialized.
//!
//! The result is a near-linear single pass: `O(events · sessions)` for
//! frontier joins plus `O(reads · writers(key) · log writes)` for checks,
//! independent of the distinct-key count.
//!
//! # Streaming
//!
//! [`CausalChecker`] is fed events as they arrive ([`CausalChecker::feed`])
//! and checks each ROT as soon as every version it returned is fully
//! known. Cross-DC visibility can outrun the writer's own acknowledgement,
//! so a ROT may legitimately return a version whose `PutDone` appears
//! later in the recording; such checks are parked and settled in
//! [`CausalChecker::report`], which resolves the (rare) deferred frontier
//! joins to a fixpoint first.
//!
//! # Session guarantees
//!
//! Monotonic reads are checked in the *causal* order, not the total LWW
//! order: per key, each session keeps the antichain of *maximal* versions
//! it has observed, and a read `got` is flagged exactly when it lies
//! strictly in the causal past of any of them (or when it reads ⊥ after
//! observing anything). Two *concurrent* cross-DC versions have no order
//! between them, so bouncing between them is legal — the old checker
//! flagged that, a false positive the multi-DC tests below pin down; and
//! keeping the whole antichain (not just the LWW-largest observation)
//! means a backwards read hidden behind a concurrent LWW-larger sibling
//! is still caught. For a *phantom* version (one the history never
//! writes, which no recorded runtime produces), the checker falls back to
//! the convergent LWW order, matching the oracle.

use contrarian_types::{ClientId, HistoryEvent, Interner, Key, TxId, VersionId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

/// The verdict of a history check.
#[derive(Debug, Default)]
pub struct CheckReport {
    pub violations: Vec<String>,
    pub rots_checked: usize,
    pub versions: usize,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A per-session high-water vector (dense session index → highest covered
/// sequence; missing tail entries mean 0). Shared between consecutive
/// writes of a session while its observations are unchanged.
type Frontier = Rc<Vec<u32>>;

/// A version's compressed causal past.
struct VersionMeta {
    /// Dense index of the writing session.
    sess: u32,
    /// 1-based sequence within the writing session.
    seq: u32,
    /// The writer's observed frontier when the PUT was issued. The
    /// version's own coordinate is implicit: its full frontier is `base`
    /// with entry `sess` raised to `seq` (see [`covers`]).
    base: Frontier,
    /// Observed versions whose `PutDone` had not been recorded yet when
    /// this version was written; folded into `base` at finalization.
    pending: Vec<(u32, VersionId)>,
}

/// The covered high-water mark of session `s` in `m`'s causal past.
#[inline]
fn covers(m: &VersionMeta, s: u32) -> u32 {
    let base = m.base.get(s as usize).copied().unwrap_or(0);
    if s == m.sess {
        base.max(m.seq)
    } else {
        base
    }
}

/// Joins `m`'s full frontier (its base plus its own implicit coordinate)
/// into `f`, growing `f` as needed. Returns whether anything rose.
fn join_frontier(f: &mut Vec<u32>, m: &VersionMeta) -> bool {
    let mut changed = false;
    if f.len() < m.base.len() {
        f.resize(m.base.len(), 0);
    }
    for (i, &hw) in m.base.iter().enumerate() {
        if hw > f[i] {
            f[i] = hw;
            changed = true;
        }
    }
    let own = m.sess as usize;
    if f.len() <= own {
        f.resize(own + 1, 0);
    }
    if m.seq > f[own] {
        f[own] = m.seq;
        changed = true;
    }
    changed
}

/// One write in a per-(key, session) index: ascending `seq`, with the
/// running LWW maximum so a prefix query needs no scan. The version id is
/// kept so [`CausalChecker::gc`] can unregister reclaimed writes.
struct WriteRec {
    seq: u32,
    vid: VersionId,
    lww_max: VersionId,
}

/// What one session has observed of one key.
struct ObsState {
    /// Newest observed version in the convergent (LWW) order — the
    /// representative for ⊥/genesis/phantom comparisons.
    lww: VersionId,
    /// The antichain of causally *maximal* observed versions, as
    /// `(version index, id)`: pairwise concurrent, every other observation
    /// in some member's past. Members are registered and finalized.
    maximal: Vec<(u32, VersionId)>,
    /// Observations whose version is not registered/finalized yet; folded
    /// into `maximal` once it is.
    pend: Vec<VersionId>,
}

/// Per-client-session streaming state.
struct SessState {
    /// Observed per-session high-water vector (owned working copy).
    frontier: Vec<u32>,
    /// Cached immutable snapshot of `frontier`, shared by every version
    /// this session writes until the frontier next changes.
    snapshot: Option<Frontier>,
    /// Sequence of this session's most recent write.
    last_seq: u32,
    /// Observed versions not yet registered (see `VersionMeta::pending`).
    pending: Vec<(u32, VersionId)>,
    /// Per-key observation state for the session checks.
    obs: HashMap<u32, ObsState>,
}

impl SessState {
    fn new() -> Self {
        SessState {
            frontier: Vec::new(),
            snapshot: None,
            last_seq: 0,
            pending: Vec::new(),
            obs: HashMap::new(),
        }
    }
}

enum SessionVerdict {
    Ok,
    /// Backwards read; carries the observed version it falls behind.
    Backwards(VersionId),
    /// A version involved is not registered/finalized yet; re-evaluate at
    /// `report()` time.
    Unresolved,
}

/// A ROT whose snapshot check could not run inline because a returned
/// version was not yet fully known.
struct ParkedRot {
    tx: TxId,
    pairs: Vec<(Key, Option<VersionId>)>,
}

/// A monotonic-reads comparison postponed for the same reason, with the
/// observation state snapshotted as of the read.
struct ParkedSession {
    tx: TxId,
    key: Key,
    k: u32,
    got: VersionId,
    lww: VersionId,
    maximal: Vec<(u32, VersionId)>,
    pend: Vec<VersionId>,
}

/// Streaming causal-consistency checker: [`feed`](Self::feed) events in
/// recording order (which the deterministic runtimes guarantee is each
/// client's session order), then [`report`](Self::report).
pub struct CausalChecker {
    keys: Interner<Key>,
    clients: Interner<ClientId>,
    sess: Vec<SessState>,
    /// (key idx, version id) → index into `meta`.
    versions: HashMap<(u32, VersionId), u32>,
    meta: Vec<VersionMeta>,
    /// (key idx, session idx) → that session's writes to that key.
    writes: HashMap<(u32, u32), Vec<WriteRec>>,
    /// key idx → sessions that wrote it.
    key_writers: Vec<Vec<u32>>,
    /// Versions registered with non-empty `pending`.
    deferred: Vec<u32>,
    parked_rots: Vec<ParkedRot>,
    parked_sessions: Vec<ParkedSession>,
    /// Reusable `meta` slots left behind by [`gc`](Self::gc).
    free: Vec<u32>,
    /// Cumulative count of versions reclaimed by [`gc`](Self::gc).
    reclaimed: u64,
    report: CheckReport,
}

/// A snapshot of the checker's resident state, for bounding memory in
/// long streaming runs (see [`CausalChecker::gc`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerResidency {
    /// Registered versions currently held (`(key, vid)` → meta entries).
    pub live_versions: usize,
    /// Occupied `meta` slots (allocated minus free-listed).
    pub meta_slots: usize,
    /// Total write-index records across all `(key, session)` lists.
    pub write_recs: usize,
    /// Versions reclaimed by `gc` over the checker's lifetime.
    pub reclaimed_total: u64,
}

impl Default for CausalChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl CausalChecker {
    pub fn new() -> Self {
        CausalChecker {
            keys: Interner::new(),
            clients: Interner::new(),
            sess: Vec::new(),
            versions: HashMap::new(),
            meta: Vec::new(),
            writes: HashMap::new(),
            key_writers: Vec::new(),
            deferred: Vec::new(),
            parked_rots: Vec::new(),
            parked_sessions: Vec::new(),
            free: Vec::new(),
            reclaimed: 0,
            report: CheckReport::default(),
        }
    }

    /// How much state the checker currently holds resident.
    pub fn residency(&self) -> CheckerResidency {
        CheckerResidency {
            live_versions: self.versions.len(),
            meta_slots: self.meta.len() - self.free.len(),
            write_recs: self.writes.values().map(Vec::len).sum(),
            reclaimed_total: self.reclaimed,
        }
    }

    /// Reclaims state no future check can need, bounding residency for
    /// streaming runs over arbitrarily long histories.
    ///
    /// A version of key `k` is reclaimable once it is LWW-below the
    /// *floor* of `k`: the newest version covered by the pointwise
    /// minimum of every session's observed frontier (each session's own
    /// writes count as observed — read-your-writes). On a causally
    /// consistent history no session may ever again read below that
    /// floor: each session's frontier only grows, and a read returning a
    /// version LWW-older than the newest write in the reader's causal
    /// past is exactly what the checker flags. So reclaiming below-floor
    /// versions never changes the verdict of a *correct* history; on a
    /// violating history a violation rooted in the reclaimed era may be
    /// reported differently (or, across a gc boundary, missed) — gc
    /// trades archival detail for bounded memory, never soundness on
    /// compliant histories.
    ///
    /// Anything still referenced by unsettled state — parked ROTs and
    /// session checks, pending observations, maximal-antichain members,
    /// deferred frontier dependencies — is pinned regardless of age and
    /// reclaimed on a later pass once it settles.
    ///
    /// `min_sessions` guards the warm-up: until that many sessions have
    /// appeared in the history the pass is a no-op, so a client whose
    /// first op arrives late cannot be cut off by a floor computed
    /// without it. Callers pass the expected client-session count.
    pub fn gc(&mut self, min_sessions: usize) -> CheckerResidency {
        if self.sess.is_empty() || self.sess.len() < min_sessions {
            return self.residency();
        }
        let n = self.sess.len();
        let mut min_f = vec![u32::MAX; n];
        for (i, st) in self.sess.iter().enumerate() {
            for (s, slot) in min_f.iter_mut().enumerate() {
                let mut hw = st.frontier.get(s).copied().unwrap_or(0);
                if s == i {
                    hw = hw.max(st.last_seq);
                }
                *slot = (*slot).min(hw);
            }
        }
        // A synthetic "version" whose causal past is the min frontier;
        // sess = u32::MAX matches no real session, so `covers` reads the
        // base vector only.
        let min_meta = VersionMeta {
            sess: u32::MAX,
            seq: 0,
            base: Rc::new(min_f),
            pending: Vec::new(),
        };

        // Pin everything a later settle/report pass may still look up.
        let mut pinned: std::collections::HashSet<(u32, VersionId)> =
            std::collections::HashSet::new();
        for st in &self.sess {
            pinned.extend(st.pending.iter().copied());
            for (&k, ob) in &st.obs {
                pinned.extend(ob.pend.iter().map(|&v| (k, v)));
                pinned.extend(ob.maximal.iter().map(|&(_, v)| (k, v)));
            }
        }
        for p in &self.parked_sessions {
            pinned.insert((p.k, p.got));
            pinned.extend(p.maximal.iter().map(|&(_, v)| (p.k, v)));
            pinned.extend(p.pend.iter().map(|&v| (p.k, v)));
        }
        for r in &self.parked_rots {
            for (key, v) in &r.pairs {
                if let (Some(k), Some(v)) = (self.keys.get(*key), v) {
                    pinned.insert((k, *v));
                }
            }
        }
        for &vref in &self.deferred {
            pinned.extend(self.meta[vref as usize].pending.iter().copied());
        }

        for k in 0..self.key_writers.len() as u32 {
            let Some(floor) = self.latest_under(&min_meta, k) else {
                continue;
            };
            let writers = std::mem::take(&mut self.key_writers[k as usize]);
            let mut kept_writers = Vec::with_capacity(writers.len());
            for s in writers {
                let Some(mut recs) = self.writes.remove(&(k, s)) else {
                    continue;
                };
                recs.retain(|rec| {
                    let vref = self.versions.get(&(k, rec.vid)).copied();
                    // A still-deferred version resolves at report(): keep it.
                    let deferred = vref.is_some_and(|v| !self.meta[v as usize].pending.is_empty());
                    if rec.vid >= floor || deferred || pinned.contains(&(k, rec.vid)) {
                        return true;
                    }
                    self.versions.remove(&(k, rec.vid));
                    if let Some(vref) = vref {
                        self.meta[vref as usize] = VersionMeta {
                            sess: u32::MAX,
                            seq: 0,
                            base: Rc::new(Vec::new()),
                            pending: Vec::new(),
                        };
                        self.free.push(vref);
                    }
                    self.reclaimed += 1;
                    false
                });
                if !recs.is_empty() {
                    self.writes.insert((k, s), recs);
                    kept_writers.push(s);
                }
            }
            self.key_writers[k as usize] = kept_writers;
        }
        self.residency()
    }

    /// Feeds one recorded event. Events of one client must arrive in that
    /// client's session order; interleaving across clients is free.
    pub fn feed(&mut self, ev: &HistoryEvent) {
        match ev {
            HistoryEvent::PutDone {
                client, key, vid, ..
            } => self.on_put(*client, *key, *vid),
            HistoryEvent::RotDone {
                client, tx, pairs, ..
            } => self.on_rot(*client, *tx, pairs),
        }
    }

    /// Finishes the check: resolves deferred frontiers to a fixpoint, runs
    /// every parked check, and returns the verdict.
    pub fn report(mut self) -> CheckReport {
        self.finalize_deferred();
        let parked = std::mem::take(&mut self.parked_sessions);
        for mut p in parked {
            // Settle the snapshot against the now-final registry.
            let pend = std::mem::take(&mut p.pend);
            for vid in pend {
                match self.versions.get(&(p.k, vid)) {
                    Some(&vref) if self.meta[vref as usize].pending.is_empty() => {
                        Self::antichain_insert(&self.meta, &mut p.maximal, vref, vid);
                    }
                    _ => p.pend.push(vid),
                }
            }
            if let SessionVerdict::Backwards(seen) =
                self.session_verdict(p.k, &p.maximal, &p.pend, p.lww, p.got, true)
            {
                self.report.violations.push(format!(
                    "session violation: {} read {}@{} after observing {}@{}",
                    p.tx, p.key, p.got, p.key, seen
                ));
            }
        }
        let rots = std::mem::take(&mut self.parked_rots);
        let mut found = Vec::new();
        for r in rots {
            self.snapshot_violations(r.tx, &r.pairs, &mut found);
        }
        self.report.violations.extend(found);
        self.report
    }

    fn sess_idx(&mut self, client: ClientId) -> usize {
        let i = self.clients.intern(client) as usize;
        if i == self.sess.len() {
            self.sess.push(SessState::new());
        }
        i
    }

    fn key_idx(&mut self, key: Key) -> u32 {
        let k = self.keys.intern(key);
        if k as usize == self.key_writers.len() {
            self.key_writers.push(Vec::new());
        }
        k
    }

    /// Joins the full frontier of registered, finalized version `vref`
    /// into session `s`'s observed frontier.
    fn absorb(&mut self, s: usize, vref: u32) {
        let m = &self.meta[vref as usize];
        let st = &mut self.sess[s];
        if join_frontier(&mut st.frontier, m) {
            st.snapshot = None;
        }
    }

    /// Inserts a registered, finalized observation into an antichain of
    /// maximal observed versions: dropped if some member already covers
    /// it, evicting any members it covers otherwise.
    fn antichain_insert(
        meta: &[VersionMeta],
        set: &mut Vec<(u32, VersionId)>,
        vref: u32,
        vid: VersionId,
    ) {
        let vm = &meta[vref as usize];
        if set
            .iter()
            .any(|&(e, _)| e == vref || covers(&meta[e as usize], vm.sess) >= vm.seq)
        {
            return;
        }
        set.retain(|&(e, _)| {
            let em = &meta[e as usize];
            covers(vm, em.sess) < em.seq
        });
        set.push((vref, vid));
    }

    /// Records that session `s` observed (read or wrote) `vid` on key `k`.
    fn observe(&mut self, s: usize, k: u32, vid: VersionId) {
        let reg = if vid.is_genesis() {
            None
        } else {
            self.versions
                .get(&(k, vid))
                .copied()
                .filter(|&v| self.meta[v as usize].pending.is_empty())
        };
        let st = &mut self.sess[s];
        let ob = st.obs.entry(k).or_insert_with(|| ObsState {
            lww: vid,
            maximal: Vec::new(),
            pend: Vec::new(),
        });
        ob.lww = ob.lww.max(vid);
        if vid.is_genesis() {
            return; // the preloaded version is below every observation
        }
        match reg {
            Some(vref) => Self::antichain_insert(&self.meta, &mut ob.maximal, vref, vid),
            None => {
                if !ob.pend.contains(&vid) {
                    ob.pend.push(vid);
                }
            }
        }
    }

    /// Folds any of session `s`'s pending observations of key `k` whose
    /// version has since been registered and finalized into the antichain.
    fn settle_obs(&mut self, s: usize, k: u32) {
        let Some(ob) = self.sess[s].obs.get_mut(&k) else {
            return;
        };
        if ob.pend.is_empty() {
            return;
        }
        let pend = std::mem::take(&mut ob.pend);
        for vid in pend {
            match self.versions.get(&(k, vid)) {
                Some(&vref) if self.meta[vref as usize].pending.is_empty() => {
                    Self::antichain_insert(&self.meta, &mut ob.maximal, vref, vid);
                }
                _ => ob.pend.push(vid),
            }
        }
    }

    /// Folds any of session `s`'s pending observations whose version has
    /// since been registered and finalized into its frontier.
    fn settle_pending(&mut self, s: usize) {
        if self.sess[s].pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.sess[s].pending);
        let mut rest = Vec::new();
        for (k, vid) in pending {
            match self.versions.get(&(k, vid)) {
                Some(&vref) if self.meta[vref as usize].pending.is_empty() => {
                    self.absorb(s, vref);
                }
                _ => rest.push((k, vid)),
            }
        }
        self.sess[s].pending = rest;
    }

    /// The session's current frontier as a shareable snapshot.
    fn snapshot(&mut self, s: usize) -> Frontier {
        let st = &mut self.sess[s];
        if st.snapshot.is_none() {
            st.snapshot = Some(Rc::new(st.frontier.clone()));
        }
        st.snapshot.clone().unwrap()
    }

    fn on_put(&mut self, client: ClientId, key: Key, vid: VersionId) {
        let s = self.sess_idx(client);
        let k = self.key_idx(key);
        self.settle_pending(s);

        let seq = self.sess[s].last_seq + 1;
        self.sess[s].last_seq = seq;
        let base = self.snapshot(s);
        let pending = self.sess[s].pending.clone();
        let has_pending = !pending.is_empty();
        let vm = VersionMeta {
            sess: s as u32,
            seq,
            base,
            pending,
        };
        let vref = match self.free.pop() {
            Some(slot) => {
                self.meta[slot as usize] = vm;
                slot
            }
            None => {
                let v = u32::try_from(self.meta.len()).expect("version count overflow");
                self.meta.push(vm);
                v
            }
        };
        if has_pending {
            self.deferred.push(vref);
        }
        self.versions.insert((k, vid), vref);

        let recs = match self.writes.entry((k, s as u32)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.key_writers[k as usize].push(s as u32);
                e.insert(Vec::new())
            }
        };
        let lww_max = recs.last().map_or(vid, |r| r.lww_max.max(vid));
        recs.push(WriteRec { seq, vid, lww_max });

        // The write is itself an observation (read-your-writes).
        self.observe(s, k, vid);
        self.report.versions += 1;
    }

    fn on_rot(&mut self, client: ClientId, tx: TxId, pairs: &[(Key, Option<VersionId>)]) {
        let s = self.sess_idx(client);
        self.settle_pending(s);
        self.report.rots_checked += 1;

        // Session checks run against the state *before* this ROT merges:
        // the ROT is one atomic read, so duplicate keys in `pairs` are all
        // compared with the pre-ROT observation.
        for (key, got) in pairs {
            let k = self.key_idx(*key);
            self.settle_obs(s, k);
            let Some(ob) = self.sess[s].obs.get(&k) else {
                continue;
            };
            match got {
                None => {
                    let seen = ob.lww;
                    self.report.violations.push(format!(
                        "session violation: {tx} read {key}=⊥ after observing {key}@{seen}"
                    ));
                }
                Some(got) => {
                    match self.session_verdict(k, &ob.maximal, &ob.pend, ob.lww, *got, false) {
                        SessionVerdict::Ok => {}
                        SessionVerdict::Backwards(seen) => self.report.violations.push(format!(
                            "session violation: {tx} read {key}@{got} after observing {key}@{seen}"
                        )),
                        SessionVerdict::Unresolved => {
                            let (lww, maximal, pend) =
                                (ob.lww, ob.maximal.clone(), ob.pend.clone());
                            self.parked_sessions.push(ParkedSession {
                                tx,
                                key: *key,
                                k,
                                got: *got,
                                lww,
                                maximal,
                                pend,
                            });
                        }
                    }
                }
            }
        }

        // Causal snapshot check, inline when every returned version is
        // fully known (the overwhelmingly common case).
        if self.rot_ready(pairs) {
            let mut found = Vec::new();
            self.snapshot_violations(tx, pairs, &mut found);
            self.report.violations.extend(found);
        } else {
            self.parked_rots.push(ParkedRot {
                tx,
                pairs: pairs.to_vec(),
            });
        }

        // Merge the observations.
        for (key, got) in pairs {
            let Some(got) = got else { continue };
            let k = self.key_idx(*key);
            self.observe(s, k, *got);
            if got.is_genesis() {
                continue; // the preloaded version has an empty past
            }
            match self.versions.get(&(k, *got)) {
                Some(&vref) if self.meta[vref as usize].pending.is_empty() => {
                    self.absorb(s, vref);
                }
                _ => {
                    let st = &mut self.sess[s];
                    if !st.pending.contains(&(k, *got)) {
                        st.pending.push((k, *got));
                    }
                }
            }
        }
    }

    /// Monotonic-reads verdict for reading `got` with observation state
    /// `(maximal, pend, lww)` on the same key: backwards exactly when
    /// `got` lies strictly in the causal past of some maximal observed
    /// version (LWW fallback for phantoms — see the module docs).
    /// `final_pass` is set from `report()`, when everything that will
    /// ever register has.
    fn session_verdict(
        &self,
        k: u32,
        maximal: &[(u32, VersionId)],
        pend: &[VersionId],
        lww: VersionId,
        got: VersionId,
        final_pass: bool,
    ) -> SessionVerdict {
        if got.is_genesis() {
            // The preloaded initial version precedes every write.
            return if lww.is_genesis() {
                SessionVerdict::Ok
            } else {
                SessionVerdict::Backwards(lww)
            };
        }
        match self.versions.get(&(k, got)) {
            Some(&g) => {
                // Only `got`'s coordinate matters here, so `got` itself
                // need not be finalized — the antichain members are.
                let gm = &self.meta[g as usize];
                if let Some(&(_, seen)) = maximal
                    .iter()
                    .find(|&&(e, _)| e != g && covers(&self.meta[e as usize], gm.sess) >= gm.seq)
                {
                    return SessionVerdict::Backwards(seen);
                }
                if pend.is_empty() {
                    SessionVerdict::Ok
                } else if !final_pass {
                    SessionVerdict::Unresolved
                } else {
                    // Leftover phantoms among the observations: fall back
                    // to the convergent order, like the oracle.
                    match pend.iter().copied().filter(|p| *p != got).max() {
                        Some(p) if got < p => SessionVerdict::Backwards(p),
                        _ => SessionVerdict::Ok,
                    }
                }
            }
            None if final_pass => {
                // Phantom read with no recorded provenance: convergent-
                // order fallback against the LWW-newest observation.
                if got < lww {
                    SessionVerdict::Backwards(lww)
                } else {
                    SessionVerdict::Ok
                }
            }
            None => SessionVerdict::Unresolved,
        }
    }

    /// Is every version this ROT returned registered and finalized?
    fn rot_ready(&self, pairs: &[(Key, Option<VersionId>)]) -> bool {
        pairs.iter().all(|(key, v)| {
            let Some(v) = v else { return true };
            if v.is_genesis() {
                return true;
            }
            let Some(k) = self.keys.get(*key) else {
                return false;
            };
            match self.versions.get(&(k, *v)) {
                Some(&vref) => self.meta[vref as usize].pending.is_empty(),
                None => false,
            }
        })
    }

    /// The causal snapshot property for one ROT: for each returned version
    /// `vj`, the newest version of every *other* returned key covered by
    /// `vj`'s frontier must not supersede what the ROT returned for it.
    fn snapshot_violations(
        &self,
        tx: TxId,
        pairs: &[(Key, Option<VersionId>)],
        out: &mut Vec<String>,
    ) {
        for (kj, vj) in pairs {
            let Some(vj) = vj else { continue };
            if vj.is_genesis() {
                continue; // empty past
            }
            let Some(j) = self.keys.get(*kj) else {
                continue;
            };
            let Some(&jref) = self.versions.get(&(j, *vj)) else {
                continue; // phantom: no recorded past
            };
            let mj = &self.meta[jref as usize];
            for (ki, vi) in pairs {
                if ki == kj {
                    continue;
                }
                let Some(i) = self.keys.get(*ki) else {
                    continue;
                };
                let Some(w) = self.latest_under(mj, i) else {
                    continue;
                };
                let stale = match vi {
                    None => true,        // read ⊥ but the past has a version
                    Some(vi) => w > *vi, // read something older than the past requires
                };
                if stale {
                    out.push(format!(
                        "causal snapshot violation: {tx} returned {ki}@{vi:?} and {kj}@{vj}, \
                         but {kj}@{vj} causally depends on {ki}@{w}"
                    ));
                }
            }
        }
    }

    /// The newest (LWW) version of key `k` covered by `m`'s frontier:
    /// for each session that ever wrote `k`, binary-search its write index
    /// for the high-water prefix and take the running LWW max.
    fn latest_under(&self, m: &VersionMeta, k: u32) -> Option<VersionId> {
        let mut best: Option<VersionId> = None;
        for &s in &self.key_writers[k as usize] {
            let hw = covers(m, s);
            if hw == 0 {
                continue;
            }
            // `gc` drops `(k, s)` entries whose records were all reclaimed.
            let Some(recs) = self.writes.get(&(k, s)) else {
                continue;
            };
            let n = recs.partition_point(|r| r.seq <= hw);
            if n > 0 {
                let cand = recs[n - 1].lww_max;
                if best.is_none_or(|b| cand > b) {
                    best = Some(cand);
                }
            }
        }
        best
    }

    /// Resolves deferred frontier joins to a fixpoint. Dependency cycles
    /// are impossible (two versions cannot each be registered after the
    /// other), so every round makes progress on well-formed histories; on
    /// a corrupted history the remainder is force-resolved from whatever
    /// is known.
    fn finalize_deferred(&mut self) {
        let mut remaining = std::mem::take(&mut self.deferred);
        while !remaining.is_empty() {
            let mut next = Vec::new();
            let mut progressed = false;
            for vref in remaining {
                let ready = self.meta[vref as usize].pending.iter().all(|&(k, vid)| {
                    match self.versions.get(&(k, vid)) {
                        Some(&d) => self.meta[d as usize].pending.is_empty(),
                        // A phantom never registers and carries no past.
                        None => true,
                    }
                });
                if ready {
                    self.resolve_deferred(vref);
                    progressed = true;
                } else {
                    next.push(vref);
                }
            }
            if !progressed {
                for vref in next {
                    self.resolve_deferred(vref);
                }
                break;
            }
            remaining = next;
        }
    }

    /// Rebuilds `vref`'s base frontier with its pending observations
    /// joined in (refs still unregistered are dropped: phantoms).
    fn resolve_deferred(&mut self, vref: u32) {
        let pending = std::mem::take(&mut self.meta[vref as usize].pending);
        let mut f: Vec<u32> = self.meta[vref as usize].base.as_ref().clone();
        for (k, vid) in pending {
            if let Some(&d) = self.versions.get(&(k, vid)) {
                join_frontier(&mut f, &self.meta[d as usize]);
            }
        }
        self.meta[vref as usize].base = Rc::new(f);
    }
}

/// Checks a recorded history (streaming [`CausalChecker`] over it). Events
/// must be in recording order, which the deterministic runtimes guarantee
/// is each client's session order.
pub fn check_causal(history: &[HistoryEvent]) -> CheckReport {
    let mut ck = CausalChecker::new();
    for ev in history {
        ck.feed(ev);
    }
    ck.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{ClientId, DcId, TxId};

    fn client(i: u16) -> ClientId {
        ClientId::new(DcId(0), i)
    }

    fn put(c: u16, seq: u32, key: u64, ts: u64) -> HistoryEvent {
        put_dc(0, c, seq, key, ts, 0)
    }

    fn put_dc(dc: u8, c: u16, seq: u32, key: u64, ts: u64, origin: u8) -> HistoryEvent {
        HistoryEvent::PutDone {
            client: ClientId::new(DcId(dc), c),
            seq,
            t_start: ts,
            t_end: ts,
            key: Key(key),
            vid: VersionId::new(ts, DcId(origin)),
        }
    }

    fn rot(c: u16, seq: u32, pairs: Vec<(u64, Option<u64>)>) -> HistoryEvent {
        HistoryEvent::RotDone {
            client: client(c),
            tx: TxId::new(client(c), seq),
            t_start: 0,
            t_end: 0,
            pairs: pairs
                .iter()
                .map(|(k, v)| (Key(*k), v.map(|ts| VersionId::new(ts, DcId(0)))))
                .collect(),
            values: vec![None; pairs.len()],
        }
    }

    fn rot_dc(dc: u8, c: u16, seq: u32, pairs: Vec<(u64, Option<(u64, u8)>)>) -> HistoryEvent {
        let cl = ClientId::new(DcId(dc), c);
        HistoryEvent::RotDone {
            client: cl,
            tx: TxId::new(cl, seq),
            t_start: 0,
            t_end: 0,
            pairs: pairs
                .iter()
                .map(|(k, v)| (Key(*k), v.map(|(ts, o)| VersionId::new(ts, DcId(o)))))
                .collect(),
            values: vec![None; pairs.len()],
        }
    }

    #[test]
    fn empty_history_is_consistent() {
        assert!(check_causal(&[]).ok());
    }

    #[test]
    fn consistent_snapshot_passes() {
        // Writer: X0, Y0, X1, Y1 (the Figure 1 chain). Reading (X0, Y0) or
        // (X1, Y1) or (X1, Y0) is fine.
        let h = vec![
            put(0, 0, 0, 10), // X0
            put(0, 1, 1, 20), // Y0 (depends on X0)
            put(0, 2, 0, 30), // X1
            put(0, 3, 1, 40), // Y1 (depends on X1)
            rot(1, 0, vec![(0, Some(10)), (1, Some(20))]),
            rot(1, 1, vec![(0, Some(30)), (1, Some(40))]),
            rot(2, 0, vec![(0, Some(30)), (1, Some(20))]),
        ];
        let r = check_causal(&h);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.rots_checked, 3);
        assert_eq!(r.versions, 4);
    }

    #[test]
    fn figure1_anomaly_is_detected() {
        // The paper's canonical anomaly: ROT returns (X0, Y1) although
        // X0 ; X1 ; Y1.
        let h = vec![
            put(0, 0, 0, 10), // X0
            put(0, 1, 0, 30), // X1
            put(0, 2, 1, 40), // Y1 depends on X1
            rot(1, 0, vec![(0, Some(10)), (1, Some(40))]),
        ];
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("causal snapshot violation"));
    }

    #[test]
    fn bottom_read_with_causal_past_is_detected() {
        // Y1 depends on X1; a ROT seeing Y1 but ⊥ for x is inconsistent.
        let h = vec![
            put(0, 0, 0, 30), // X1
            put(0, 1, 1, 40), // Y1
            rot(1, 0, vec![(0, None), (1, Some(40))]),
        ];
        assert!(!check_causal(&h).ok());
    }

    #[test]
    fn cross_client_causality_via_reads() {
        // c0 writes X1. c1 reads X1 then writes Y1 (so X1 ; Y1 through
        // c1's session). A ROT returning (X0, Y1) violates.
        let h = vec![
            put(0, 0, 0, 10), // X0
            put(0, 1, 0, 30), // X1
            rot(1, 0, vec![(0, Some(30))]),
            put(1, 0, 1, 50), // Y1: deps include X1 via c1's read
            rot(2, 0, vec![(0, Some(10)), (1, Some(50))]),
        ];
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn transitive_chain_is_closed() {
        // X1 ; Y1 ; Z1 through two different clients; reading (X0, Z1)
        // must still be flagged.
        let h = vec![
            put(0, 0, 0, 10), // X0
            put(0, 1, 0, 20), // X1
            rot(1, 0, vec![(0, Some(20))]),
            put(1, 0, 1, 30), // Y1 (dep X1)
            rot(2, 0, vec![(1, Some(30))]),
            put(2, 0, 2, 40), // Z1 (dep Y1 → X1)
            rot(3, 0, vec![(0, Some(10)), (2, Some(40))]),
        ];
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }

    #[test]
    fn monotonic_read_violation_is_detected() {
        let h = vec![
            put(0, 0, 0, 10),
            put(0, 1, 0, 20),
            rot(1, 0, vec![(0, Some(20))]),
            rot(1, 1, vec![(0, Some(10))]), // goes backwards causally
        ];
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("session violation"));
    }

    #[test]
    fn read_your_writes_violation_is_detected() {
        let h = vec![
            put(0, 0, 0, 10),
            rot(0, 0, vec![(0, None)]), // own write vanished
        ];
        assert!(!check_causal(&h).ok());
    }

    #[test]
    fn concurrent_versions_do_not_false_positive() {
        // Two clients write x concurrently (no causal relation); a third
        // reads either version with unrelated y — consistent.
        let h = vec![
            put(0, 0, 0, 10),
            put(1, 0, 0, 11),
            put(2, 0, 1, 5),
            rot(3, 0, vec![(0, Some(10)), (1, Some(5))]),
            rot(4, 0, vec![(0, Some(11)), (1, Some(5))]),
        ];
        let r = check_causal(&h);
        assert!(r.ok(), "{:?}", r.violations);
    }

    // --- Monotonic reads in the causal order (multi-DC regressions). The
    // old total-LWW-order check flagged the first of these.

    #[test]
    fn concurrent_cross_dc_reread_is_not_backwards() {
        // Two DCs write x concurrently: (ts 20, dc1) and (ts 10, dc0) have
        // no causal order. A client that reads the LWW-bigger one first and
        // the concurrent sibling second is NOT going backwards.
        let h = vec![
            put_dc(0, 0, 0, 0, 10, 0), // x@10 from dc0
            put_dc(1, 0, 0, 0, 20, 1), // x@20 from dc1, concurrent
            rot_dc(0, 1, 0, vec![(0, Some((20, 1)))]),
            rot_dc(0, 1, 1, vec![(0, Some((10, 0)))]), // LWW-smaller, concurrent: legal
        ];
        let r = check_causal(&h);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn causally_ordered_cross_dc_backwards_read_is_flagged() {
        // dc1's writer observed x@10 before writing x@20, so 10 ; 20:
        // re-reading x@10 after x@20 IS backwards.
        let h = vec![
            put_dc(0, 0, 0, 0, 10, 0),
            rot_dc(1, 0, 0, vec![(0, Some((10, 0)))]),
            put_dc(1, 0, 0, 0, 20, 1), // depends on x@10 via the read
            rot_dc(0, 1, 0, vec![(0, Some((20, 1)))]),
            rot_dc(0, 1, 1, vec![(0, Some((10, 0)))]),
        ];
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("session violation"));
    }

    #[test]
    fn backwards_read_hidden_behind_concurrent_sibling_is_flagged() {
        // dc0's session writes x@5 then x@10 (so 5 ; 10); dc1 writes a
        // concurrent x@20. A client reads x@10, then legally hops to the
        // concurrent x@20 — but re-reading x@5 is still backwards
        // (it is in observed x@10's past), even though x@5 and the
        // LWW-newest observation x@20 are concurrent. A single LWW
        // representative would miss this; the observed antichain must not.
        let h = vec![
            put_dc(0, 0, 0, 0, 5, 0),
            put_dc(0, 0, 1, 0, 10, 0),
            put_dc(1, 0, 0, 0, 20, 1),
            rot_dc(0, 1, 0, vec![(0, Some((10, 0)))]),
            rot_dc(0, 1, 1, vec![(0, Some((20, 1)))]), // concurrent: fine
            rot_dc(0, 1, 2, vec![(0, Some((5, 0)))]),  // backwards via x@10
        ];
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("session violation"));
    }

    #[test]
    fn bottom_after_cross_dc_observation_is_flagged() {
        let h = vec![
            put_dc(1, 0, 0, 7, 30, 1),
            rot_dc(0, 0, 0, vec![(7, Some((30, 1)))]),
            rot_dc(0, 0, 1, vec![(7, None)]),
        ];
        assert!(!check_causal(&h).ok());
    }

    // --- Edge cases the rewrite must preserve.

    #[test]
    fn duplicate_keys_in_one_rot_are_consistent() {
        // The same key twice with the same version: fine, checked against
        // the pre-ROT observation both times.
        let h = vec![
            put(0, 0, 0, 10),
            put(0, 1, 1, 20),
            rot(1, 0, vec![(0, Some(10)), (0, Some(10)), (1, Some(20))]),
        ];
        let r = check_causal(&h);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn duplicate_keys_still_expose_stale_siblings() {
        // Y1 depends on X1; a ROT returning X0 twice alongside Y1 is
        // flagged for each stale copy.
        let h = vec![
            put(0, 0, 0, 10), // X0
            put(0, 1, 0, 30), // X1
            put(0, 2, 1, 40), // Y1 (dep X1)
            rot(1, 0, vec![(0, Some(10)), (1, Some(40)), (0, Some(10))]),
        ];
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
    }

    #[test]
    fn bottom_for_never_written_key_is_fine() {
        let h = vec![
            put(0, 0, 0, 10),
            rot(1, 0, vec![(0, Some(10)), (99, None)]), // key 99 never written
        ];
        assert!(check_causal(&h).ok());
    }

    #[test]
    fn deep_single_session_chain_is_linear() {
        // A ≥10k-version single-session chain: must neither overflow a
        // stack nor go quadratic (every version shares one frontier Rc).
        let n = 10_000u64;
        let mut h: Vec<HistoryEvent> = (0..n).map(|i| put(0, i as u32, 0, 10 + i)).collect();
        h.push(put(0, n as u32, 1, 20_000)); // y depends on the whole chain
        h.push(rot(1, 0, vec![(0, Some(10 + n - 1)), (1, Some(20_000))]));
        let r = check_causal(&h);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.versions, n as usize + 1);

        // And the violation at full depth is still found: x@10 is the
        // oldest link, y@20000 depends on every later one.
        h.push(rot(2, 0, vec![(0, Some(10)), (1, Some(20_000))]));
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }

    #[test]
    fn out_of_order_visibility_is_resolved_at_report_time() {
        // Cross-DC visibility outruns the writer's ack: c1 reads x@30
        // *before* c0's PutDone for it is recorded, then writes y@50 on
        // top. The checker parks the unresolved reference and still closes
        // the chain x@30 ; y@50 at report() time.
        let h = vec![
            put(0, 0, 0, 10),               // x@10
            rot(1, 0, vec![(0, Some(30))]), // reads x@30 before its PutDone
            put(0, 1, 0, 30),               // x@30 lands in the record
            put(1, 0, 1, 50),               // y@50 (dep x@30 via the read)
            rot(2, 0, vec![(0, Some(10)), (1, Some(50))]),
        ];
        let r = check_causal(&h);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("causal snapshot violation"));
    }

    #[test]
    fn streaming_feed_matches_batch_check() {
        let h = vec![
            put(0, 0, 0, 10),
            put(0, 1, 1, 20),
            rot(1, 0, vec![(0, Some(10)), (1, Some(20))]),
            put(0, 2, 0, 30),
            rot(1, 1, vec![(0, Some(30)), (1, Some(20))]),
        ];
        let mut ck = CausalChecker::new();
        for ev in &h {
            ck.feed(ev);
        }
        let streamed = ck.report();
        let batch = check_causal(&h);
        assert_eq!(streamed.ok(), batch.ok());
        assert_eq!(streamed.rots_checked, batch.rots_checked);
        assert_eq!(streamed.versions, batch.versions);
    }

    #[test]
    fn gc_bounds_residency_on_a_long_correct_stream() {
        // One writer, two readers that always catch up: everything below
        // the newest observed version becomes reclaimable each round.
        let mut ck = CausalChecker::new();
        let mut peak = 0;
        for round in 0..2_000u64 {
            let ts = 10 * (round + 1);
            ck.feed(&put(0, u32::try_from(round).unwrap(), 0, ts));
            ck.feed(&rot(1, u32::try_from(round).unwrap(), vec![(0, Some(ts))]));
            ck.feed(&rot(2, u32::try_from(round).unwrap(), vec![(0, Some(ts))]));
            if round % 100 == 99 {
                let r = ck.gc(3);
                peak = peak.max(r.live_versions);
            }
        }
        let r = ck.gc(3);
        assert!(
            r.live_versions <= 8,
            "gc must keep only the recent window: {r:?}"
        );
        assert!(r.reclaimed_total > 1_900, "{r:?}");
        assert!(
            peak <= 110,
            "residency between passes stays bounded: {peak}"
        );
        assert!(ck.report().ok());
    }

    #[test]
    fn gc_below_min_sessions_is_a_noop() {
        let mut ck = CausalChecker::new();
        for round in 0..50u64 {
            let ts = 10 * (round + 1);
            ck.feed(&put(0, u32::try_from(round).unwrap(), 0, ts));
            ck.feed(&rot(1, u32::try_from(round).unwrap(), vec![(0, Some(ts))]));
        }
        let r = ck.gc(3); // only 2 sessions seen so far
        assert_eq!(r.reclaimed_total, 0);
        assert_eq!(r.live_versions, 50);
    }

    #[test]
    fn gc_preserves_detection_of_later_violations() {
        // A long correct prefix is reclaimed; a backwards read of live
        // (post-floor) versions afterwards must still be flagged.
        let mut ck = CausalChecker::new();
        for round in 0..500u64 {
            let ts = 10 * (round + 1);
            ck.feed(&put(0, u32::try_from(round).unwrap(), 0, ts));
            ck.feed(&rot(1, u32::try_from(round).unwrap(), vec![(0, Some(ts))]));
            ck.feed(&rot(2, u32::try_from(round).unwrap(), vec![(0, Some(ts))]));
        }
        let r = ck.gc(3);
        assert!(r.reclaimed_total > 400, "{r:?}");
        // Two fresh versions after the gc pass...
        ck.feed(&put(0, 500, 0, 6_000));
        ck.feed(&put(0, 501, 0, 6_010));
        ck.feed(&rot(1, 500, vec![(0, Some(6_010))]));
        // ...then c1 reads backwards: 6_000 after observing 6_010.
        ck.feed(&rot(1, 501, vec![(0, Some(6_000))]));
        let rep = ck.report();
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        assert!(rep.violations[0].contains("session violation"));
    }

    #[test]
    fn gc_pins_state_parked_checks_still_need() {
        // c1 reads x@30 before its PutDone lands, then keeps reading the
        // writer's newer versions; every such read parks (the x@30
        // reference is unresolved) and pins its observation snapshot.
        // When x@30 finally registers — after a gc pass over the prefix —
        // it turns out to sit at the *end* of c0's session, so it covers
        // the whole prefix and c1's later reads were backwards. Settling
        // that at report() dereferences the parked snapshots' members,
        // which gc must therefore have kept alive.
        let mut ck = CausalChecker::new();
        ck.feed(&put(0, 0, 0, 10));
        ck.feed(&rot(1, 0, vec![(0, Some(30))])); // x@30 not yet recorded
        for round in 1..200u32 {
            let ts = 10 * (u64::from(round) + 10);
            ck.feed(&put(0, round, 0, ts));
            ck.feed(&rot(2, round, vec![(0, Some(ts))]));
            ck.feed(&rot(1, round, vec![(0, Some(ts))]));
        }
        let r = ck.gc(3);
        assert!(r.reclaimed_total > 0, "prefix must be reclaimable: {r:?}");
        ck.feed(&put(0, 200, 0, 30)); // x@30 lands, covering the prefix
        let rep = ck.report();
        assert!(!rep.ok(), "c1's post-x@30 reads are backwards");
        assert!(
            rep.violations
                .iter()
                .all(|v| v.contains("session violation")),
            "{:?}",
            rep.violations
        );
    }

    #[test]
    fn gc_interleaved_matches_batch_verdict_on_anomaly_history() {
        // The Figure-1 anomaly embedded after a reclaimable prefix: the gc
        // pass must not eat the recent versions the violation involves.
        let mut ck = CausalChecker::new();
        for round in 0..300u32 {
            let ts = 10 * (u64::from(round) + 1);
            ck.feed(&put(0, round, 0, ts));
            ck.feed(&rot(1, round, vec![(0, Some(ts))]));
            ck.feed(&rot(2, round, vec![(0, Some(ts))]));
        }
        ck.gc(3);
        ck.feed(&put(0, 300, 0, 4_000)); // X1
        ck.feed(&put(0, 301, 1, 4_010)); // Y1 depends on X1
        ck.feed(&rot(1, 300, vec![(0, Some(3_000)), (1, Some(4_010))]));
        let rep = ck.report();
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        assert!(rep.violations[0].contains("causal snapshot violation"));
    }
}
