//! # Contrarian
//!
//! A from-scratch Rust reproduction of Didona, Guerraoui, Wang, Zwaenepoel:
//! *Causal Consistency and Latency Optimality: Friend or Foe?* (VLDB 2018).
//!
//! The workspace implements four causally consistent, partitioned,
//! multi-master geo-replicated key-value store protocols on one code base:
//!
//! * **Contrarian** ([`core_protocol`]) — the paper's contribution:
//!   nonblocking, one-version ROTs in 1½ (or 2) rounds, built on hybrid
//!   logical clocks and a stabilization protocol, with *no* extra overhead
//!   on PUTs.
//! * **CC-LO** ([`cclo`]) — the COPS-SNOW "latency-optimal" design:
//!   one-round, one-version, nonblocking ROTs paid for by a *readers check*
//!   on every PUT.
//! * **Cure** ([`cure`]) — the classic coordinator design on physical
//!   clocks: two rounds and blocking reads.
//! * **Okapi-style** ([`okapi`]) — HLC timestamps with scalar
//!   universal-stable-time snapshots: cheaper snapshot metadata, staler
//!   remote reads (Didona et al., 2017).
//!
//! ## Crate layout
//!
//! The backends share one **protocol-runtime kernel**, [`protocol`]
//! (`contrarian-protocol`): the `ProtocolServer` and client `Session`
//! traits, the one client operation loop `Client`, the generic `Node`
//! actor, the GSS `Stabilizer`, the periodic `Timers` registry, the
//! `Parked` deferred-request queue, the one generic cluster builder, and a
//! conformance suite that runs identical convergence + session checks
//! against every backend. A protocol crate contains *only* its server
//! state machine, its client-session metadata and its message types;
//! adding a fourth backend is roughly one file (implement the traits plus
//! a `ProtocolSpec`).
//!
//! Underneath sit the building blocks, layered strictly as
//! `types → runtime → {sim, net} → protocol → backends`:
//! [`types`] (ids, keys, vectors, config, wire sizes), [`clock`] (HLC /
//! Lamport / simulated physical clocks), [`storage`] (multi-version
//! chains), [`workload`] (zipfian closed-loop generation), [`runtime`]
//! (the execution substrate both runtimes share: `Actor`/`ActorCtx`, the
//! cost model, metrics, history recording), [`sim`] (the deterministic
//! discrete-event cluster simulator with a calendar-queue scheduler sized
//! for 128-partition sweeps), and [`net`] (the live TCP runtime: the
//! same state machines hosted on an epoll reactor per core, links as real
//! loopback sockets with Nagle disabled, and every message through the
//! hand-rolled wire codec in [`types::codec`] — a sibling of the
//! simulator, not a dependent). [`harness`] regenerates every figure and
//! table of the paper, checks the paper's findings as one claims table,
//! and runs studies beyond the paper (partition scaling to 256
//! partitions, open-loop saturation knees, a real-socket latency
//! comparison); `contrarian-bench` holds the Criterion benchmarks
//! (`BENCH_baseline.json` is the checked-in baseline).
//!
//! Protocols are deterministic state machines driven by the simulator —
//! used to regenerate the paper's results — or by the TCP runtime for
//! real concurrent execution; both speak the same `ActorCtx` interface,
//! so protocol code never knows which runtime is driving it.
//!
//! ## Building
//!
//! The workspace builds fully offline: external dependencies (`rand`,
//! `proptest`, `criterion`) resolve to minimal in-repo shims under
//! `crates/shims/`; swap the
//! `[workspace.dependencies]` path entries for registry versions to use the
//! real crates. `cargo build --release && cargo test -q` builds and tests
//! every crate; `cargo run -p contrarian-harness -- all` regenerates the
//! paper's tables and figures
//! (`CONTRARIAN_SCALE=smoke|quick|paper|large|xlarge`).
//!
//! ## Quickstart
//!
//! The embedded facade runs a single-DC Contrarian cluster deterministically
//! in process:
//!
//! ```
//! use contrarian::api::CausalStore;
//! use contrarian::types::{ClusterConfig, Key};
//!
//! let mut store = CausalStore::open(ClusterConfig::small());
//! store.put(Key(1), "hello".into()).unwrap();
//! store.put(Key(2), "world".into()).unwrap();
//! let snap = store.rot(&[Key(1), Key(2)]).unwrap();
//! assert_eq!(snap[0].as_deref(), Some(&b"hello"[..]));
//! store.shutdown();
//! ```
//!
//! Standing up a full simulated cluster for any backend goes through the
//! kernel's generic builder:
//!
//! ```
//! use contrarian::protocol::{build_cluster, Clients, ClusterParams, SchedKind};
//! use contrarian::core_protocol::Contrarian;
//! use contrarian::sim::cost::CostModel;
//! use contrarian::types::ClusterConfig;
//! use contrarian::workload::WorkloadSpec;
//!
//! let params = ClusterParams {
//!     cfg: ClusterConfig::small(),
//!     cost: CostModel::functional(),
//!     clients: Clients::Closed {
//!         workload: WorkloadSpec::paper_default().with_rot_size(2),
//!         per_dc: 4,
//!     },
//!     seed: 42,
//! };
//! let mut sim = build_cluster::<Contrarian>(&params, SchedKind::default());
//! sim.start();
//! sim.run_until(10_000_000); // 10 virtual milliseconds
//! ```

pub use contrarian_cclo as cclo;
pub use contrarian_clock as clock;
pub use contrarian_core as core_protocol;
pub use contrarian_cure as cure;
pub use contrarian_harness as harness;
pub use contrarian_net as net;
pub use contrarian_okapi as okapi;
pub use contrarian_protocol as protocol;
pub use contrarian_runtime as runtime;
pub use contrarian_sim as sim;
pub use contrarian_storage as storage;
pub use contrarian_types as types;
pub use contrarian_workload as workload;

pub mod api;

/// Alias so `contrarian::core::...` works alongside the `core` built-in via
/// explicit path.
pub use contrarian_core;
