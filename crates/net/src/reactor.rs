//! The event-driven reactor: a fixed pool of event-loop threads that host
//! the cluster's nodes and drive every socket.
//!
//! One reactor thread per core (`available_parallelism`) multiplexes the
//! sockets of the nodes it hosts through the readiness [`Poller`], so the
//! thread count is fixed however many nodes and links the cluster has.
//! Each node lives on the reactor that owns its listener: the reactor
//! keeps the node's [`NodeState`] and actor, runs every handler as the
//! simulator's [`Step`] at the wall-clock `now` it reads before the
//! handler, and keeps the node's timers on its own timer heap, keyed in
//! nanoseconds since the run started. Its nodes share one [`Sink`], as a
//! simulator shard's nodes do.
//!
//! ## Connections
//!
//! One TCP connection per **peer pair**, not per directed link: frames
//! already carry `(from, msg)`, so demultiplexing inbound traffic is free,
//! and the acceptor learns who is on the other end from the
//! [`Hello`](crate::conn::Hello) frame that opens every dialed connection.
//! A node dials from its own reactor and accepts on it, so both ends of
//! every one of its sockets are local, and so is the route map that pins
//! each directed link to one socket (first insertion wins, which keeps
//! per-link FIFO): when node B first replies to node A, the map finds the
//! accepted connection A dialed and reuses it. A simultaneous-dial race
//! can briefly produce two sockets for a pair; each side then keeps
//! writing on its own dial, which is correct, merely not minimal.
//!
//! ## Data flow
//!
//! A readable edge reads the socket into a
//! [`FrameAssembler`], and each whole
//! frame runs the owning node's step on the spot. The step's sends are
//! encoded and pushed onto the rings of that node's connections, and
//! every ring that took frames is written out with vectored writes
//! before the reactor next waits; writability is tracked edge-triggered.
//! A link that dies drops out of the route map, so the next send over it
//! dials fresh.
//!
//! ## Backpressure
//!
//! Nothing blocks. A step that leaves one of its node's rings at or above
//! [`RING_HIGH`] pauses the node: it runs no input and fires no timer
//! (injected messages and due timers wait in order), and its sockets stop
//! being read, so TCP pushes back on its peers. It resumes once every one
//! of its rings is below half.
//!
//! ## Reconnects
//!
//! A refused dial is retried on the reactor's timer heap on an exponential
//! schedule (2 ms doubling to 250 ms, ten attempts: ≈ ¾ s in all, enough
//! to ride out listener backlogs hammered during a large cluster's
//! bring-up). The retry is scheduled, never slept, so one unreachable peer
//! never stalls the other connections sharing the reactor.
//!
//! ## Shutdown
//!
//! On `Inject::Shutdown` a reactor stops dispatching: inbound frames are
//! read and discarded, so every peer's rings drain, and its own rings are
//! written out until empty (or `DRAIN_GRACE` runs out). The thread then
//! returns its nodes' actors and metrics.

use crate::cluster::ClusterCore;
use crate::conn::{decode_hello, hello_frame, OutRing, RING_HIGH};
use crate::sys::{self, Poller};
use contrarian_runtime::actor::{Actor, TimerKind};
use contrarian_runtime::frame::{encode_frame, FrameAssembler};
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::step::{NodeState, Sink, Step};
use contrarian_types::codec::{from_bytes, Wire};
use contrarian_types::Addr;
use std::cmp::Reverse;
use std::collections::{hash_map, BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the wake pipe on every reactor (a slot token never reaches it).
const WAKE_TOKEN: u64 = u64::MAX;

/// Dial attempts before a peer is declared unreachable (≈ ¾ s of
/// [`backoff_delay`] in all).
const MAX_DIAL_ATTEMPTS: u32 = 10;

/// How long shutdown waits for outbound rings to drain.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Longest a reactor waits with no timer due.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// Backoff delay after the `attempts`-th consecutive dial failure:
/// 2 ms doubling, capped at 250 ms, scheduled on the reactor's timer heap.
fn backoff_delay(attempts: u32) -> Duration {
    Duration::from_millis((2u64 << attempts.saturating_sub(1).min(16)).min(250))
}

/// The reactor pool size: the machine's available parallelism.
pub(crate) fn pool_size() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Work handed to a reactor from outside the cluster.
pub(crate) enum Inject<M> {
    /// A message for node `node` of this reactor.
    Deliver { node: usize, from: Addr, msg: M },
    /// Stop dispatching, drain the rings, return the nodes.
    Shutdown,
}

/// The cross-thread face of one reactor: its inject queue and wake pipe.
pub(crate) struct Mailbox<M> {
    injects: Mutex<Vec<Inject<M>>>,
    wake_tx: UnixStream,
    /// Coalesces wake bytes: set by the first sender after the reactor
    /// last drained the pipe.
    wake_armed: AtomicBool,
}

impl<M> Mailbox<M> {
    /// A mailbox and the read end of its wake pipe.
    pub(crate) fn new() -> (Self, UnixStream) {
        let (tx, rx) = UnixStream::pair().expect("wake pipe");
        tx.set_nonblocking(true).expect("wake tx nonblocking");
        rx.set_nonblocking(true).expect("wake rx nonblocking");
        let mailbox = Mailbox {
            injects: Mutex::new(Vec::new()),
            wake_tx: tx,
            wake_armed: AtomicBool::new(false),
        };
        (mailbox, rx)
    }

    pub(crate) fn push(&self, inj: Inject<M>) {
        self.injects
            .lock()
            .expect("inject queue poisoned")
            .push(inj);
        if !self.wake_armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.wake_tx).write(&[1]);
        }
    }
}

/// A node as [`spawn_reactor`] takes it: its state, its actor and the
/// listener its peers dial.
pub(crate) struct Hosted<A> {
    pub(crate) state: NodeState,
    pub(crate) actor: A,
    pub(crate) listener: TcpListener,
}

/// What a node's step runs for.
enum Work<M> {
    Start,
    Msg { from: Addr, msg: M },
    Timer(TimerKind),
}

struct Node<A: Actor> {
    state: NodeState,
    actor: A,
    /// One of this node's rings reached [`RING_HIGH`]: it runs nothing
    /// until all of them are below half.
    paused: bool,
    /// Injected messages and due timers that arrived while paused, in
    /// arrival order.
    held: VecDeque<Work<A::Msg>>,
}

/// A timer-heap entry.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Alarm {
    /// The next dial attempt of the connection behind the token.
    Dial(u64),
    /// A node's timer: `(node, kind, arg)`.
    Node(usize, u16, u64),
}

enum ConnState {
    /// Nonblocking connect in flight; waiting for writability.
    Connecting,
    /// Waiting for the (first or next) dial attempt on the timer heap.
    Backoff,
    Established,
}

/// One end of a connection.
struct Conn {
    /// The local node this end belongs to: its sends leave here, and what
    /// arrives is for it.
    owner: usize,
    /// The node at the other end (`None` on an accepted connection until
    /// its hello arrives).
    peer: Option<Addr>,
    stream: Option<TcpStream>,
    state: ConnState,
    ring: OutRing,
    assembler: FrameAssembler,
    /// Armed by a writability edge, disarmed by a short write.
    can_write: bool,
    /// Armed by a readability edge, disarmed by `WouldBlock`.
    readable: bool,
    /// The route map's `(owner, peer)` entry is this connection.
    routed: bool,
    /// Where this end dials and how often it has failed (dialed ends).
    dial: Option<(SocketAddr, u32)>,
    /// Wire-stat bytes to not count once the hello frame drains.
    hello_debit: u64,
}

enum Entry {
    Listener { node: usize, listener: TcpListener },
    Conn(Conn),
}

struct Slot {
    gen: u32,
    entry: Option<Entry>,
}

fn token_of(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// One reactor thread's world: its nodes, their sink, the poller, the
/// slab of listeners and connections, the route map and the timer heap.
struct Reactor<A: Actor> {
    core: Arc<ClusterCore<A::Msg>>,
    /// This reactor's index in `core.reactors`.
    id: usize,
    wake_rx: UnixStream,
    poller: Poller,
    nodes: Vec<Node<A>>,
    sink: Sink<A::Msg>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// `(local node, remote node) → connection token`.
    routes: HashMap<(usize, Addr), u64>,
    /// `(deadline ns, arming order, alarm)`, earliest first.
    timers: BinaryHeap<Reverse<(u64, u64, Alarm)>>,
    armed: u64,
    /// Connections whose ring went from empty to holding frames since
    /// the last [`Reactor::settle`].
    unflushed: Vec<u64>,
    /// Paused nodes a drained or closed ring may have freed.
    unpause: Vec<usize>,
    read_buf: Box<[u8]>,
    encode_buf: Vec<u8>,
    /// Set by [`Inject::Shutdown`]: when draining gives up.
    drain_deadline: Option<Instant>,
}

impl<A> Reactor<A>
where
    A: Actor,
    A::Msg: Wire,
{
    fn new(
        core: Arc<ClusterCore<A::Msg>>,
        id: usize,
        wake_rx: UnixStream,
        hosted: Vec<Hosted<A>>,
    ) -> Self {
        let sink = Sink {
            recording: core.run.recording,
            ..Sink::default()
        };
        let mut r = Reactor {
            core,
            id,
            wake_rx,
            poller: Poller::new().expect("create poller"),
            nodes: Vec::with_capacity(hosted.len()),
            sink,
            slots: Vec::new(),
            free: Vec::new(),
            routes: HashMap::new(),
            timers: BinaryHeap::new(),
            armed: 0,
            unflushed: Vec::new(),
            unpause: Vec::new(),
            read_buf: vec![0u8; 64 * 1024].into_boxed_slice(),
            encode_buf: Vec::new(),
            drain_deadline: None,
        };
        r.poller
            .register(r.wake_rx.as_raw_fd(), WAKE_TOKEN)
            .expect("register wake pipe");
        for h in hosted {
            let fd = h.listener.as_raw_fd();
            let node = r.nodes.len();
            r.nodes.push(Node {
                state: h.state,
                actor: h.actor,
                paused: false,
                held: VecDeque::new(),
            });
            let token = r.alloc(Entry::Listener {
                node,
                listener: h.listener,
            });
            r.poller.register(fd, token).expect("register listener");
        }
        r
    }

    fn alloc(&mut self, entry: Entry) -> u64 {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                entry: None,
            });
            self.slots.len() - 1
        });
        self.slots[idx].entry = Some(entry);
        token_of(self.slots[idx].gen, idx)
    }

    /// Resolves a token to its slot index, rejecting stale generations
    /// (a timer or edge for a connection that already died).
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        (idx < self.slots.len() && self.slots[idx].gen == gen && self.slots[idx].entry.is_some())
            .then_some(idx)
    }

    fn quiet(&self) -> bool {
        self.drain_deadline.is_some() || self.core.run.stopped.load(Ordering::SeqCst)
    }

    fn run(mut self) -> (Vec<A>, Metrics) {
        for n in 0..self.nodes.len() {
            self.offer(n, Work::Start);
        }
        let mut events = Vec::new();
        loop {
            self.fire_timers();
            self.settle();
            if let Some(deadline) = self.drain_deadline {
                if Instant::now() >= deadline || !self.pending_output() {
                    break;
                }
            }
            let mut timeout = if self.drain_deadline.is_some() {
                Duration::from_millis(10)
            } else {
                IDLE_WAIT
            };
            if let Some(Reverse((at, ..))) = self.timers.peek() {
                let left = at.saturating_sub(self.core.run.now());
                timeout = timeout.min(Duration::from_nanos(left));
            }
            events.clear();
            self.poller
                .wait(&mut events, Some(timeout))
                .expect("poller wait");
            // Sockets first: a frame already in a socket when `shutdown`
            // was called is still dispatched.
            let mut woke = false;
            for &ev in &events {
                if ev.token == WAKE_TOKEN {
                    woke = true;
                } else {
                    self.handle_event(ev);
                }
            }
            if woke {
                self.drain_wake();
                self.handle_injects();
            }
        }
        let actors = self.nodes.into_iter().map(|n| n.actor).collect();
        (actors, self.sink.metrics)
    }

    /// Runs node `n`'s step for `work` now, or holds the work while the
    /// node is paused. Once shutdown began nothing is dispatched.
    fn offer(&mut self, n: usize, work: Work<A::Msg>) {
        if self.drain_deadline.is_some() {
            return;
        }
        let node = &mut self.nodes[n];
        if node.paused {
            node.held.push_back(work);
        } else {
            self.step(n, work);
        }
    }

    /// One handler of node `n`, then what it left in the sink: sends onto
    /// the rings, timers onto the heap, records into the history log.
    fn step(&mut self, n: usize, work: Work<A::Msg>) {
        let run = &self.core.run;
        let node = &mut self.nodes[n];
        self.sink.stopped = run.stopped.load(Ordering::SeqCst);
        self.sink.metrics.enabled = run.measuring.load(Ordering::Relaxed);
        let mut step = Step {
            now: run.now(),
            node: &mut node.state,
            sink: &mut self.sink,
        };
        match work {
            Work::Start => node.actor.on_start(&mut step),
            Work::Msg { from, msg } => node.actor.on_message(&mut step, from, msg),
            Work::Timer(kind) => node.actor.on_timer(&mut step, kind),
        }
        let mut sent = std::mem::take(&mut self.sink.sent);
        for (to, msg) in sent.drain(..) {
            self.send(n, to, &msg);
        }
        self.sink.sent = sent;
        for (at, kind) in self.sink.timers.drain(..) {
            self.armed += 1;
            let alarm = Alarm::Node(n, kind.kind, kind.a);
            self.timers.push(Reverse((at, self.armed, alarm)));
        }
        self.core.run.flush_history(&mut self.sink.history);
    }

    /// Encodes `msg` from node `n` and queues it on the connection to
    /// `to`, opening one if none is live. A ring this leaves at
    /// [`RING_HIGH`] pauses the node.
    fn send(&mut self, n: usize, to: Addr, msg: &A::Msg) {
        self.encode_buf.clear();
        self.nodes[n].state.addr.encode(&mut self.encode_buf);
        msg.encode(&mut self.encode_buf);
        let frame = encode_frame(&self.encode_buf);
        let token = match self.routes.get(&(n, to)) {
            Some(&token) => token,
            None => self.open(n, to),
        };
        let idx = self.resolve(token).expect("routes hold live connections");
        let Some(Entry::Conn(c)) = &mut self.slots[idx].entry else {
            unreachable!("routes hold connections")
        };
        if c.ring.is_empty() {
            self.unflushed.push(token);
        }
        c.ring.push(frame);
        if c.ring.bytes() >= RING_HIGH {
            self.nodes[n].paused = true;
        }
    }

    /// A fresh connection from node `n` to `to`, its hello queued and its
    /// first dial due at once. Routes `(n, to)` over it.
    fn open(&mut self, n: usize, to: Addr) -> u64 {
        let at = *self
            .core
            .endpoints
            .get(&to)
            .unwrap_or_else(|| panic!("no endpoint for {to}"));
        let mut ring = OutRing::default();
        ring.push(hello_frame(self.nodes[n].state.addr, to));
        let hello_debit = ring.bytes() as u64;
        let token = self.alloc(Entry::Conn(Conn {
            owner: n,
            peer: Some(to),
            stream: None,
            state: ConnState::Backoff,
            ring,
            assembler: FrameAssembler::new(),
            can_write: false,
            readable: false,
            routed: true,
            dial: Some((at, 0)),
            hello_debit,
        }));
        self.routes.insert((n, to), token);
        self.schedule(Duration::ZERO, Alarm::Dial(token));
        token
    }

    fn schedule(&mut self, delay: Duration, alarm: Alarm) {
        let at = self.core.run.now() + delay.as_nanos() as u64;
        self.armed += 1;
        self.timers.push(Reverse((at, self.armed, alarm)));
    }

    /// Fires every timer due by now: dial attempts, and node timers (held
    /// while their node is paused).
    fn fire_timers(&mut self) {
        let now = self.core.run.now();
        while self
            .timers
            .peek()
            .is_some_and(|Reverse((at, ..))| *at <= now)
        {
            let Reverse((_, _, alarm)) = self.timers.pop().expect("peeked");
            match alarm {
                Alarm::Dial(token) => self.service(token, Self::dial),
                Alarm::Node(n, kind, a) => self.offer(n, Work::Timer(TimerKind::with_arg(kind, a))),
            }
        }
    }

    /// Writes out every ring that took frames, and resumes every paused
    /// node whose rings all fell below half — which may queue more.
    fn settle(&mut self) {
        loop {
            while let Some(token) = self.unflushed.pop() {
                self.service(token, |r, _, c| r.drain_ring(c).map(|()| true));
            }
            let Some(n) = self.unpause.pop() else {
                return;
            };
            if self.nodes[n].paused && self.rings_below_half(n) {
                self.resume(n);
            }
        }
    }

    fn rings_below_half(&self, n: usize) -> bool {
        self.slots.iter().all(|s| match &s.entry {
            Some(Entry::Conn(c)) if c.owner == n => c.ring.bytes() < RING_HIGH / 2,
            _ => true,
        })
    }

    /// Tokens of the connections whose owner passes `owned`.
    fn conns(&self, owned: impl Fn(usize) -> bool) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(&s.entry, Some(Entry::Conn(c)) if owned(c.owner)))
            .map(|(idx, s)| token_of(s.gen, idx))
            .collect()
    }

    /// Unpauses node `n`: what it held runs first, in order, then its
    /// sockets are read again — until it pauses anew.
    fn resume(&mut self, n: usize) {
        self.nodes[n].paused = false;
        while !self.nodes[n].paused {
            let Some(work) = self.nodes[n].held.pop_front() else {
                break;
            };
            self.step(n, work);
        }
        for token in self.conns(|owner| owner == n) {
            self.pump(token);
        }
    }

    /// Anything still owed to the wire? (Connections mid-dial are not
    /// counted: their queued frames are undeliverable pre-stop traffic.)
    fn pending_output(&self) -> bool {
        self.slots.iter().any(|s| {
            matches!(
                &s.entry,
                Some(Entry::Conn(c))
                    if matches!(c.state, ConnState::Established) && !c.ring.is_empty()
            )
        })
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Order matters: disarm *after* draining and *before* taking the
        // inject queue, so a sender that enqueues after our take either
        // sees the armed flag cleared (and writes a fresh wake byte) or
        // its inject is already in the batch we take.
        self.core.reactors[self.id]
            .wake_armed
            .store(false, Ordering::SeqCst);
    }

    fn handle_injects(&mut self) {
        loop {
            let batch = std::mem::take(
                &mut *self.core.reactors[self.id]
                    .injects
                    .lock()
                    .expect("inject queue poisoned"),
            );
            if batch.is_empty() {
                return;
            }
            for inj in batch {
                match inj {
                    Inject::Deliver { node, from, msg } => {
                        self.offer(node, Work::Msg { from, msg })
                    }
                    Inject::Shutdown => self.begin_shutdown(),
                }
            }
        }
    }

    /// Stops dispatching — what paused nodes held is dropped, so no
    /// later resume runs it — and reads what they left unread, so the
    /// peers' rings drain.
    fn begin_shutdown(&mut self) {
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        for node in &mut self.nodes {
            node.held.clear();
        }
        for token in self.conns(|_| true) {
            self.pump(token);
        }
    }

    /// Runs `f` on the connection behind `token` (taking it out of the
    /// slab for the duration), then keeps or buries it by the outcome.
    /// `f` never runs a step.
    fn service(
        &mut self,
        token: u64,
        f: impl FnOnce(&mut Self, u64, &mut Conn) -> io::Result<bool>,
    ) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        let Some(Entry::Conn(mut conn)) = self.slots[idx].entry.take() else {
            return;
        };
        let outcome = f(self, token, &mut conn);
        self.slots[idx].entry = Some(Entry::Conn(conn));
        match outcome {
            Ok(true) => {}
            Ok(false) => self.kill(idx, None),
            Err(e) => self.kill(idx, Some(e)),
        }
    }

    fn kill(&mut self, idx: usize, err: Option<io::Error>) {
        let Some(Entry::Conn(conn)) = self.slots[idx].entry.take() else {
            return;
        };
        let owner = conn.owner;
        if let Some(e) = err.filter(|_| !self.quiet()) {
            let me = self.nodes[owner].state.addr;
            match conn.peer {
                Some(peer) => eprintln!("net: link {me} -> {peer} died mid-run: {e}"),
                None => eprintln!("net: link into {me} died before its hello: {e}"),
            }
        }
        if conn.routed {
            self.routes
                .remove(&(owner, conn.peer.expect("a routed link has a peer")));
        }
        if let Some(s) = &conn.stream {
            self.poller.deregister(s.as_raw_fd());
        }
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.free.push(idx);
        if self.nodes[owner].paused {
            self.unpause.push(owner);
        }
    }

    fn handle_event(&mut self, ev: sys::Event) {
        let Some(idx) = self.resolve(ev.token) else {
            return;
        };
        if matches!(self.slots[idx].entry, Some(Entry::Listener { .. })) {
            if ev.readable || ev.error {
                self.accept_all(idx);
            }
            return;
        }
        self.service(ev.token, |r, token, c| r.conn_io(token, ev, c));
        self.pump(ev.token);
    }

    /// A socket edge: completes a connect, writes the ring if writable,
    /// and notes readability for [`Reactor::pump`].
    fn conn_io(&mut self, token: u64, ev: sys::Event, c: &mut Conn) -> io::Result<bool> {
        if matches!(c.state, ConnState::Connecting) && (ev.writable || ev.error) {
            let fd = c
                .stream
                .as_ref()
                .expect("connecting has a stream")
                .as_raw_fd();
            if let Err(e) = sys::take_socket_error(fd) {
                self.poller.deregister(fd);
                c.stream = None;
                return self.dial_failed(token, c, e);
            }
            self.establish(c)?;
        }
        if matches!(c.state, ConnState::Established) {
            if ev.writable {
                c.can_write = true;
                self.drain_ring(c)?;
            }
            if ev.readable || ev.error {
                c.readable = true;
            }
        }
        Ok(true)
    }

    /// Accepts every pending dial on the listener in slot `idx` (taken
    /// out of the slab meanwhile: accepting allocates slots).
    fn accept_all(&mut self, idx: usize) {
        let Some(Entry::Listener { node, listener }) = self.slots[idx].entry.take() else {
            unreachable!("a listener slot")
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true).expect("accepted nonblocking");
                    stream
                        .set_nodelay(true)
                        .expect("TCP_NODELAY must be settable");
                    self.core.wire.on_socket();
                    let fd = stream.as_raw_fd();
                    let token = self.alloc(Entry::Conn(Conn {
                        owner: node,
                        peer: None, // learned from the hello
                        stream: Some(stream),
                        state: ConnState::Established,
                        ring: OutRing::default(),
                        assembler: FrameAssembler::new(),
                        can_write: true,
                        readable: true,
                        routed: false,
                        dial: None,
                        hello_debit: 0,
                    }));
                    // Registering reports what the socket already holds.
                    if let Err(e) = self.poller.register(fd, token) {
                        panic!("register accepted socket on {}: {e}", self.addr(node));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.drain_deadline.is_some() {
                        break;
                    }
                    panic!("accept on {}: {e}", self.addr(node));
                }
            }
        }
        self.slots[idx].entry = Some(Entry::Listener { node, listener });
    }

    fn addr(&self, n: usize) -> Addr {
        self.nodes[n].state.addr
    }

    fn dial(&mut self, token: u64, c: &mut Conn) -> io::Result<bool> {
        let (at, _) = c.dial.expect("a dialed link");
        match sys::connect_nonblocking(at) {
            Ok((stream, done)) => {
                self.poller.register(stream.as_raw_fd(), token)?;
                c.stream = Some(stream);
                if done {
                    self.establish(c)?;
                } else {
                    c.state = ConnState::Connecting;
                }
                Ok(true)
            }
            Err(e) => self.dial_failed(token, c, e),
        }
    }

    fn dial_failed(&mut self, token: u64, c: &mut Conn, err: io::Error) -> io::Result<bool> {
        if self.drain_deadline.is_some() {
            return Ok(false);
        }
        let (at, attempts) = c.dial.as_mut().expect("a dialed link");
        *attempts += 1;
        if *attempts >= MAX_DIAL_ATTEMPTS {
            panic!(
                "connect {} -> {} ({at}): {err} (after {attempts} attempts)",
                self.addr(c.owner),
                c.peer.expect("a dialed link has a peer"),
            );
        }
        let delay = backoff_delay(*attempts);
        c.state = ConnState::Backoff;
        self.schedule(delay, Alarm::Dial(token));
        Ok(true)
    }

    fn establish(&mut self, c: &mut Conn) -> io::Result<()> {
        c.state = ConnState::Established;
        c.can_write = true;
        c.readable = true;
        self.core.wire.on_socket();
        self.drain_ring(c)
    }

    /// Writes as much of the ring as the socket accepts, vectored, books
    /// the wire stats (minus the hello handshake), and notes the owner
    /// for a resume check if it is paused and this ring fell below half.
    fn drain_ring(&mut self, c: &mut Conn) -> io::Result<()> {
        if !matches!(c.state, ConnState::Established) || !c.can_write {
            return Ok(());
        }
        let Some(stream) = c.stream.as_mut() else {
            return Ok(());
        };
        let mut out = c.ring.drain_to(stream)?;
        if out.frames > 0 && c.hello_debit > 0 {
            // The hello is always the first frame out; once a full frame
            // has drained it is gone.
            out.frames -= 1;
            out.bytes = out.bytes.saturating_sub(c.hello_debit);
            c.hello_debit = 0;
        }
        self.core.wire.on_frames(out.frames, out.bytes);
        if out.would_block {
            c.can_write = false;
        }
        if self.nodes[c.owner].paused && c.ring.bytes() < RING_HIGH / 2 {
            self.unpause.push(c.owner);
        }
        Ok(())
    }

    /// Runs the owner's step on every whole frame that `token`'s socket
    /// holds, reading it until it would block, the owner pauses or the
    /// link ends. After shutdown began, frames are read and discarded.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(idx) = self.resolve(token) else {
                return;
            };
            let Some(Entry::Conn(c)) = &mut self.slots[idx].entry else {
                return;
            };
            let owner = c.owner;
            let dispatching = self.drain_deadline.is_none();
            if dispatching && self.nodes[owner].paused {
                return;
            }
            match c.assembler.next_frame() {
                Ok(Some(payload)) => {
                    self.on_frame(idx, token, payload);
                    continue;
                }
                Ok(None) => {}
                Err(e) => panic!("frame error on link into {}: {e}", self.addr(owner)),
            }
            if !c.readable {
                return;
            }
            let stream = c.stream.as_mut().expect("established has a stream");
            match stream.read(&mut self.read_buf) {
                Ok(0) => {
                    if c.assembler.is_mid_frame() && !self.quiet() {
                        panic!(
                            "truncated frame on link into {}: EOF mid-frame",
                            self.addr(owner)
                        );
                    }
                    // Clean EOF: the peer closed the link.
                    return self.kill(idx, None);
                }
                Ok(n) => c.assembler.extend(&self.read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => c.readable = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return self.kill(idx, Some(e)),
            }
        }
    }

    /// One reassembled inbound frame: the hello (on an accepted
    /// connection's first frame) or a `(from, msg)` for the owner.
    fn on_frame(&mut self, idx: usize, token: u64, payload: Vec<u8>) {
        let Some(Entry::Conn(c)) = &mut self.slots[idx].entry else {
            unreachable!("a live connection")
        };
        let owner = c.owner;
        if c.peer.is_none() {
            let h = decode_hello(&payload)
                .unwrap_or_else(|e| panic!("bad hello on accepted connection: {e}"));
            let me = self.nodes[owner].state.addr;
            if h.to != me {
                panic!("hello addressed to {} arrived at {me}'s listener", h.to);
            }
            c.peer = Some(h.from);
            // Replies reuse the accepted socket unless a link to the
            // caller is already live (first wins).
            if let hash_map::Entry::Vacant(v) = self.routes.entry((owner, h.from)) {
                v.insert(token);
                c.routed = true;
            }
            return;
        }
        if self.drain_deadline.is_some() {
            return;
        }
        let (from, msg) = from_bytes::<(Addr, A::Msg)>(&payload)
            .unwrap_or_else(|e| panic!("corrupt frame for {}: {e}", self.addr(owner)));
        self.step(owner, Work::Msg { from, msg });
    }
}

/// Spawns reactor `id` hosting `nodes`. Its thread returns their actors,
/// in the order given, and the metrics their handlers gathered; a
/// handler's or the reactor's own panic is the thread's panic payload.
pub(crate) fn spawn_reactor<A>(
    core: Arc<ClusterCore<A::Msg>>,
    id: usize,
    wake_rx: UnixStream,
    nodes: Vec<Hosted<A>>,
) -> JoinHandle<(Vec<A>, Metrics)>
where
    A: Actor + Send + 'static,
    A::Msg: Wire,
{
    std::thread::Builder::new()
        .name(format!("cnet-reactor-{id}"))
        .spawn(move || Reactor::new(core, id, wake_rx, nodes).run())
        .expect("spawn reactor thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{shutdown_panic, Echo, Ping};
    use crate::cluster::NetCluster;
    use crate::conn::decode_hello;
    use contrarian_runtime::actor::ActorCtx;
    use contrarian_runtime::cost::{MsgClass, SimMessage};
    use contrarian_runtime::frame::MAX_FRAME;
    use contrarian_types::codec::{CodecError, Reader};
    use contrarian_types::{DcId, HistoryEvent, Op, PartitionId};

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        assert_eq!(backoff_delay(1), Duration::from_millis(2));
        assert_eq!(backoff_delay(2), Duration::from_millis(4));
        assert_eq!(backoff_delay(7), Duration::from_millis(128));
        assert_eq!(backoff_delay(8), Duration::from_millis(250));
        assert_eq!(backoff_delay(40), Duration::from_millis(250));
    }

    /// Both directions of a chatty pair must share one socket: the dialer
    /// counts one endpoint at establish, the acceptor one at accept, and
    /// the reply path reuses the accepted connection via its hello.
    #[test]
    fn peer_pair_shares_one_multiplexed_socket() {
        let server = Addr::server(DcId(0), PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        let nodes = vec![
            (
                server,
                Echo {
                    pongs: 0,
                    peer: None,
                },
            ),
            (
                client,
                Echo {
                    pongs: 0,
                    peer: Some(server),
                },
            ),
        ];
        let cluster = NetCluster::start(nodes, false, 11);
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.wire_stats().0 < 100 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = cluster.io_stats();
        assert_eq!(
            stats.sockets, 2,
            "one dial + one accept: the reply path must reuse the dialed socket"
        );
        assert_eq!(stats.transport_threads, pool_size());
        let (actors, ..) = cluster.shutdown();
        assert_eq!(
            actors.iter().find(|(a, _)| *a == client).unwrap().1.pongs,
            50
        );
    }

    /// Reads length-prefixed frames off a test-side (std, blocking)
    /// socket until `want` payloads arrived.
    fn read_payloads(stream: &mut TcpStream, want: usize) -> Vec<Vec<u8>> {
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        while got.len() < want {
            let n = stream.read(&mut buf).expect("read from reactor socket");
            assert!(n > 0, "reactor closed the link early");
            asm.extend(&buf[..n]);
            loop {
                match asm.next_frame() {
                    Ok(Some(p)) => got.push(p),
                    Ok(None) => break,
                    Err(e) => panic!("bad frame from reactor: {e}"),
                }
            }
        }
        got
    }

    /// Accepts one connection on a test-side listener within 10 s.
    fn accept_within_10s(l: &TcpListener) -> TcpStream {
        l.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false).unwrap();
                    return s;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "no dial arrived");
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("accept: {e}"),
            }
        }
    }

    /// A loopback port nothing listens on (bound, then freed).
    fn dead_port() -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    /// Sends each of `sends` on start, in order; then forwards every
    /// message it receives to `fwd` and records one PUT per message.
    struct Relay {
        sends: Vec<(Addr, Ping)>,
        fwd: Option<Addr>,
    }

    impl Actor for Relay {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            for (to, msg) in self.sends.drain(..) {
                ctx.send(to, msg);
            }
        }
        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, _from: Addr, msg: Ping) {
            if let Some(to) = self.fwd {
                ctx.send(to, msg);
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    /// A one-reactor cluster of one relay at `me`, with `peers` listening
    /// outside it.
    fn relay(
        me: Addr,
        sends: Vec<(Addr, Ping)>,
        fwd: Option<Addr>,
        peers: HashMap<Addr, SocketAddr>,
    ) -> NetCluster<Relay> {
        NetCluster::launch(vec![(me, Relay { sends, fwd })], false, 1, 1, peers)
    }

    /// A dead peer must back off on the reactor's timers — while it does,
    /// other connections on the same (single) reactor keep flowing, and
    /// once the listener appears the queued frames arrive.
    #[test]
    fn dial_backoff_is_scheduled_not_slept() {
        let me = Addr::client(DcId(0), 0);
        let dead = Addr::server(DcId(0), PartitionId(0));
        let live = Addr::server(DcId(0), PartitionId(1));
        let dead_at = dead_port();
        let live_l = TcpListener::bind("127.0.0.1:0").unwrap();
        let live_at = live_l.local_addr().unwrap();
        // Send to the dead peer first: with a sleeping backoff this would
        // stall the reactor ~¾ s; the reactor schedules it instead.
        let cluster = relay(
            me,
            vec![(dead, Ping(7)), (live, Ping(1))],
            None,
            HashMap::from([(dead, dead_at), (live, live_at)]),
        );

        // The live link delivers while the dead one is backing off.
        let mut s = accept_within_10s(&live_l);
        let payloads = read_payloads(&mut s, 2);
        let hello = decode_hello(&payloads[0]).expect("first frame is the hello");
        assert_eq!((hello.from, hello.to), (me, live));
        let (from, msg) = from_bytes::<(Addr, Ping)>(&payloads[1]).unwrap();
        assert_eq!((from, msg), (me, Ping(1)));

        // Now bring the dead listener up; the scheduled redial reaches it.
        // (The port can be lost to another process between the probe and
        // here — in that case the redial coverage is forfeited.)
        if let Ok(dl) = TcpListener::bind(dead_at) {
            let mut s = accept_within_10s(&dl);
            let payloads = read_payloads(&mut s, 2);
            assert_eq!(
                from_bytes::<(Addr, Ping)>(&payloads[1]).unwrap(),
                (me, Ping(7)),
                "frames queued during backoff arrive after the reconnect"
            );
        }
        cluster.shutdown();
    }

    /// Waits (up to 10 s) for a reactor to stop on its own, then returns
    /// the panic message `shutdown` re-raises for it.
    fn panic_message<A: Actor + Send + 'static>(cluster: NetCluster<A>) -> String
    where
        A::Msg: Wire,
    {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cluster.reactors.iter().any(|t| t.is_finished()) {
            assert!(Instant::now() < deadline, "the reactor kept running");
            std::thread::sleep(Duration::from_millis(5));
        }
        shutdown_panic(cluster)
    }

    /// Sending to a node no listener was recorded for is a wiring bug: it
    /// panics, naming the node, instead of dialing somewhere.
    #[test]
    #[should_panic(expected = "no endpoint for")]
    fn routing_to_a_node_without_an_endpoint_panics() {
        let me = Addr::client(DcId(0), 0);
        let stray = Addr::server(DcId(0), PartitionId(9));
        relay(me, vec![(stray, Ping(0))], None, HashMap::new()).shutdown();
    }

    /// A peer that never comes up is given up on after
    /// `MAX_DIAL_ATTEMPTS` dials spaced by the full backoff schedule: the
    /// reactor stops, naming the link and the attempts.
    #[test]
    fn unreachable_peer_is_given_up_after_the_last_dial_attempt() {
        let me = Addr::client(DcId(0), 0);
        let dead = Addr::server(DcId(0), PartitionId(0));
        let started = Instant::now();
        let peers = HashMap::from([(dead, dead_port())]);
        let msg = panic_message(relay(me, vec![(dead, Ping(0))], None, peers));
        assert!(
            msg.contains(&format!("connect {me} -> {dead}"))
                && msg.contains(&format!("after {MAX_DIAL_ATTEMPTS} attempts")),
            "{msg}"
        );
        let backoff: Duration = (1..MAX_DIAL_ATTEMPTS).map(backoff_delay).sum();
        assert!(
            started.elapsed() >= backoff,
            "gave up before the {backoff:?} backoff schedule ran out"
        );
    }

    /// Starts one reactor hosting an idle server node, dials it from the
    /// test side, sends a valid hello followed by `tail`, closes the
    /// socket, and returns the message the reactor stopped with.
    fn reactor_panic_after_hello(tail: &[u8]) -> String {
        let node = Addr::server(DcId(0), PartitionId(0));
        let cluster = relay(node, Vec::new(), None, HashMap::new());
        let mut s = TcpStream::connect(cluster.core.endpoints[&node]).unwrap();
        s.write_all(&hello_frame(Addr::client(DcId(0), 0), node))
            .unwrap();
        s.write_all(tail).unwrap();
        drop(s);
        panic_message(cluster)
    }

    /// A peer that closes mid-frame mid-run is a truncated stream: the
    /// partial frame is never delivered and the reactor stops loudly.
    #[test]
    fn eof_mid_frame_on_a_live_link_stops_the_reactor() {
        let frame = encode_frame(b"partial payload");
        let msg = reactor_panic_after_hello(&frame[..frame.len() - 3]);
        assert!(msg.contains("truncated frame"), "{msg}");
    }

    /// An inbound length prefix above `MAX_FRAME` is rejected as it
    /// arrives, without waiting for (or allocating) the payload.
    #[test]
    fn oversize_inbound_prefix_stops_the_reactor() {
        let msg = reactor_panic_after_hello(&((MAX_FRAME + 1) as u32).to_le_bytes());
        assert!(msg.contains("frame error"), "{msg}");
        assert!(msg.contains(&format!("{}", MAX_FRAME + 1)), "{msg}");
    }

    /// A frame sent over a link whose peer hung up goes out over a fresh
    /// dial: the dead link left the route map.
    #[test]
    fn a_frame_over_a_dead_link_goes_out_over_a_fresh_dial() {
        let me = Addr::client(DcId(0), 0);
        let peer = Addr::server(DcId(0), PartitionId(0));
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = HashMap::from([(peer, l.local_addr().unwrap())]);
        let cluster = relay(me, Vec::new(), Some(peer), peers);
        let handle = cluster.handle();
        for (round, ping) in [Ping(1), Ping(2)].into_iter().enumerate() {
            handle.send(me, me, ping.clone());
            let mut s = accept_within_10s(&l);
            let payloads = read_payloads(&mut s, 2);
            let hello = decode_hello(&payloads[0]).expect("each link opens with a hello");
            assert_eq!((hello.from, hello.to), (me, peer), "link {round}");
            assert_eq!(
                from_bytes::<(Addr, Ping)>(&payloads[1]).unwrap(),
                (me, ping)
            );
            // Hang up, and give the reactor time to see the EOF.
            drop(s);
            std::thread::sleep(Duration::from_millis(100));
        }
        assert_eq!(cluster.io_stats().sockets, 2, "one dial per link");
        cluster.shutdown();
    }

    /// A quarter-MiB message, recorded by number where it is handled.
    #[derive(Clone, Debug, PartialEq)]
    struct Blob(u32, Vec<u8>);

    const BLOB: usize = 256 << 10;

    impl SimMessage for Blob {
        fn wire_size(&self) -> usize {
            self.1.len()
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    impl Wire for Blob {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
            self.1.encode(out);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Blob(u32::decode(r)?, Vec::decode(r)?))
        }
    }

    /// Forwards every blob it is handed to `to`, recording each.
    struct Spray {
        to: Addr,
    }

    impl Actor for Spray {
        type Msg = Blob;
        fn on_start(&mut self, _ctx: &mut dyn ActorCtx<Blob>) {}
        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Blob>, _from: Addr, msg: Blob) {
            ctx.record(HistoryEvent::PutDone {
                client: contrarian_types::ClientId::new(DcId(0), 0),
                seq: msg.0,
                t_start: 0,
                t_end: 0,
                key: contrarian_types::Key(1),
                vid: contrarian_types::VersionId::new(1, DcId(0)),
            });
            ctx.send(self.to, msg);
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Blob>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Blob {
            Blob(0, Vec::new())
        }
    }

    /// A node whose ring to a peer that does not read reaches `RING_HIGH`
    /// is paused: the messages handed to it after that wait, unhandled,
    /// until the peer drains the ring; then it handles the rest, in order.
    #[test]
    fn a_node_paused_on_a_full_ring_runs_no_input_until_it_drains() {
        const SENT: u32 = 64; // 16 MiB: past the ring and the socket buffers
        let me = Addr::client(DcId(0), 0);
        let peer = Addr::server(DcId(0), PartitionId(0));
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = HashMap::from([(peer, l.local_addr().unwrap())]);
        let cluster = NetCluster::launch(vec![(me, Spray { to: peer })], true, 1, 1, peers);
        let handle = cluster.handle();
        for i in 0..SENT {
            handle.send(me, me, Blob(i, vec![i as u8; BLOB]));
        }
        // Count the handled messages until none is added for 200 ms.
        let mut handled = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            std::thread::sleep(Duration::from_millis(200));
            let more = cluster.drain_history().len();
            if more == 0 && handled > 0 {
                break;
            }
            handled += more;
            assert!(Instant::now() < deadline, "the node never paused");
        }
        assert!(
            handled < SENT as usize && handled * BLOB >= RING_HIGH,
            "paused after {handled} of {SENT} quarter-MiB messages"
        );

        // The peer reads everything; the node resumes and sends the rest.
        let mut s = accept_within_10s(&l);
        let payloads = read_payloads(&mut s, SENT as usize + 1);
        assert_eq!(decode_hello(&payloads[0]).unwrap().from, me);
        for (i, p) in payloads[1..].iter().enumerate() {
            let (_, Blob(n, bytes)) = from_bytes::<(Addr, Blob)>(p).unwrap();
            assert_eq!((n, bytes.len(), bytes[0]), (i as u32, BLOB, i as u8));
        }
        while handled < SENT as usize {
            assert!(Instant::now() < deadline + Duration::from_secs(10));
            handled += cluster.drain_history().len();
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster.shutdown();
    }
}
