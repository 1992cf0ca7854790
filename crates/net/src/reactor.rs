//! The event-driven reactor: a fixed pool of event-loop threads driving
//! every socket in the cluster.
//!
//! One reactor thread per core (`available_parallelism`) multiplexes
//! *all* sockets through the readiness
//! [`Poller`], so the I/O thread count is fixed however many nodes and
//! links the cluster has. Node state machines keep their own threads; a
//! reactor only moves encoded frames.
//!
//! ## Connections
//!
//! One TCP connection per **peer pair**, not per directed link: frames
//! already carry `(from, msg)`, so demultiplexing inbound traffic is free,
//! and the acceptor learns who is on the other end from the
//! [`Hello`](crate::conn::Hello) frame that opens every dialed connection.
//! When node B first replies to node A, the route map finds the accepted
//! connection A dialed and reuses it (first insertion wins, which pins
//! each directed link to exactly one socket and preserves per-link FIFO).
//! A simultaneous-dial race can briefly produce two sockets for a pair;
//! each side then keeps writing on its own dial, which is correct, merely
//! not minimal.
//!
//! ## Data flow
//!
//! A node thread encodes its message, pushes the frame onto the
//! connection's bounded [`OutRing`] (blocking there is the backpressure
//! story — no unbounded queues anywhere), and wakes the owning reactor
//! through its inject queue + wake pipe. The reactor drains rings with
//! vectored writes, tracks writability edge-triggered, and reassembles
//! inbound frames incrementally with
//! [`FrameAssembler`](contrarian_runtime::FrameAssembler), delivering them
//! into node inboxes with `try_send` — a full inbox parks the frame and
//! pauses reading that socket (TCP backpressure), never the reactor.
//!
//! ## Reconnects
//!
//! A refused dial is retried on the reactor's timer heap on an exponential
//! schedule (2 ms doubling to 250 ms, ten attempts: ≈ ¾ s in all, enough
//! to ride out listener backlogs hammered during a large cluster's
//! bring-up). The retry is scheduled, never slept, so one unreachable peer
//! never stalls the other connections sharing the reactor.

use crate::cluster::ClusterCore;
use crate::conn::{decode_hello, hello_frame, OutRing};
use crate::node_loop::Input;
use crate::sys::{self, Event, Poller};
use contrarian_runtime::frame::{encode_frame, FrameAssembler};
use contrarian_types::codec::{from_bytes, Wire};
use contrarian_types::Addr;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the wake pipe on every reactor; also the "no slot yet"
/// sentinel in [`ConnShared::slot`] (a real slot token never reaches it).
const WAKE_TOKEN: u64 = u64::MAX;

/// Dial attempts before a peer is declared unreachable (≈ ¾ s of
/// [`backoff_delay`] in all).
const MAX_DIAL_ATTEMPTS: u32 = 10;

/// How long a full node inbox parks a frame before the retry.
const PARK_RETRY: Duration = Duration::from_millis(1);

/// How long shutdown waits for outbound rings to drain.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Backoff delay after the `attempts`-th consecutive dial failure:
/// 2 ms doubling, capped at 250 ms, scheduled on the reactor's timer heap.
fn backoff_delay(attempts: u32) -> Duration {
    Duration::from_millis((2u64 << attempts.saturating_sub(1).min(16)).min(250))
}

/// The reactor pool size: the machine's available parallelism.
pub(crate) fn pool_size() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Work handed to a reactor thread from outside (node threads, shutdown).
enum Inject {
    /// Dial a new outbound connection and own it from now on.
    NewConn {
        conn: Arc<ConnShared>,
        from: Addr,
        to: Addr,
        peer: SocketAddr,
    },
    /// The connection's ring has data.
    Flush(Arc<ConnShared>),
    /// Drain what remains and exit.
    Shutdown,
}

/// The cross-thread face of one reactor: its inject queue and wake pipe.
struct ReactorShared {
    injects: Mutex<Vec<Inject>>,
    wake_tx: UnixStream,
    /// Coalesces wake bytes: set by the first producer after the reactor
    /// last drained the pipe.
    wake_armed: AtomicBool,
}

impl ReactorShared {
    fn inject(&self, inj: Inject) {
        self.injects
            .lock()
            .expect("inject queue poisoned")
            .push(inj);
        self.wake();
    }

    fn wake(&self) {
        if !self.wake_armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.wake_tx).write(&[1]);
        }
    }
}

/// The cross-thread half of one connection: producers push frames into the
/// ring; the owning reactor drains it.
pub(crate) struct ConnShared {
    pub(crate) ring: OutRing,
    reactor: Arc<ReactorShared>,
    /// Slot token on the owning reactor, [`WAKE_TOKEN`] until assigned.
    slot: AtomicU64,
}

impl ConnShared {
    /// Tells the owning reactor the ring has data. The dirty flag
    /// coalesces a burst of sends into one inject.
    pub(crate) fn flush(self: &Arc<Self>) {
        if !self.ring.dirty.swap(true, Ordering::SeqCst) {
            self.reactor.inject(Inject::Flush(self.clone()));
        }
    }
}

/// Engine-wide state: where each node listens, the route map, and the
/// reactors.
pub(crate) struct NetInner<M> {
    pub(crate) core: Arc<ClusterCore<M>>,
    pub(crate) endpoints: HashMap<Addr, SocketAddr>,
    /// `(local node, remote node) → connection`. First insertion wins, so
    /// every directed link sticks to one socket (FIFO); closed entries are
    /// replaced on the next use.
    routes: Mutex<HashMap<(Addr, Addr), Arc<ConnShared>>>,
    reactors: Vec<Arc<ReactorShared>>,
    next_reactor: AtomicUsize,
    io_stop: AtomicBool,
}

impl<M> NetInner<M> {
    /// The connection node `me` sends to `to` over, dialing one (round-
    /// robin across reactors) if none is live.
    pub(crate) fn route(&self, me: Addr, to: Addr) -> Arc<ConnShared> {
        let mut routes = self.routes.lock().expect("route map poisoned");
        if let Some(c) = routes.get(&(me, to)) {
            if !c.ring.is_closed() {
                return c.clone();
            }
        }
        let peer = *self
            .endpoints
            .get(&to)
            .unwrap_or_else(|| panic!("no endpoint for {to}"));
        let rid = self.next_reactor.fetch_add(1, Ordering::Relaxed) % self.reactors.len();
        let conn = Arc::new(ConnShared {
            ring: OutRing::default(),
            reactor: self.reactors[rid].clone(),
            slot: AtomicU64::new(WAKE_TOKEN),
        });
        conn.ring.push_front_unchecked(hello_frame(me, to));
        routes.insert((me, to), conn.clone());
        // Injected while the route lock is held so the reactor sees the
        // NewConn before any Flush another thread could send after finding
        // this route in the map.
        conn.reactor.inject(Inject::NewConn {
            conn: conn.clone(),
            from: me,
            to,
            peer,
        });
        conn
    }

    /// Routes replies from `owner` back to `peer` over an accepted
    /// connection, unless a live route already exists (first wins).
    /// Returns whether this connection now owns the route.
    fn adopt_route(&self, owner: Addr, peer: Addr, conn: &Arc<ConnShared>) -> bool {
        let mut routes = self.routes.lock().expect("route map poisoned");
        match routes.entry((owner, peer)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.get().ring.is_closed() {
                    e.insert(conn.clone());
                    true
                } else {
                    false
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(conn.clone());
                true
            }
        }
    }

    /// Removes a route, but only if it still points at this connection.
    fn drop_route(&self, key: (Addr, Addr), conn: &Arc<ConnShared>) {
        let mut routes = self.routes.lock().expect("route map poisoned");
        if routes.get(&key).is_some_and(|c| Arc::ptr_eq(c, conn)) {
            routes.remove(&key);
        }
    }

    fn quiet(&self) -> bool {
        self.io_stop.load(Ordering::SeqCst) || self.core.run.stopped.load(Ordering::SeqCst)
    }
}

/// How every node sends: encode on the sending node's thread,
/// push onto the pair's ring, wake the owning reactor. Routes are cached
/// per node thread; a closed connection invalidates the cache entry and
/// the second attempt dials fresh.
pub(crate) struct ReactorOutbound<M> {
    me: Addr,
    net: Arc<NetInner<M>>,
    cache: HashMap<Addr, Arc<ConnShared>>,
    buf: Vec<u8>,
}

impl<M: Wire + Send + 'static> ReactorOutbound<M> {
    pub(crate) fn new(me: Addr, net: Arc<NetInner<M>>) -> Self {
        ReactorOutbound {
            me,
            net,
            cache: HashMap::new(),
            buf: Vec::new(),
        }
    }

    /// Sends `msg` from this node to `to`.
    pub(crate) fn deliver(&mut self, to: Addr, msg: M) {
        self.buf.clear();
        self.me.encode(&mut self.buf);
        msg.encode(&mut self.buf);
        let mut frame = encode_frame(&self.buf);
        for _ in 0..2 {
            let conn = match self.cache.get(&to) {
                Some(c) if !c.ring.is_closed() => c.clone(),
                _ => {
                    let c = self.net.route(self.me, to);
                    self.cache.insert(to, c.clone());
                    c
                }
            };
            match conn.ring.push(frame) {
                Ok(()) => {
                    conn.flush();
                    return;
                }
                Err(f) => {
                    // The link died under us: invalidate and retry once
                    // over a fresh dial.
                    frame = f;
                    self.cache.remove(&to);
                    self.net.drop_route((self.me, to), &conn);
                }
            }
        }
        if !self.net.quiet() {
            eprintln!("net: dropping frame {} -> {to}: link closed", self.me);
        }
    }
}

struct Dial {
    from: Addr,
    to: Addr,
    peer: SocketAddr,
    attempts: u32,
}

enum ConnState {
    /// Nonblocking connect in flight; waiting for writability.
    Connecting,
    /// Dial refused; waiting for the backoff timer.
    Backoff,
    Established,
}

/// Reactor-local per-connection state.
struct Conn<M> {
    shared: Arc<ConnShared>,
    stream: Option<TcpStream>,
    state: ConnState,
    assembler: FrameAssembler,
    /// Armed by a writability edge, disarmed by a short write.
    can_write: bool,
    /// Armed by a readability edge, disarmed by `WouldBlock`.
    readable: bool,
    /// A decoded frame the owner's full inbox bounced; retried on a timer
    /// while reading this socket stays paused.
    parked: Option<Input<M>>,
    /// The local node inbound frames belong to (`None` on an accepted
    /// connection until its hello arrives).
    owner: Option<Addr>,
    /// Route-map entry this connection owns, removed when it dies.
    route_key: Option<(Addr, Addr)>,
    /// Dial/redial info (outbound connections only).
    dial: Option<Dial>,
    /// Wire-stat bytes to not count once the hello frame drains.
    hello_debit: u64,
}

enum EntryKind<M> {
    Listener { addr: Addr, listener: TcpListener },
    Conn(Conn<M>),
}

struct Slot<M> {
    gen: u32,
    entry: Option<EntryKind<M>>,
}

fn token_of(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// One reactor thread's world: poller, slab, timers, inject queue.
struct Reactor<M: Wire + Send + 'static> {
    net: Arc<NetInner<M>>,
    shared: Arc<ReactorShared>,
    wake_rx: UnixStream,
    poller: Poller,
    slots: Vec<Slot<M>>,
    free: Vec<usize>,
    /// `(deadline, token)` — dial backoffs and park retries.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    read_buf: Box<[u8]>,
    shutting_down: bool,
    drain_deadline: Option<Instant>,
}

impl<M: Wire + Send + 'static> Reactor<M> {
    fn new(
        net: Arc<NetInner<M>>,
        shared: Arc<ReactorShared>,
        wake_rx: UnixStream,
        listeners: Vec<(Addr, TcpListener)>,
    ) -> Reactor<M> {
        let mut r = Reactor {
            net,
            shared,
            wake_rx,
            poller: Poller::new().expect("create poller"),
            slots: Vec::new(),
            free: Vec::new(),
            timers: BinaryHeap::new(),
            read_buf: vec![0u8; 64 * 1024].into_boxed_slice(),
            shutting_down: false,
            drain_deadline: None,
        };
        r.poller
            .register(r.wake_rx.as_raw_fd(), WAKE_TOKEN)
            .expect("register wake pipe");
        for (addr, listener) in listeners {
            let fd = listener.as_raw_fd();
            let token = r.alloc(EntryKind::Listener { addr, listener });
            r.poller.register(fd, token).expect("register listener");
        }
        r
    }

    fn alloc(&mut self, entry: EntryKind<M>) -> u64 {
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
    /// (a timer or inject for a connection that already died).
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        (idx < self.slots.len() && self.slots[idx].gen == gen && self.slots[idx].entry.is_some())
            .then_some(idx)
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Fire due timers.
            let now = Instant::now();
            while let Some(&Reverse((when, token))) = self.timers.peek() {
                if when > now {
                    break;
                }
                self.timers.pop();
                self.handle_timer(token);
            }
            if self.shutting_down {
                let expired = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if expired || !self.pending_output() {
                    break;
                }
            }
            let mut timeout = if self.shutting_down {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(100)
            };
            if let Some(&Reverse((when, _))) = self.timers.peek() {
                timeout = timeout.min(when.saturating_duration_since(Instant::now()));
            }
            events.clear();
            self.poller
                .wait(&mut events, Some(timeout))
                .expect("poller wait");
            for ev in events.drain(..) {
                if ev.token == WAKE_TOKEN {
                    self.drain_wake();
                    self.handle_injects();
                } else {
                    self.handle_event(ev);
                }
            }
        }
        // Teardown: release any producer still blocked on a ring.
        for slot in &self.slots {
            if let Some(EntryKind::Conn(c)) = &slot.entry {
                c.shared.ring.close();
            }
        }
    }

    /// Anything still owed to the wire? (Connections mid-dial are not
    /// counted: their queued frames are undeliverable pre-stop traffic.)
    fn pending_output(&self) -> bool {
        self.slots.iter().any(|s| {
            matches!(
                &s.entry,
                Some(EntryKind::Conn(c))
                    if matches!(c.state, ConnState::Established)
                        && c.stream.is_some()
                        && !c.shared.ring.is_closed()
                        && !c.shared.ring.is_empty()
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
        // inject queue, so a producer that enqueues after our take either
        // sees the armed flag cleared (and writes a fresh wake byte) or
        // its inject is already in the batch we take.
        self.shared.wake_armed.store(false, Ordering::SeqCst);
    }

    fn handle_injects(&mut self) {
        loop {
            let batch =
                std::mem::take(&mut *self.shared.injects.lock().expect("inject queue poisoned"));
            if batch.is_empty() {
                return;
            }
            for inj in batch {
                match inj {
                    Inject::NewConn {
                        conn,
                        from,
                        to,
                        peer,
                    } => {
                        let hello_debit = hello_frame(from, to).len() as u64;
                        let token = self.alloc(EntryKind::Conn(Conn {
                            shared: conn.clone(),
                            stream: None,
                            state: ConnState::Backoff,
                            assembler: FrameAssembler::new(),
                            can_write: false,
                            readable: false,
                            parked: None,
                            owner: Some(from),
                            route_key: Some((from, to)),
                            dial: Some(Dial {
                                from,
                                to,
                                peer,
                                attempts: 0,
                            }),
                            hello_debit,
                        }));
                        conn.slot.store(token, Ordering::SeqCst);
                        self.service(token, |r, token, c| r.dial(token, c));
                    }
                    Inject::Flush(cs) => {
                        // Cleared before draining: frames pushed after the
                        // drain re-arm it and inject a fresh flush.
                        cs.ring.dirty.store(false, Ordering::SeqCst);
                        let token = cs.slot.load(Ordering::SeqCst);
                        if token != WAKE_TOKEN {
                            self.service(token, |r, _, c| r.drain_ring(c).map(|_| true));
                        }
                    }
                    Inject::Shutdown => {
                        self.shutting_down = true;
                        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                    }
                }
            }
        }
    }

    /// Runs `f` on the connection behind `token` (taking it out of the
    /// slab for the duration), then keeps or buries it by the outcome.
    fn service(
        &mut self,
        token: u64,
        f: impl FnOnce(&mut Self, u64, &mut Conn<M>) -> io::Result<bool>,
    ) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        let Some(EntryKind::Conn(mut conn)) = self.slots[idx].entry.take() else {
            return;
        };
        match f(self, token, &mut conn) {
            Ok(true) => self.slots[idx].entry = Some(EntryKind::Conn(conn)),
            Ok(false) => self.kill(idx, conn, None),
            Err(e) => self.kill(idx, conn, Some(e)),
        }
    }

    fn kill(&mut self, idx: usize, conn: Conn<M>, err: Option<io::Error>) {
        if let Some(e) = &err {
            if !self.net.quiet() {
                let label = match (&conn.dial, conn.owner) {
                    (Some(d), _) => format!("{} -> {}", d.from, d.to),
                    (None, Some(o)) => format!("into {o}"),
                    (None, None) => "accepted (pre-hello)".to_string(),
                };
                eprintln!("net: link {label} died mid-run: {e}");
            }
        }
        conn.shared.ring.close();
        if let Some(key) = conn.route_key {
            self.net.drop_route(key, &conn.shared);
        }
        if let Some(s) = &conn.stream {
            self.poller.deregister(s.as_raw_fd());
        }
        self.slots[idx].gen = self.slots[idx].gen.wrapping_add(1);
        self.slots[idx].entry = None;
        self.free.push(idx);
    }

    fn handle_timer(&mut self, token: u64) {
        self.service(token, |r, token, c| match c.state {
            ConnState::Backoff => r.dial(token, c),
            _ => r.service_read(token, c),
        });
    }

    fn handle_event(&mut self, ev: Event) {
        let Some(idx) = self.resolve(ev.token) else {
            return;
        };
        // Listeners are handled in place (accepting allocates new slots,
        // so the listener entry is taken out for the duration).
        if matches!(self.slots[idx].entry, Some(EntryKind::Listener { .. })) {
            let Some(EntryKind::Listener { addr, listener }) = self.slots[idx].entry.take() else {
                unreachable!()
            };
            if ev.readable || ev.error {
                self.accept_all(addr, &listener);
            }
            self.slots[idx].entry = Some(EntryKind::Listener { addr, listener });
            return;
        }
        self.service(ev.token, |r, token, c| r.conn_event(token, ev, c));
    }

    fn conn_event(&mut self, token: u64, ev: Event, conn: &mut Conn<M>) -> io::Result<bool> {
        if matches!(conn.state, ConnState::Connecting) && (ev.writable || ev.error) {
            let fd = conn
                .stream
                .as_ref()
                .expect("connecting has a stream")
                .as_raw_fd();
            match sys::take_socket_error(fd) {
                Ok(()) => return self.establish(token, conn),
                Err(e) => {
                    self.poller.deregister(fd);
                    conn.stream = None;
                    return self.dial_failed(token, conn, e);
                }
            }
        }
        if matches!(conn.state, ConnState::Established) {
            if ev.writable {
                conn.can_write = true;
                self.drain_ring(conn)?;
            }
            if ev.readable || ev.error {
                conn.readable = true;
                return self.service_read(token, conn);
            }
        }
        Ok(true)
    }

    fn accept_all(&mut self, addr: Addr, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true).expect("accepted nonblocking");
                    stream
                        .set_nodelay(true)
                        .expect("TCP_NODELAY must be settable");
                    self.net.core.wire.on_socket();
                    let shared = Arc::new(ConnShared {
                        ring: OutRing::default(),
                        reactor: self.shared.clone(),
                        slot: AtomicU64::new(WAKE_TOKEN),
                    });
                    let fd = stream.as_raw_fd();
                    let token = self.alloc(EntryKind::Conn(Conn {
                        shared: shared.clone(),
                        stream: Some(stream),
                        state: ConnState::Established,
                        assembler: FrameAssembler::new(),
                        can_write: true,
                        readable: true,
                        parked: None,
                        owner: None, // learned from the hello
                        route_key: None,
                        dial: None,
                        hello_debit: 0,
                    }));
                    shared.slot.store(token, Ordering::SeqCst);
                    if let Err(e) = self.poller.register(fd, token) {
                        panic!("register accepted socket on {addr}: {e}");
                    }
                    // The socket may already hold the hello (registration
                    // delivers the initial edge, but serve it now anyway).
                    self.service(token, |r, token, c| r.service_read(token, c));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.net.io_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    panic!("accept on {addr}: {e}");
                }
            }
        }
    }

    fn dial(&mut self, token: u64, conn: &mut Conn<M>) -> io::Result<bool> {
        let peer = conn.dial.as_ref().expect("dial info").peer;
        match sys::connect_nonblocking(peer) {
            Ok((stream, done)) => {
                let fd = stream.as_raw_fd();
                self.poller.register(fd, token)?;
                conn.stream = Some(stream);
                if done {
                    self.establish(token, conn)
                } else {
                    conn.state = ConnState::Connecting;
                    Ok(true)
                }
            }
            Err(e) => self.dial_failed(token, conn, e),
        }
    }

    fn dial_failed(&mut self, token: u64, conn: &mut Conn<M>, err: io::Error) -> io::Result<bool> {
        if self.net.io_stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        let d = conn.dial.as_mut().expect("dial info");
        d.attempts += 1;
        if d.attempts >= MAX_DIAL_ATTEMPTS {
            conn.shared.ring.close();
            if let Some(key) = conn.route_key {
                self.net.drop_route(key, &conn.shared);
            }
            panic!(
                "connect {} -> {} ({}): {err} (after {} attempts)",
                d.from, d.to, d.peer, d.attempts
            );
        }
        conn.state = ConnState::Backoff;
        self.timers
            .push(Reverse((Instant::now() + backoff_delay(d.attempts), token)));
        Ok(true)
    }

    fn establish(&mut self, token: u64, conn: &mut Conn<M>) -> io::Result<bool> {
        conn.state = ConnState::Established;
        conn.can_write = true;
        conn.readable = true;
        self.net.core.wire.on_socket();
        self.drain_ring(conn)?;
        self.service_read(token, conn)
    }

    /// Writes as much of the ring as the socket accepts, vectored, and
    /// books the wire stats (minus the hello handshake).
    fn drain_ring(&mut self, conn: &mut Conn<M>) -> io::Result<()> {
        if !matches!(conn.state, ConnState::Established) || !conn.can_write {
            return Ok(());
        }
        let Some(stream) = conn.stream.as_mut() else {
            return Ok(());
        };
        let mut out = conn.shared.ring.drain_to(stream)?;
        if out.frames > 0 && conn.hello_debit > 0 {
            // The hello is always the first frame out; once a full frame
            // has drained it is gone.
            out.frames -= 1;
            out.bytes = out.bytes.saturating_sub(conn.hello_debit);
            conn.hello_debit = 0;
        }
        self.net.core.wire.on_frames(out.frames, out.bytes);
        if out.would_block {
            conn.can_write = false;
        }
        Ok(())
    }

    /// Delivers the parked frame if any, drains the assembler, and reads
    /// the socket until `WouldBlock` — pausing (not failing) whenever the
    /// owner's inbox is full. `Ok(false)` means clean EOF.
    fn service_read(&mut self, token: u64, conn: &mut Conn<M>) -> io::Result<bool> {
        loop {
            if let Some(input) = conn.parked.take() {
                let owner = conn.owner.expect("parked frame has an owner");
                match self.net.core.inbox[&owner].try_send(input) {
                    Ok(()) => {}
                    Err(TrySendError::Full(input)) => {
                        conn.parked = Some(input);
                        self.timers
                            .push(Reverse((Instant::now() + PARK_RETRY, token)));
                        return Ok(true);
                    }
                    Err(TrySendError::Disconnected(_)) => {} // node stopped
                }
            }
            // Drain complete frames out of the assembler.
            loop {
                let payload = match conn.assembler.next_frame() {
                    Ok(Some(p)) => p,
                    Ok(None) => break,
                    Err(e) => panic!("frame error on link into {:?}: {e}", conn.owner),
                };
                self.on_frame(conn, payload);
                if conn.parked.is_some() {
                    self.timers
                        .push(Reverse((Instant::now() + PARK_RETRY, token)));
                    return Ok(true);
                }
            }
            if !conn.readable {
                return Ok(true);
            }
            let stream = conn.stream.as_mut().expect("established has a stream");
            match stream.read(&mut self.read_buf) {
                Ok(0) => {
                    if conn.assembler.is_mid_frame() && !self.net.quiet() {
                        panic!(
                            "truncated frame on link into {:?}: EOF mid-frame",
                            conn.owner
                        );
                    }
                    return Ok(false); // clean EOF: peer closed the link
                }
                Ok(n) => conn.assembler.extend(&self.read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.readable = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One reassembled inbound frame: the hello (on an accepted
    /// connection's first frame) or a `(from, msg)` for the owner.
    fn on_frame(&mut self, conn: &mut Conn<M>, payload: Vec<u8>) {
        let Some(owner) = conn.owner else {
            let h = decode_hello(&payload)
                .unwrap_or_else(|e| panic!("bad hello on accepted connection: {e}"));
            if !self.net.core.inbox.contains_key(&h.to) {
                panic!("hello addressed to unknown node {}", h.to);
            }
            conn.owner = Some(h.to);
            if self.net.adopt_route(h.to, h.from, &conn.shared) {
                conn.route_key = Some((h.to, h.from));
            }
            return;
        };
        let (from, msg) = from_bytes::<(Addr, M)>(&payload)
            .unwrap_or_else(|e| panic!("corrupt frame for {owner}: {e}"));
        match self.net.core.inbox[&owner].try_send(Input::Msg { from, msg }) {
            Ok(()) => {}
            Err(TrySendError::Full(input)) => conn.parked = Some(input),
            Err(TrySendError::Disconnected(_)) => {} // node stopped
        }
    }
}

/// Spawns the reactor pool, one thread per listener group. Tests drive a
/// bare pool this way, without node threads.
pub(crate) fn spawn_reactors<M: Wire + Send + 'static>(
    core: Arc<ClusterCore<M>>,
    endpoints: HashMap<Addr, SocketAddr>,
    listeners_per: Vec<Vec<(Addr, TcpListener)>>,
) -> (Arc<NetInner<M>>, Vec<JoinHandle<()>>) {
    let pool = listeners_per.len();
    let mut reactors = Vec::with_capacity(pool);
    let mut wake_rxs = Vec::with_capacity(pool);
    for _ in 0..pool {
        let (tx, rx) = UnixStream::pair().expect("wake pipe");
        tx.set_nonblocking(true).expect("wake tx nonblocking");
        rx.set_nonblocking(true).expect("wake rx nonblocking");
        reactors.push(Arc::new(ReactorShared {
            injects: Mutex::new(Vec::new()),
            wake_tx: tx,
            wake_armed: AtomicBool::new(false),
        }));
        wake_rxs.push(rx);
    }
    let net = Arc::new(NetInner {
        core,
        endpoints,
        routes: Mutex::new(HashMap::new()),
        reactors,
        next_reactor: AtomicUsize::new(0),
        io_stop: AtomicBool::new(false),
    });
    let mut threads = Vec::with_capacity(pool);
    for (rid, (wake_rx, listeners)) in wake_rxs.into_iter().zip(listeners_per).enumerate() {
        let net = net.clone();
        let shared = net.reactors[rid].clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("cnet-reactor-{rid}"))
                .spawn(move || Reactor::new(net, shared, wake_rx, listeners).run())
                .expect("spawn reactor thread"),
        );
    }
    (net, threads)
}

/// Tells every reactor to drain what remains and exit, then joins them. A
/// reactor that panicked mid-run (corrupt frame, unreachable peer)
/// re-raises its panic here, on the stopping thread.
pub(crate) fn stop_reactors<M>(net: &NetInner<M>, threads: Vec<JoinHandle<()>>) {
    net.io_stop.store(true, Ordering::SeqCst);
    for r in &net.reactors {
        r.inject(Inject::Shutdown);
    }
    for t in threads {
        if let Err(payload) = t.join() {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::Ping;
    use crate::cluster::NetCluster;
    use crate::node_loop::RunShared;
    use contrarian_runtime::frame::MAX_FRAME;
    use contrarian_types::{DcId, PartitionId};
    use std::sync::mpsc::{sync_channel, SyncSender};

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
        use crate::cluster::tests::Echo;
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

    /// A dead peer must back off on the reactor's timers — while it does,
    /// other connections on the same (single) reactor keep flowing, and
    /// once the listener appears the queued frames arrive.
    #[test]
    fn dial_backoff_is_scheduled_not_slept() {
        let me = Addr::client(DcId(0), 0);
        let dead = Addr::server(DcId(0), PartitionId(0));
        let live = Addr::server(DcId(0), PartitionId(1));
        // Reserve a port for `dead`, then free it.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_at = l.local_addr().unwrap();
        drop(l);
        let live_l = TcpListener::bind("127.0.0.1:0").unwrap();
        let live_at = live_l.local_addr().unwrap();

        let endpoints = HashMap::from([(dead, dead_at), (live, live_at)]);
        // One reactor, no listeners of its own: it only dials out.
        let (net, threads) = spawn_reactors(bare_core(HashMap::new()), endpoints, vec![Vec::new()]);

        let frame = |msg: &Ping| {
            let mut payload = Vec::new();
            me.encode(&mut payload);
            msg.encode(&mut payload);
            encode_frame(&payload)
        };
        // Queue to the dead peer first: with the old sleeping backoff this
        // would stall the transport ~¾ s; the reactor schedules it instead.
        let c_dead = net.route(me, dead);
        c_dead.ring.push(frame(&Ping(7))).unwrap();
        c_dead.flush();
        let c_live = net.route(me, live);
        c_live.ring.push(frame(&Ping(1))).unwrap();
        c_live.flush();

        // The live link delivers while the dead one is backing off.
        live_l
            .set_nonblocking(false)
            .expect("blocking accept for the test side");
        let (mut s, _) = live_l.accept().expect("live link accepted");
        let payloads = read_payloads(&mut s, 2);
        let hello = decode_hello(&payloads[0]).expect("first frame is the hello");
        assert_eq!((hello.from, hello.to), (me, live));
        let (from, msg) = from_bytes::<(Addr, Ping)>(&payloads[1]).unwrap();
        assert_eq!((from, msg), (me, Ping(1)));

        // Now bring the dead listener up; the scheduled redial reaches it.
        // (The port can be lost to another process between the probe and
        // here — in that case the redial coverage is forfeited.)
        if let Ok(dl) = TcpListener::bind(dead_at) {
            let (mut s, _) = dl.accept().expect("redial reached the late listener");
            let payloads = read_payloads(&mut s, 2);
            assert_eq!(
                from_bytes::<(Addr, Ping)>(&payloads[1]).unwrap(),
                (me, Ping(7)),
                "frames queued during backoff arrive after the reconnect"
            );
        }

        stop_reactors(&net, threads);
    }

    /// Shared state for a bare reactor pool: no node threads, only the
    /// given inboxes.
    fn bare_core(inbox: HashMap<Addr, SyncSender<Input<Ping>>>) -> Arc<ClusterCore<Ping>> {
        Arc::new(ClusterCore {
            run: RunShared::new(false),
            inbox,
            wire: Default::default(),
        })
    }

    /// Waits (up to 10 s) for every reactor to stop on its own, joins them,
    /// and returns the panic message they stopped with.
    fn panic_message(net: &NetInner<Ping>, threads: Vec<JoinHandle<()>>) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !threads.iter().all(|t| t.is_finished()) {
            assert!(Instant::now() < deadline, "the reactor kept running");
            std::thread::sleep(Duration::from_millis(5));
        }
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stop_reactors(net, threads)))
                .expect_err("the reactor stopped by panicking");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    /// Routing to a node no listener was recorded for is a wiring bug: it
    /// panics, naming the node, instead of dialing somewhere.
    #[test]
    #[should_panic(expected = "no endpoint for")]
    fn routing_to_a_node_without_an_endpoint_panics() {
        let me = Addr::client(DcId(0), 0);
        let stray = Addr::server(DcId(0), PartitionId(9));
        let (net, threads) =
            spawn_reactors(bare_core(HashMap::new()), HashMap::new(), vec![Vec::new()]);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(net.route(me, stray))));
        stop_reactors(&net, threads);
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    }

    /// A peer that never comes up is given up on after
    /// `MAX_DIAL_ATTEMPTS` dials spaced by the full backoff schedule: the
    /// link's ring closes so no producer stays blocked on it, its route is
    /// dropped, and the reactor stops naming the link and the attempts.
    #[test]
    fn unreachable_peer_is_given_up_after_the_last_dial_attempt() {
        let me = Addr::client(DcId(0), 0);
        let dead = Addr::server(DcId(0), PartitionId(0));
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_at = l.local_addr().unwrap();
        drop(l);
        let endpoints = HashMap::from([(dead, dead_at)]);
        let (net, threads) = spawn_reactors(bare_core(HashMap::new()), endpoints, vec![Vec::new()]);
        let started = Instant::now();
        let conn = net.route(me, dead);
        let msg = panic_message(&net, threads);
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
        assert!(conn.ring.is_closed(), "a blocked producer must be released");
        assert!(
            net.routes.lock().unwrap().is_empty(),
            "the dead route must be dropped"
        );
    }

    /// Starts one bare reactor listening for a server node, dials it from
    /// the test side, sends a valid hello followed by `tail`, closes the
    /// socket, and returns the message the reactor stopped with.
    fn reactor_panic_after_hello(tail: &[u8]) -> String {
        let node = Addr::server(DcId(0), PartitionId(0));
        let (tx, _rx) = sync_channel(16);
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.set_nonblocking(true).unwrap();
        let at = l.local_addr().unwrap();
        let (net, threads) = spawn_reactors(
            bare_core(HashMap::from([(node, tx)])),
            HashMap::new(),
            vec![vec![(node, l)]],
        );
        let mut s = TcpStream::connect(at).unwrap();
        s.write_all(&hello_frame(Addr::client(DcId(0), 0), node))
            .unwrap();
        s.write_all(tail).unwrap();
        drop(s);
        panic_message(&net, threads)
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
}
