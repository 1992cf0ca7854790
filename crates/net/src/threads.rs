//! The thread-per-connection engine: socket-per-link, writer-per-node.
//!
//! The original shape of this runtime, kept as the baseline the reactor
//! (the default) is measured against: each node
//! gets a writer thread owning all of its outgoing connections, and every
//! accepted connection gets a blocking reader thread. Simple and correct,
//! but the thread count is O(nodes + links): an all-to-all cluster of `n`
//! nodes stands up `n·(n−1)` sockets and as many reader threads, which is
//! what caps how far `net_sweep` can scale this engine.

use crate::cluster::{resume_panic, ClusterCore, NetIoStats, CHANNEL_CAP};
use contrarian_runtime::actor::Actor;
use contrarian_runtime::frame::{read_frame, write_frame, FrameError};
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::node_loop::{node_seed, run_node, Input, Outbound};
use contrarian_types::codec::{from_bytes, Wire};
use contrarian_types::Addr;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One encoded frame bound for a destination, queued on a writer channel.
type OutFrame = (Addr, Vec<u8>);

/// Retries `attempt` with exponential backoff: the first failure waits
/// `first_delay`, doubling (capped at `max_delay`) before each subsequent
/// try. Returns the first success or the last error after `attempts` tries.
fn with_backoff<T, E>(
    attempts: u32,
    first_delay: Duration,
    max_delay: Duration,
    mut attempt: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let mut delay = first_delay;
    let mut last;
    let mut tries = 0;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) => last = e,
        }
        tries += 1;
        if tries >= attempts.max(1) {
            return Err(last);
        }
        std::thread::sleep(delay);
        delay = (delay * 2).min(max_delay);
    }
}

/// Connects to a peer, absorbing transient refusals: during 128-node
/// bring-up every listener's backlog is hammered at once, so a first
/// `connect` can bounce even though the listener exists and will accept a
/// moment later. A single refusal must not take down the writer thread
/// (and with it the whole run); a peer still unreachable after the ~¾ s
/// this schedule spans (2+4+…+128 ms, then two 250 ms waits) is a real
/// failure.
fn connect_with_backoff(peer: SocketAddr) -> std::io::Result<TcpStream> {
    with_backoff(
        10,
        Duration::from_millis(2),
        Duration::from_millis(250),
        || TcpStream::connect(peer),
    )
}

/// Engine-private state shared by reader, writer and accept threads.
struct NetShared<M> {
    core: Arc<ClusterCore<M>>,
    /// Where every node listens (the loopback address book).
    listen: HashMap<Addr, SocketAddr>,
    /// Each node's outbound queue, drained by its writer thread. Cleared at
    /// shutdown so the writers see a disconnect and drain out.
    outbox: Mutex<HashMap<Addr, Sender<OutFrame>>>,
    /// Reader thread handles (one per accepted connection), joined at
    /// shutdown.
    reader_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Tells accept loops to exit (they are woken by a dummy connection).
    io_stop: AtomicBool,
}

/// The writer thread: one per node, owning every outgoing connection of
/// that node. Connections are established lazily on the first frame for a
/// destination — on *this* thread, so a node's event loop never blocks on
/// a TCP handshake. A single writer per source plus FIFO channels gives
/// exactly the per-link FIFO order the protocol layer assumes.
///
/// Frames are batched: everything already queued is written before the
/// flush, so bursts (a coordinator's fan-out, a replication wave) coalesce
/// into few syscalls without delaying a lone message.
fn write_loop<M>(
    node: Addr,
    rx: Receiver<OutFrame>,
    listen: HashMap<Addr, SocketAddr>,
    core: Arc<ClusterCore<M>>,
) {
    let mut conns: HashMap<Addr, BufWriter<TcpStream>> = HashMap::new();
    // Destinations written since the last flush.
    let mut dirty: Vec<Addr> = Vec::new();
    let write_one = |conns: &mut HashMap<Addr, BufWriter<TcpStream>>,
                     dirty: &mut Vec<Addr>,
                     to: Addr,
                     payload: Vec<u8>| {
        let w = conns.entry(to).or_insert_with(|| {
            let peer = listen[&to];
            let stream = connect_with_backoff(peer)
                .unwrap_or_else(|e| panic!("connect {node} -> {to} ({peer}): {e}"));
            stream
                .set_nodelay(true)
                .expect("TCP_NODELAY must be settable");
            core.wire.on_socket();
            BufWriter::new(stream)
        });
        match write_frame(w, &payload) {
            Ok(()) => {
                core.wire.on_frames(1, payload.len() as u64 + 4);
                if !dirty.contains(&to) {
                    dirty.push(to);
                }
            }
            Err(e) => {
                // A failed write may have left a partial frame in the
                // buffer: the stream is desynchronized and must not be
                // reused. Drop it (the next frame reconnects) and say so —
                // a silently dying link reads as "missing progress".
                eprintln!("net: dropping link {node} -> {to} after write error: {e}");
                conns.remove(&to);
                dirty.retain(|d| *d != to);
            }
        }
    };
    while let Ok((to, payload)) = rx.recv() {
        write_one(&mut conns, &mut dirty, to, payload);
        while let Ok((to, payload)) = rx.try_recv() {
            write_one(&mut conns, &mut dirty, to, payload);
        }
        for to in dirty.drain(..) {
            if let Some(w) = conns.get_mut(&to) {
                let _ = w.flush();
            }
        }
    }
    // Channel disconnected: orderly shutdown. Flush everything so the
    // peers' readers see complete frames followed by clean EOFs.
    for (_, mut w) in conns {
        let _ = w.flush();
    }
}

/// The reader thread: decodes `(from, msg)` frames off one accepted
/// connection and feeds the owning node's input channel.
fn read_loop<M: Wire + Send + 'static>(stream: TcpStream, owner: Addr, shared: Arc<NetShared<M>>) {
    let tx = shared.core.inbox[&owner].clone();
    let mut r = BufReader::new(stream);
    loop {
        match read_frame(&mut r) {
            Ok(Some(payload)) => {
                let (from, msg) = from_bytes::<(Addr, M)>(&payload)
                    .unwrap_or_else(|e| panic!("corrupt frame for {owner}: {e}"));
                if tx.send(Input::Msg { from, msg }).is_err() {
                    return; // node thread already stopped
                }
            }
            Ok(None) => return, // clean EOF: peer closed the link
            Err(FrameError::Io(e)) => {
                // Reset/abort during shutdown is normal; a dying inbound
                // link mid-run must not be silent (it would read only as
                // "missing progress" in the tests).
                if !shared.core.run.stopped.load(Ordering::SeqCst) {
                    eprintln!("net: link into {owner} died mid-run: {e}");
                }
                return;
            }
            Err(e) => panic!("frame error on link into {owner}: {e}"),
        }
    }
}

/// The [`Outbound`] of this engine: encode on the sending node's thread
/// (serialization cost lands where it belongs), then hand the frame to the
/// node's writer (which does the socket-level accounting).
struct TcpOutbound {
    tx: Sender<OutFrame>,
    /// Scratch buffer reused across sends (encode, copy out, clear).
    buf: Vec<u8>,
}

impl<M: Wire + Send + 'static> Outbound<M> for TcpOutbound {
    fn deliver(&mut self, from: Addr, to: Addr, msg: M) {
        self.buf.clear();
        from.encode(&mut self.buf);
        msg.encode(&mut self.buf);
        let _ = self.tx.send((to, self.buf.clone()));
    }
}

/// The thread-per-connection engine, running: every node an OS thread,
/// every directed link a loopback socket fed by the source node's writer
/// thread.
pub struct ThreadsCluster<A: Actor> {
    shared: Arc<NetShared<A::Msg>>,
    node_threads: Vec<JoinHandle<(A, Metrics)>>,
    writer_threads: Vec<JoinHandle<()>>,
    accept_threads: Vec<JoinHandle<()>>,
    addrs: Vec<Addr>,
}

impl<A> ThreadsCluster<A>
where
    A: Actor + Send + 'static,
    A::Msg: Wire,
{
    /// Binds one loopback listener per node, then spawns the accept,
    /// writer and node threads and calls `on_start` on each node.
    pub(crate) fn start(
        core: Arc<ClusterCore<A::Msg>>,
        nodes: Vec<(Addr, A)>,
        rxs: Vec<(Addr, Receiver<Input<A::Msg>>)>,
        seed: u64,
    ) -> Self {
        // Phase 1: the address book. Every listener must exist before any
        // node runs, because `on_start` handlers may send immediately.
        let mut listen = HashMap::new();
        let mut listeners = Vec::new();
        for (addr, _) in &nodes {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            listen.insert(*addr, l.local_addr().expect("listener has local addr"));
            listeners.push((*addr, l));
        }

        // Phase 2: one writer thread per node (owns all of that node's
        // outgoing connections).
        let mut outbox = HashMap::new();
        let mut writer_threads = Vec::new();
        for (addr, _) in &nodes {
            let (tx, rx) = bounded::<OutFrame>(CHANNEL_CAP);
            outbox.insert(*addr, tx);
            let listen = listen.clone();
            let core = core.clone();
            let addr = *addr;
            writer_threads.push(std::thread::spawn(move || {
                write_loop(addr, rx, listen, core)
            }));
        }

        let shared = Arc::new(NetShared {
            core: core.clone(),
            listen,
            outbox: Mutex::new(outbox),
            reader_threads: Mutex::new(Vec::new()),
            io_stop: AtomicBool::new(false),
        });

        // Phase 3: accept loops. Each accepted connection gets a reader
        // thread feeding the owning node's inbox.
        let mut accept_threads = Vec::new();
        for (addr, listener) in listeners {
            let shared = shared.clone();
            accept_threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.io_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    shared.core.wire.on_socket();
                    let reader_shared = shared.clone();
                    let handle = std::thread::spawn(move || read_loop(stream, addr, reader_shared));
                    shared.reader_threads.lock().push(handle);
                }
            }));
        }

        // Phase 4: node threads, on the event loop shared with the
        // in-process transport.
        let mut node_threads = Vec::new();
        let mut addrs = Vec::new();
        for ((addr, actor), (_, rx)) in nodes.into_iter().zip(rxs) {
            addrs.push(addr);
            let shared = shared.clone();
            let seed = node_seed(seed, addr);
            node_threads.push(std::thread::spawn(move || {
                let out = TcpOutbound {
                    tx: shared.outbox.lock()[&addr].clone(),
                    buf: Vec::new(),
                };
                run_node(addr, actor, rx, out, &shared.core.run, seed)
            }));
        }
        ThreadsCluster {
            shared,
            node_threads,
            writer_threads,
            accept_threads,
            addrs,
        }
    }

    pub(crate) fn io_stats(&self) -> NetIoStats {
        NetIoStats {
            transport_threads: self.writer_threads.len()
                + self.accept_threads.len()
                + self.shared.reader_threads.lock().len(),
            sockets: self.shared.core.wire.sockets(),
        }
    }

    /// Stops every node and tears down the sockets; returns the final
    /// actors and their merged metrics.
    pub(crate) fn shutdown(self) -> (Vec<(Addr, A)>, Metrics) {
        // 1. Stop the state machines.
        self.shared.core.run.stopped.store(true, Ordering::SeqCst);
        for tx in self.shared.core.inbox.values() {
            let _ = tx.send(Input::Stop);
        }
        let mut actors = Vec::new();
        let mut metrics = Metrics::new();
        for (t, addr) in self.node_threads.into_iter().zip(self.addrs.iter()) {
            let (actor, local) = t.join().expect("node thread panicked");
            metrics.absorb(&local);
            actors.push((*addr, actor));
        }
        // 2. Disconnect the writers (channel senders dropped): each drains
        // what is queued, flushes, and closes its streams; the peers'
        // readers then see clean EOFs. Writers finish while the listeners
        // are still alive, so a late lazy connect cannot fail.
        self.shared.outbox.lock().clear();
        for t in self.writer_threads {
            resume_panic(t.join());
        }
        // 3. Wake the accept loops with a throwaway connection each.
        self.shared.io_stop.store(true, Ordering::SeqCst);
        for peer in self.shared.listen.values() {
            let _ = TcpStream::connect(peer);
        }
        for t in self.accept_threads {
            resume_panic(t.join());
        }
        // 4. Join the readers (no new handles can appear anymore). A
        // reader that panicked mid-run (corrupt frame) must fail the
        // shutdown — swallowing it here would let the very corruption the
        // panic reports go unnoticed.
        let readers = std::mem::take(&mut *self.shared.reader_threads.lock());
        for t in readers {
            resume_panic(t.join());
        }
        (actors, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_returns_first_success() {
        let mut calls = 0;
        let r: Result<u32, &str> = with_backoff(5, Duration::ZERO, Duration::ZERO, || {
            calls += 1;
            if calls < 3 {
                Err("refused")
            } else {
                Ok(42)
            }
        });
        assert_eq!(r, Ok(42));
        assert_eq!(calls, 3, "two transient failures are absorbed");
    }

    #[test]
    fn backoff_gives_up_with_last_error() {
        let mut calls = 0;
        let r: Result<u32, u32> = with_backoff(4, Duration::ZERO, Duration::ZERO, || {
            calls += 1;
            Err(calls)
        });
        assert_eq!(r, Err(4), "the final error is the one reported");
        assert_eq!(calls, 4);
    }

    #[test]
    fn backoff_with_zero_attempts_still_tries_once() {
        let mut calls = 0;
        let r: Result<(), ()> = with_backoff(0, Duration::ZERO, Duration::ZERO, || {
            calls += 1;
            Err(())
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn connect_backoff_eventually_reaches_a_late_listener() {
        // Bind, learn the port, drop the listener, then rebind it from
        // another thread a few ms after the first connect attempt: the
        // backoff must bridge the gap a plain connect cannot.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = l.local_addr().unwrap();
        drop(l);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            TcpListener::bind(peer)
        });
        let conn = connect_with_backoff(peer);
        let rebound = t.join().unwrap();
        // The rebind itself can lose the port race on a busy machine; the
        // assertion only stands when the listener actually came back.
        if rebound.is_ok() {
            assert!(
                conn.is_ok(),
                "backoff should reach the late listener: {conn:?}"
            );
        }
    }
}
