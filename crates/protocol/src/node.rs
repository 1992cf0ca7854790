//! The backend interface: what a protocol crate implements, and the one
//! generic [`Node`] actor that runs it.

use crate::client::{Client, Session};
use contrarian_runtime::actor::{Actor, ActorCtx, TimerKind};
use contrarian_runtime::cost::SimMessage;
use contrarian_types::{Addr, HeapCensus, Key, Op, VersionId, Wire};

/// A protocol's wire message type.
///
/// Beyond simulation cost accounting ([`SimMessage`]) and a byte-level
/// encoding ([`Wire`], which the TCP runtime `contrarian-net` frames onto
/// real sockets), the runtime needs one constructor: how to wrap an
/// externally injected operation so it can be delivered to a client node
/// (the interactive facade and every runtime's `inject_op` use it).
pub trait ProtocolMsg: SimMessage + Wire + Send + 'static {
    /// Wraps an injected [`Op`] into a client-bound message.
    fn inject(op: Op) -> Self;
}

/// A protocol's storage-server state machine (one instance per partition
/// per DC).
///
/// # Implementing a new backend
///
/// A backend implements *only* its protocol logic; everything else is
/// shared. Concretely a new server must provide:
///
/// * **`on_message`** — the protocol itself: handle client requests
///   (`PUT`s, ROT rounds), replication traffic, and whatever server↔server
///   checks the design needs. Send replies through the [`ActorCtx`]; never
///   block — park deferred work in a [`crate::Parked`] queue instead.
/// * **`on_start`** — arm the periodic machinery, usually by building a
///   [`crate::Timers`] registry ([`crate::Timers::replication_server`]
///   gives the standard stabilization + heartbeat + version-GC trio).
/// * **`on_timer`** — dispatch each registered timer kind
///   ([`crate::timers`] lists the shared kinds) and re-arm via
///   [`crate::Timers::rearm`]. Vector-clock designs drive their
///   [`crate::Stabilizer`] here.
/// * **`store_heads`** — expose per-key head versions so the shared
///   conformance suite can check replica convergence without knowing the
///   backend's metadata type.
///
/// The server must be deterministic given the `ActorCtx` inputs: the same
/// messages and timers in the same order must produce the same outputs.
/// Both runtimes (discrete-event simulator, TCP) rely on nothing more than
/// this trait. The client side is a [`Session`]: the generic [`Client`]
/// loop owns everything but the session's metadata.
pub trait ProtocolServer {
    type Msg: ProtocolMsg;

    /// Called once before any message delivery.
    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>);

    /// A message from `from` arrived (after its service time, under
    /// simulation).
    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>, from: Addr, msg: Self::Msg);

    /// A timer armed through the context fired.
    fn on_timer(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>, kind: TimerKind);

    /// `(key, head version)` for every materialized key, in arbitrary
    /// order. Used by the shared conformance suite to compare replicas
    /// after quiescence.
    fn store_heads(&self) -> Vec<(Key, VersionId)>;

    /// Adds the server's heap to `census`, one row per owner (see
    /// [`Actor::heap_census`]).
    fn heap_census(&self, _census: &mut HeapCensus) {}
}

/// One protocol node — a server `S` or a client `C` behind one [`Actor`]
/// type. It is an actor when `C` is the generic [`Client`] over a
/// [`Session`] that speaks the server's message type.
pub enum Node<S, C> {
    Server(S),
    Client(C),
}

impl<S, C> Node<S, C> {
    pub fn as_server(&self) -> Option<&S> {
        match self {
            Node::Server(s) => Some(s),
            Node::Client(_) => None,
        }
    }
}

impl<S, X> Actor for Node<S, Client<X>>
where
    S: ProtocolServer,
    X: Session<Msg = S::Msg>,
{
    type Msg = S::Msg;

    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>) {
        match self {
            Node::Server(s) => s.on_start(ctx),
            Node::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>, from: Addr, msg: Self::Msg) {
        match self {
            Node::Server(s) => s.on_message(ctx, from, msg),
            Node::Client(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>, kind: TimerKind) {
        match self {
            Node::Server(s) => s.on_timer(ctx, kind),
            Node::Client(c) => c.on_timer(ctx, kind),
        }
    }

    fn inject(op: Op) -> Self::Msg {
        <S::Msg as ProtocolMsg>::inject(op)
    }

    fn heap_census(&self, census: &mut HeapCensus) {
        match self {
            Node::Server(s) => s.heap_census(census),
            Node::Client(c) => c.heap_census(census),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_server_node_exposes_its_server() {
        let server: Node<u8, ()> = Node::Server(3);
        let client: Node<u8, ()> = Node::Client(());
        assert_eq!(server.as_server(), Some(&3));
        assert_eq!(client.as_server(), None);
    }
}
