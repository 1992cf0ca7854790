//! Contrarian under the shared backend conformance suite: the same
//! convergence + causal-session checks every backend must pass, on all three
//! runtimes: discrete-event simulator, in-process threads, and loopback TCP
//! through the epoll reactor.

use contrarian_core::Contrarian;
use contrarian_protocol::conformance;

#[test]
fn conforms_on_simulator_single_dc() {
    conformance::check_sim::<Contrarian>(1, 21).unwrap();
}

#[test]
fn conforms_on_simulator_replicated() {
    for seed in [22, 23] {
        let outcome = conformance::check_sim::<Contrarian>(2, seed).unwrap();
        assert!(
            outcome.keys_compared > 0,
            "convergence check must compare keys"
        );
    }
}

#[test]
fn conforms_on_live_transport() {
    conformance::check_live::<Contrarian>(2, 24).unwrap();
}

#[test]
fn conforms_on_tcp_transport() {
    let outcome = conformance::check_net::<Contrarian>(2, 25).unwrap();
    assert!(outcome.keys_compared > 0);
}

/// The TCP battery on a second seed: another workload draw and another
/// set of socket interleavings on the same reactor.
#[test]
fn conforms_on_tcp_reactor_engine() {
    let outcome = conformance::check_net::<Contrarian>(2, 26).unwrap();
    assert!(outcome.keys_compared > 0);
}
