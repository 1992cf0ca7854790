//! Cure under the shared backend conformance suite: the same convergence +
//! causal-session checks every backend must pass, on all three runtimes:
//! discrete-event simulator, in-process threads, and loopback TCP through
//! the epoll reactor.

use contrarian_cure::Cure;
use contrarian_protocol::conformance;

#[test]
fn conforms_on_simulator_single_dc() {
    conformance::check_sim::<Cure>(1, 41).unwrap();
}

#[test]
fn conforms_on_simulator_replicated() {
    for seed in [42, 43] {
        let outcome = conformance::check_sim::<Cure>(2, seed).unwrap();
        assert!(
            outcome.keys_compared > 0,
            "convergence check must compare keys"
        );
    }
}

#[test]
fn conforms_on_live_transport() {
    conformance::check_live::<Cure>(2, 44).unwrap();
}

#[test]
fn conforms_on_tcp_transport() {
    let outcome = conformance::check_net::<Cure>(2, 45).unwrap();
    assert!(outcome.keys_compared > 0);
}

/// The TCP battery on a second seed: another workload draw and another
/// set of socket interleavings on the same reactor.
#[test]
fn conforms_on_tcp_reactor_engine() {
    let outcome = conformance::check_net::<Cure>(2, 46).unwrap();
    assert!(outcome.keys_compared > 0);
}
