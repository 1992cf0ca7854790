//! The Okapi-style backend under the shared conformance suite: the same
//! convergence + causal-session checks every backend must pass, on both
//! runtimes: the discrete-event simulator (every engine) and loopback TCP
//! through the epoll reactor. This file is the payoff of the
//! "~1 file backend" recipe —
//! nothing here knows anything Okapi-specific.

use contrarian_okapi::Okapi;
use contrarian_protocol::conformance;

#[test]
fn conforms_on_simulator_single_dc() {
    conformance::check_sim::<Okapi>(1, 51).unwrap();
}

#[test]
fn conforms_on_simulator_replicated() {
    for seed in [52, 53] {
        let outcome = conformance::check_sim::<Okapi>(2, seed).unwrap();
        assert!(
            outcome.keys_compared > 0,
            "convergence check must compare keys"
        );
    }
}

#[test]
fn conforms_on_tcp_transport() {
    let outcome = conformance::check_net::<Okapi>(2, 55).unwrap();
    assert!(outcome.keys_compared > 0);
}

/// The TCP battery on a second seed: another workload draw and another
/// set of socket interleavings on the same reactor.
#[test]
fn conforms_on_tcp_reactor_engine() {
    let outcome = conformance::check_net::<Okapi>(2, 56).unwrap();
    assert!(outcome.keys_compared > 0);
}
