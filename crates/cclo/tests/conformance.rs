//! CC-LO under the shared backend conformance suite: the same convergence +
//! causal-session checks every backend must pass, on both runtimes: the
//! discrete-event simulator (every engine) and loopback TCP through the
//! epoll reactor.

use contrarian_cclo::CcLo;
use contrarian_protocol::conformance;

#[test]
fn conforms_on_simulator_single_dc() {
    conformance::check_sim::<CcLo>(1, 31).unwrap();
}

#[test]
fn conforms_on_simulator_replicated() {
    for seed in [32, 33] {
        let outcome = conformance::check_sim::<CcLo>(2, seed).unwrap();
        assert!(
            outcome.keys_compared > 0,
            "convergence check must compare keys"
        );
    }
}

#[test]
fn conforms_on_tcp_transport() {
    let outcome = conformance::check_net::<CcLo>(2, 35).unwrap();
    assert!(outcome.keys_compared > 0);
}

/// The TCP battery on a second seed: another workload draw and another
/// set of socket interleavings on the same reactor.
#[test]
fn conforms_on_tcp_reactor_engine() {
    let outcome = conformance::check_net::<CcLo>(2, 36).unwrap();
    assert!(outcome.keys_compared > 0);
}

/// Three DCs: each replica is fed by two origin DCs, so updates from
/// both go through the one readers check and install on every engine.
#[test]
fn conforms_on_simulator_three_dcs() {
    let outcome = conformance::check_sim::<CcLo>(3, 34).unwrap();
    assert!(outcome.keys_compared > 0);
}
