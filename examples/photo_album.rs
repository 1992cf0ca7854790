//! The paper's motivating anomaly (Section 1): Alice removes Bob from the
//! access list of a photo album and then adds a photo — Bob must never see
//! the *new* photo together with the *old* permissions.
//!
//! ```bash
//! cargo run --example photo_album
//! ```
//!
//! Part 1 exercises the scenario through the embedded Contrarian store: the
//! causally consistent ROT returns a safe snapshot.
//!
//! Part 2 runs the adversarial schedule of the paper's Figures 1 and 10
//! (E*) on the simulator — the reader's link to the album's partition is
//! held until the new photo is visible — against (a) a straw-man
//! "latency-optimal" protocol with no readers communication, which
//! violates causality, and (b) the real CC-LO (COPS-SNOW) implementation,
//! whose readers check blocks the anomaly.

use contrarian::api::CausalStore;
use contrarian::cclo::CcLo;
use contrarian::harness::theory::{run_estar, Strawman};
use contrarian::types::{ClusterConfig, Key};

fn main() {
    // --- Part 1: the album through the real store -----------------------
    let mut store = CausalStore::open(ClusterConfig::small());
    let permissions = Key(0); // partition 0
    let album = Key(1); // partition 1

    store.put(permissions, "everyone,bob".into()).unwrap();
    store.put(album, "beach.jpg".into()).unwrap();

    // Alice: remove Bob first, then add the party photo. The second PUT
    // causally depends on the first.
    store.put(permissions, "everyone".into()).unwrap();
    store.put(album, "beach.jpg,party.jpg".into()).unwrap();

    // Bob reads both keys in one ROT: a causally consistent snapshot can
    // never pair the new album with the old permissions.
    let snap = store.rot(&[permissions, album]).unwrap();
    let perms = String::from_utf8_lossy(snap[0].as_ref().unwrap()).into_owned();
    let photos = String::from_utf8_lossy(snap[1].as_ref().unwrap()).into_owned();
    println!("Bob's ROT: permissions={perms:?} album={photos:?}");
    assert!(
        !(photos.contains("party.jpg") && perms.contains("bob")),
        "anomaly: Bob saw the party photo with his old access"
    );
    store.shutdown();

    // --- Part 2: why the readers check exists ---------------------------
    println!("\nRunning the paper's E* schedule (Figure 10):");

    let bad = run_estar::<Strawman>(&[0]);
    let report = bad.check();
    println!(
        "  straw-man LO protocol (no readers communicated): {} violation(s)",
        report.violations.len()
    );
    assert!(!report.ok());
    println!("    e.g. {}", report.violations[0]);

    let good = run_estar::<CcLo>(&[0]);
    let report = good.check();
    println!(
        "  CC-LO with readers check: {} violation(s); px→py carried {} ROT id(s)",
        report.violations.len(),
        good.transcript.len()
    );
    assert!(report.ok());

    println!("\nThe protection is real, and so is its cost — that cost is the paper's subject.");
}
