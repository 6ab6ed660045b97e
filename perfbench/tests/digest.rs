//! The workload seed alone decides the inputs: the same seed gives the
//! same decision digest, another seed gives another. Training is slow in
//! an unoptimized build, so run this with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use context_monitor::Precision;
use perfbench::setup::{digest, prepare, reference};

fn digests(seed: u64) -> [u64; 2] {
    let p = prepare(seed);
    [Precision::F32, Precision::Int8].map(|tier| digest(&reference(&p.pipeline, &p.demos, tier)))
}

#[test]
fn same_seed_same_digest_other_seed_another() {
    let first = digests(7);
    assert_eq!(first, digests(7), "one seed must give one decision stream");
    let other = digests(8);
    for (a, b) in first.iter().zip(&other) {
        assert_ne!(a, b, "another seed must give other inputs and decisions");
    }
}
