#![cfg(debug_assertions)]
//! Debug-only stress: exercises the indexing-heavy serving paths — the
//! majority-filter ring bookkeeping and `parallel_map` chunk arithmetic —
//! with overflow and bounds checks armed and deliberately ragged inputs. Release builds compile
//! this file out; the debug-profile `cargo test` step in CI runs it.

use context_monitor::{parallel_map, MajorityFilter};

/// Capacity/class boundary sweep: thousands of pushes through every small
/// filter geometry, including the degenerate capacity-1 and single-class
/// cases where the eviction arithmetic has the least slack.
#[test]
fn majority_filter_geometry_sweep() {
    let mut state = 0x1234_5678_9ABC_DEF1u64;
    for capacity in 1..=8 {
        for classes in 1..=6 {
            let mut filter = MajorityFilter::new(capacity, classes);
            for _ in 0..400 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let value = (state % classes as u64) as usize;
                let majority = filter.push(value);
                assert!(majority < classes, "majority {majority} out of range");
                assert_eq!(filter.majority(), Some(majority));
            }
        }
    }
}

/// Chunk-boundary sweep for `parallel_map`: item counts around and below
/// the worker count, including empty input, must partition exactly.
#[test]
fn parallel_map_ragged_partitions() {
    for items in [0usize, 1, 2, 3, 7, 13, 64] {
        for threads in [1usize, 2, 3, 5, 9] {
            let data: Vec<u64> = (0..items as u64).collect();
            let got = parallel_map(&data, threads, |&x| x * 2 + 1);
            let want: Vec<u64> = data.iter().map(|&x| x * 2 + 1).collect();
            assert_eq!(got, want, "items={items} threads={threads}");
        }
    }
}
