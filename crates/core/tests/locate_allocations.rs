//! Heap-allocation budget of fingerprint-location discovery on des.
//!
//! A counting global allocator tallies every allocation (and
//! reallocation) made while `find_locations_with` and
//! `Fingerprinter::new` run on the des stand-in. Discovery allocates one
//! exact-length candidate list per location and nothing per candidate,
//! and selection allocates nothing per location beyond the scratch
//! netlist's own edits, so both stay far below what a per-candidate
//! allocation would cost (45,875 candidates on des).
//!
//! This binary holds a single test so that no other test allocates while
//! it counts. CI runs it at `ODCFP_THREADS=1` and `8`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use odcfp_analysis::engine::AnalysisEngine;
use odcfp_core::{find_locations_with, Fingerprinter};
use odcfp_netlist::CellLibrary;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn des_location_discovery_stays_within_its_allocation_budget() {
    let base = odcfp_synth::benchmarks::generate("des", CellLibrary::standard())
        .expect("des is a Table II name");
    let engine = AnalysisEngine::new(&base).expect("des is acyclic");

    let (locations, find) = allocations_during(|| find_locations_with(&base, &engine, 1));
    let candidates: usize = locations.iter().map(|l| l.candidates.len()).sum();
    assert_eq!((locations.len(), candidates), (820, 45_875));
    assert!(
        find <= 5_000,
        "find_locations_with(des, 1) made {find} allocations (budget 5,000)"
    );

    let clone = base.clone();
    let (fp, new) = allocations_during(|| Fingerprinter::new(clone));
    let fp = fp.expect("des is valid");
    assert_eq!(fp.locations().len(), 820);
    assert!(
        new <= 62_000,
        "Fingerprinter::new(des) made {new} allocations (budget 62,000)"
    );
    eprintln!("des allocations: find_locations_with {find}, Fingerprinter::new {new}");
}
