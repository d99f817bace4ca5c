//! Host-speed calibration.
//!
//! On a shared 2-vCPU VM the same code runs up to 1.6x slower for
//! seconds to minutes at a time, and CPU time slows with wall time, so
//! neither clock alone gives steady numbers. The timed run therefore
//! measures, between devices, a fixed workload of the benchmark's own
//! that does the kinds of work the simulator does (Debug formatting,
//! FNV-1a hashing, ordered-map inserts, small allocations) and scales
//! each device's host times by [`REFERENCE_MS`] ÷ that workload's time
//! around the device. A change to the program cannot change the
//! calibration workload, so it moves the scaled times one for one; a
//! slower host moves both and largely cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The calibration workload's time on the reference host, in ms: a
/// 2-vCPU VM at its faster speed. Scaled times read as host times on
/// that host.
pub const REFERENCE_MS: f64 = 3.0;

/// Runs the calibration workload once; returns its host time in ms.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for i in 0..6000u64 {
        let event = format!("{:?}", (i, i.wrapping_mul(7), "event", [i; 4]));
        for b in event.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        map.insert(h % 8192, event.into_bytes());
    }
    black_box((map.len(), h));
    start.elapsed().as_secs_f64() * 1e3
}
