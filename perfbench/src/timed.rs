//! The timed run: fleet devices on one host thread, no spans.
//!
//! Plain workloads drive each device through `DeviceSim::boot`, one
//! `step` per unit and `finish`, timing every step; healed workloads
//! time one `run_device_healed` call per device, because a healed run
//! exposes no per-unit boundary. Every spec also runs, timed, through
//! the fleet's own entry point, and the two runs must agree. Host times
//! are scaled to the reference host by [`crate::calib`].

use std::time::Instant;

use cider_fault::SplitMix64;
use cider_fleet::{
    run_device, run_device_healed, DeviceOutcome, DeviceSim, DeviceSpec,
};

use crate::calib::{calibrate, REFERENCE_MS};
use crate::stats::MIN_P99_SAMPLES;
use crate::workload::BenchWorkload;

/// Samples kept per metric. The buffers are allocated and touched up
/// front, so the benchmark's own memory does not grow with run length
/// or speed and `peak_rss_mb` tracks the program's memory alone.
pub const RESERVOIR: usize = 1 << 17;

/// A fixed-size uniform sample (Vitter's algorithm R) of a stream.
pub struct Reservoir {
    kept: Vec<f64>,
    seen: usize,
    rng: SplitMix64,
}

impl Default for Reservoir {
    fn default() -> Reservoir {
        Reservoir {
            // Not 0.0: a zeroed allocation would stay untouched (and out
            // of the resident set) until written.
            kept: vec![f64::NAN; RESERVOIR],
            seen: 0,
            rng: SplitMix64::new(0x5EED),
        }
    }
}

impl Reservoir {
    /// Offers one sample.
    pub fn push(&mut self, v: f64) {
        if self.seen < RESERVOIR {
            self.kept[self.seen] = v;
        } else {
            let slot = self.rng.below(self.seen as u64 + 1) as usize;
            if slot < RESERVOIR {
                self.kept[slot] = v;
            }
        }
        self.seen += 1;
    }

    /// The kept samples.
    pub fn samples(&self) -> &[f64] {
        &self.kept[..self.seen.min(RESERVOIR)]
    }

    /// Samples offered.
    pub fn seen(&self) -> usize {
        self.seen
    }
}

/// Everything the timed run measured. Host times are scaled to the
/// reference host (see [`crate::calib`]) unless named `raw`.
#[derive(Default)]
pub struct TimedRun {
    /// Device specs run (each runs twice, see [`TimedRun::run_device`]).
    pub devices: u64,
    /// Host µs per workload unit: one sample per `DeviceSim::step` on
    /// plain workloads; one per device run (its call ÷ its units) on
    /// healed workloads.
    pub unit_us: Reservoir,
    /// Host ms of one device run.
    pub device_ms: Reservoir,
    /// Virtual ns per workload unit: one sample per `DeviceSim::step`,
    /// or per healed device (`virtual_ns` ÷ units). Deterministic, so
    /// only the instrumented run of each spec samples it.
    pub v_unit_ns: Reservoir,
    /// Units attempted (every unit of every device run, wedged or not).
    pub attempted: u64,
    /// Units completed.
    pub completed: u64,
    /// Host seconds spent inside device runs (sum of `device_ms`).
    pub device_s: f64,
    /// The same, unscaled: what the run's length is measured in.
    pub raw_device_s: f64,
    /// Every calibration time, in ms.
    pub calibration_ms: Vec<f64>,
    step_us: Vec<f64>,
}

impl TimedRun {
    /// Units not completed, including the unattempted units of wedged
    /// devices.
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }

    /// Completed units per (scaled) host second of device time.
    pub fn units_per_s(&self) -> f64 {
        self.completed as f64 / self.device_s
    }

    /// Completed units per unscaled host second of device time.
    pub fn raw_units_per_s(&self) -> f64 {
        self.completed as f64 / self.raw_device_s
    }

    /// Runs one spec twice and times both runs: first instrumented
    /// (`DeviceSim::boot`, a timer around each `step`, `finish`; or one
    /// `run_device_healed` call), then through the fleet's own entry
    /// point (`cider_fleet::run_device` or `run_device_healed`). The
    /// host is calibrated before and after the pair, and the pair's
    /// times are scaled by the mean of the two.
    ///
    /// # Errors
    ///
    /// The output check: the two runs must agree on `trace_fingerprint`
    /// and `virtual_ns` bit for bit, so the benchmark loop adds no
    /// behaviour of its own.
    pub fn run_device(
        &mut self,
        w: &BenchWorkload,
        spec: &DeviceSpec,
    ) -> Result<(), String> {
        if self.calibration_ms.is_empty() {
            self.calibration_ms.push(calibrate());
        }
        let before = self.calibration_ms[self.calibration_ms.len() - 1];
        self.step_us.clear();
        let start = Instant::now();
        let stepped = if w.healed {
            run_device_healed(spec, &w.heal_config())
        } else {
            let mut sim = DeviceSim::boot(spec);
            while !sim.done() {
                let v0 = sim.now_ns();
                let t0 = Instant::now();
                sim.step();
                self.step_us.push(t0.elapsed().as_secs_f64() * 1e6);
                self.v_unit_ns.push((sim.now_ns() - v0) as f64);
            }
            sim.finish(DeviceOutcome::Completed, None)
        };
        let stepped_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let reference = if w.healed {
            run_device_healed(spec, &w.heal_config())
        } else {
            run_device(spec)
        };
        let reference_s = start.elapsed().as_secs_f64();
        let after = calibrate();
        self.calibration_ms.push(after);

        let scale = REFERENCE_MS * 2.0 / (before + after);
        for &us in &self.step_us {
            self.unit_us.push(us * scale);
        }
        let units = stepped.units_completed.max(1) as f64;
        if w.healed {
            self.v_unit_ns.push(stepped.virtual_ns as f64 / units);
        }
        for (result, secs) in
            [(&stepped, stepped_s), (&reference, reference_s)]
        {
            if w.healed {
                self.unit_us.push(secs * scale * 1e6 / units);
            }
            self.raw_device_s += secs;
            self.device_s += secs * scale;
            self.device_ms.push(secs * scale * 1e3);
            self.attempted += w.units_per_device();
            self.completed += result.units_completed;
        }
        self.devices += 1;

        if (stepped.trace_fingerprint, stepped.virtual_ns)
            == (reference.trace_fingerprint, reference.virtual_ns)
        {
            return Ok(());
        }
        Err(format!(
            "output check: device {} (seed {:#x}) gave fingerprint \
             {:#018x} at {} vns, cider_fleet gives {:#018x} at {} vns",
            spec.device_id,
            spec.seed,
            stepped.trace_fingerprint,
            stepped.virtual_ns,
            reference.trace_fingerprint,
            reference.virtual_ns
        ))
    }
}

/// Runs specs of successive rounds, each round in persona-interleaved
/// order, until `seconds` of unscaled device time have passed and the
/// instrumented runs gave at least 1000 unit samples (on healed
/// workloads, 1000 devices), enough for a p99.
///
/// # Errors
///
/// The first device that fails the output check.
pub fn run(
    w: &BenchWorkload,
    seed: u64,
    seconds: f64,
) -> Result<TimedRun, String> {
    let mut run = TimedRun::default();
    for round in 0.. {
        for spec in w.round(seed, round) {
            if run.raw_device_s >= seconds
                && run.v_unit_ns.seen() >= MIN_P99_SAMPLES
            {
                return Ok(run);
            }
            run.run_device(w, &spec)?;
        }
    }
    unreachable!("rounds are endless")
}
