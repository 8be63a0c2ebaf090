//! Host speed, measured beside the work.
//!
//! The benchmark runs on shared virtual machines whose vCPUs slow down by
//! up to 2x for seconds to minutes at a time, invisibly to the guest: no
//! steal time is reported, and CPU time slows with wall time. Taking the
//! fastest of several reps removes slowdowns that spare one of them, not
//! ones that last a whole run. So a rep times a fixed calibration slice
//! at every boundary between the segments it measures, and divides each
//! segment's time by the slowdown the slices at its two ends measured.
//! The slice is the benchmark's own code: no change to the program moves
//! it.
//!
//! What slows the simulator is contention for the core's execution
//! resources, which hurts code with high instruction-level parallelism
//! most. The slice is such code: four independent streams of shifts,
//! multiplies and loads from a read-only table in the L1 cache, the same
//! instructions and addresses on every call. Over five minutes of FMXM
//! and CCL golden runs interleaved with slices on a loaded host, the
//! simulator's slowdown went as the slice's to the power 0.97 to 1.01;
//! chunks of 2.5 s of simulation spread by 20-30% (quartiles over
//! median) in wall time and by 2-3% once divided by the slowdown. A
//! latency-bound slice (one dependent chain of loads) only cut the
//! spread of 3 s windows from 16.5% to 11.9%.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one slice takes on the baseline host at its fastest: the
/// fastest of 60,000 slices measured there. It sets the unit of every
/// time the benchmark reports, so it never changes.
pub const NOMINAL_SLICE_S: f64 = 0.000367;

/// Iterations of the slice's loop, about 0.4 ms.
const SLICE_ITERS: u32 = 400_000;

/// Words in the slice's table: 16 KiB.
const TABLE_WORDS: u32 = 1 << 12;

/// A segment is cut at the first shard boundary at least this long after
/// the previous cut, which keeps the slices near 2% of the rep's time.
/// Shorter segments track the host better: chunks divided by slices
/// 25 ms apart spread by 2%, 100 ms apart by 4%.
pub const MIN_SEGMENT_S: f64 = 0.02;

/// Run one slice and return its slowdown against [`NOMINAL_SLICE_S`].
fn slice(table: &[u32]) -> f64 {
    let mask = table.len() - 1;
    let started = Instant::now();
    let mut streams = [0x9e37_79b9_u32, 0x85eb_ca6b, 0xc2b2_ae35, 0x27d4_eb2f];
    let mut acc = [0_u32; 4];
    for _ in 0..SLICE_ITERS / 4 {
        for k in 0..4 {
            let mut x = streams[k];
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            streams[k] = x;
            acc[k] = acc[k].wrapping_mul(0x2545_f491).wrapping_add(table[x as usize & mask]);
        }
    }
    black_box(acc);
    started.elapsed().as_secs_f64() / NOMINAL_SLICE_S
}

/// One measured stretch of a rep: its wall time, and that time divided by
/// the host's slowdown over it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Segment {
    pub raw_s: f64,
    pub s: f64,
}

impl std::ops::AddAssign for Segment {
    fn add_assign(&mut self, other: Segment) {
        self.raw_s += other.raw_s;
        self.s += other.s;
    }
}

/// A rep's timeline, cut into segments at calibration slices. The slices
/// themselves fall between segments and count in none.
pub struct Meter {
    /// The slice's table; empty when the meter does not calibrate.
    table: Vec<u32>,
    /// Where the current segment began: the end of the last slice.
    since: Instant,
    /// The slowdown the last slice measured.
    slowdown: f64,
}

impl Meter {
    /// A meter whose first segment ran from `started` to now, and that
    /// segment. Without `calibrate` no slice runs and every slowdown
    /// reads 1, so the traced rep's spans hold no calibration.
    pub fn start(started: Instant, calibrate: bool) -> (Meter, Segment) {
        let words = if calibrate { TABLE_WORDS } else { 0 };
        let table = (0..words).map(|i| i.wrapping_mul(0x9e37_79b9) >> 7).collect();
        let mut meter = Meter { table, since: started, slowdown: f64::NAN };
        let first = meter.cut();
        (meter, first)
    }

    /// Seconds since the current segment began.
    pub fn elapsed(&self) -> f64 {
        self.since.elapsed().as_secs_f64()
    }

    /// End the current segment now and time a slice after it.
    pub fn cut(&mut self) -> Segment {
        let raw_s = self.elapsed();
        let slowdown = if self.table.is_empty() { 1.0 } else { slice(&self.table) };
        let before = if self.slowdown.is_nan() { slowdown } else { self.slowdown };
        self.slowdown = slowdown;
        self.since = Instant::now();
        Segment { raw_s, s: raw_s / ((before + slowdown) / 2.0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_is_scaled_by_the_slices_at_its_ends() {
        let mut meter = Meter { table: Vec::new(), since: Instant::now(), slowdown: 3.0 };
        // Without a table the slice reads 1, so the segment is scaled by
        // the mean of 3 and 1.
        let seg = meter.cut();
        assert!((seg.s * 2.0 - seg.raw_s).abs() < 1e-12);
        assert_eq!(meter.slowdown, 1.0);
        let (_, first) = Meter::start(Instant::now(), false);
        assert_eq!(first.s, first.raw_s);
    }

    #[test]
    fn a_slice_measures_a_positive_slowdown() {
        let (mut meter, first) = Meter::start(Instant::now(), true);
        assert!(first.s > 0.0);
        assert!(meter.slowdown > 0.0 && meter.slowdown.is_finite());
        assert!(meter.cut().s >= 0.0);
    }
}
