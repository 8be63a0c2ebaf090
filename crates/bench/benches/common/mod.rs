//! Wall-clock timing shared by the `simulator`, `figures` and
//! `obs_overhead` benches.

use std::hint::black_box;
use std::time::Instant;

/// Time `samples` batches of calls to `f` after one untimed warm-up call,
/// and print the min/median/max wall time per call. A batch repeats `f`
/// until it spans about a millisecond, so microsecond-scale work is not
/// lost in clock resolution.
pub fn bench<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) {
    let t = Instant::now();
    black_box(f());
    let batch = (1e-3 / t.elapsed().as_secs_f64().max(1e-9)).ceil() as u32;
    let mut secs: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / f64::from(batch)
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let [min, median, max] = [secs[0], secs[samples / 2], secs[samples - 1]];
    println!("{name:<40} time: [{} {} {}]", show(min), show(median), show(max));
}

fn show(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.3} µs", secs * 1e6)
    }
}
