//! Host-speed calibration of the end-to-end times.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by up
//! to 40% within minutes, for everything the process does at once (see the
//! README). A fixed reference kernel that shares no code with the optimod
//! crates is timed between items, and every end-to-end time is scaled by
//! `(NOMINAL / kernel)^EXPONENT`, where `kernel` is the median kernel time
//! around the pass or set-up block it belongs to. A change to the program
//! leaves the kernel as it is, so it moves the scaled times as it moves the
//! raw ones; a change in host speed moves both and is largely divided out.

use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel's time on a host of nominal speed: scaled times read as the
/// raw times on such a host.
const NOMINAL: Duration = Duration::from_micros(215);

/// How strongly pass times follow the kernel's time: the slope of the log
/// of a pass's time against the log of its kernel time. On a 2-vCPU
/// virtual machine it was 0.58 to 0.75 over 68 passes while the host was
/// calm, and 0.75 to 0.85 (correlation 0.95 to 0.97) over 99 passes while
/// the host slowed by 40%. Of the powers 0.6, 0.8 and 1, this one left the
/// largest spread of pass times across those sets smallest.
const EXPONENT: f64 = 0.8;

/// At most one kernel sample per this much wall time between items.
const EVERY: Duration = Duration::from_millis(200);

/// Order of the kernel's matrix: about 70 KB, so that it lives in the
/// caches the solver's own working set uses.
const ORDER: usize = 90;

/// Kernel times taken around one pass or set-up block.
#[derive(Debug)]
pub struct Probe {
    samples: Vec<f64>,
    last: Instant,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            samples: Vec::new(),
            last: Instant::now(),
        }
    }
}

impl Probe {
    /// Times the kernel once.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(ORDER)));
        self.samples.push(start.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Times the kernel if [`EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// The median kernel time, in µs.
    ///
    /// # Panics
    ///
    /// Panics when no sample was taken.
    pub fn kernel_us(&self) -> f64 {
        median(&self.samples) * 1e6
    }

    /// The factor that turns a raw time measured around these samples into
    /// one on a host of nominal speed.
    pub fn scale(&self) -> f64 {
        (NOMINAL.as_secs_f64() * 1e6 / self.kernel_us()).powf(EXPONENT)
    }
}

/// LU factorization with partial pivoting of a fixed pseudo-random matrix;
/// returns the log-determinant so that the work cannot be optimized away.
fn kernel(n: usize) -> f64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut a: Vec<f64> = (0..n * n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    for k in 0..n {
        let pivot_row = (k..n)
            .max_by(|&i, &j| a[i * n + k].abs().total_cmp(&a[j * n + k].abs()))
            .expect("a non-empty column");
        if pivot_row != k {
            for j in 0..n {
                a.swap(k * n + j, pivot_row * n + j);
            }
        }
        let pivot = a[k * n + k];
        for i in k + 1..n {
            let f = a[i * n + k] / pivot;
            for j in k..n {
                a[i * n + j] -= f * a[k * n + j];
            }
        }
    }
    (0..n).map(|i| a[i * n + i].abs().ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_finite() {
        let d = kernel(ORDER);
        assert!(d.is_finite());
        assert_eq!(d.to_bits(), kernel(ORDER).to_bits());
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        let mut p = Probe::default();
        p.samples = vec![2.0 * NOMINAL.as_secs_f64(); 3];
        assert!((p.scale() - 0.5f64.powf(EXPONENT)).abs() < 1e-12);
        p.samples = vec![NOMINAL.as_secs_f64()];
        assert!((p.scale() - 1.0).abs() < 1e-12);
    }
}
