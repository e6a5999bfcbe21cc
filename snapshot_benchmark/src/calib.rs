//! Speed calibration: how fast is the box *right now*?
//!
//! The sandbox's speed drifts by tens of percent over minutes and stumbles
//! for a second or two at a time (co-tenants, memory pressure): the same
//! statement takes 14 ms in one run and 20 ms in the next, CPU time
//! included, and no amount of repetition inside a 16 s run averages that
//! away. Interference only ever slows a piece of work down, so the
//! reproducible state of a run is its *quiet quarter*. The benchmark
//! therefore cuts every measured quantity into pieces (16 sub-windows,
//! 3+ set-ups, 7+ restarts), times a fixed reference kernel of its own —
//! row cloning, hash grouping and sorting, the kind of work the engine does
//! — before every piece and after the last, and reports
//!
//! > lower quartile of the pieces ÷ (lower quartile of the readings)^0.75
//!
//! ([`quiet_time`]; [`quiet_rate`] mirrors it for rates). The quartiles
//! drop the pieces and readings a burst hit; the division takes out what
//! a slow quarter of an hour does to all of them.
//!
//! The kernel is memory-bound throughout; the system's statements only
//! partly (and wire- or syscall-bound work hardly at all), so the system's
//! times move with a *power* of the kernel's below 1. Over eight sets of
//! 10 runs, in spells when the box ran up to 80 % slower than usual, this
//! estimate held the run-to-run spread (interquartile range / median) of
//! RTT, throughput and CPU cost at 2-9 %, typically 5 %; the median of 10
//! pieces over the square root of the median reading held 3-11 % on the
//! same runs, the values as measured 5-43 %. No power, quantile or piece
//! length was best in every spell; these were never far from the best.
//!
//! The kernel is benchmark code: a change to the system cannot speed it up,
//! and a change that claims a gain may not edit the benchmark. The medians
//! as measured and the readings are printed beside the metrics.

use crate::stats::{median, Sample};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The kernel's time on the reference box when nothing else runs. It only
/// fixes the unit: on this box, quiet, the factor is ≈ 1.
pub const NOMINAL_KERNEL_MS: f64 = 10.5;

const KERNEL_ROWS: usize = 40_000;
const REPETITIONS: usize = 5;

#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Cell {
    Int(i64),
    Str(Arc<str>),
}

/// The power of the kernel's reading the system's times move with (see
/// the module docs).
pub const EXPONENT: f64 = 0.75;

/// What times taken beside `readings` are divided by: the lower quartile
/// of the readings, to the power [`EXPONENT`].
pub fn quiet_speed(readings: &[f64]) -> f64 {
    Sample::new(readings.to_vec())
        .quantile(0.25)
        .max(f64::MIN_POSITIVE)
        .powf(EXPONENT)
}

/// A time at reference speed: the lower quartile of `pieces` (the same
/// quantity measured several times in a run) ÷ [`quiet_speed`] of the
/// kernel readings taken around them.
pub fn quiet_time(pieces: &[f64], readings: &[f64]) -> f64 {
    Sample::new(pieces.to_vec()).quantile(0.25) / quiet_speed(readings)
}

/// A rate at reference speed: the upper quartile of `pieces` ×
/// [`quiet_speed`].
pub fn quiet_rate(pieces: &[f64], readings: &[f64]) -> f64 {
    Sample::new(pieces.to_vec()).quantile(0.75) * quiet_speed(readings)
}

/// The reference kernel over fixed pseudo-random rows.
pub struct Calibrator {
    rows: Vec<Vec<Cell>>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // xorshift64: the rows are the same in every process.
        let mut x = 88_172_645_463_325_252u64;
        let mut next = move |modulus: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % modulus) as i64
        };
        let rows = (0..KERNEL_ROWS)
            .map(|_| {
                vec![
                    Cell::Int(next(3_000)),
                    Cell::Int(next(100_000)),
                    Cell::Str(Arc::from(format!("s{}", next(50)))),
                    Cell::Int(next(12_000)),
                    Cell::Int(next(12_000)),
                ]
            })
            .collect();
        Calibrator { rows }
    }

    /// Clone every row (allocation), group by the first column (hashing),
    /// sort the copies (comparison) — and fold the results so none of it
    /// can be optimised away.
    fn kernel(&self) -> u64 {
        let mut copy: Vec<Vec<Cell>> = self.rows.to_vec();
        let mut groups: HashMap<&Cell, Vec<usize>> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            groups.entry(&row[0]).or_default().push(i);
        }
        let mut acc = groups.values().map(|g| g.len() as u64).sum::<u64>();
        copy.sort_unstable();
        for row in copy.iter().step_by(97) {
            if let Cell::Int(v) = row[1] {
                acc = acc.wrapping_add(v as u64);
            }
        }
        acc
    }

    /// One reading: median kernel time ÷ nominal (above 1 = the box is
    /// slower than the reference right now).
    pub fn factor(&self) -> f64 {
        let times: Vec<f64> = (0..REPETITIONS)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(self.kernel());
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times) / NOMINAL_KERNEL_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_estimates_ignore_the_disturbed_pieces() {
        // Two of eight pieces and readings hit by a burst: nothing moves.
        let calm = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        let hit = [10.0, 10.0, 30.0, 10.0, 10.0, 25.0, 10.0, 10.0];
        let readings = [1.0, 1.0, 2.5, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0];
        assert_eq!(quiet_time(&calm, &[1.0; 9]), 10.0);
        assert_eq!(quiet_time(&hit, &readings), 10.0);
        assert_eq!(quiet_rate(&[5.0, 5.0, 2.0, 5.0], &readings), 5.0);
        // A box slower throughout: times shrink, rates grow, by 16^0.75.
        assert!((quiet_time(&calm, &[16.0; 9]) - 1.25).abs() < 1e-12);
        assert!((quiet_rate(&calm, &[16.0; 9]) - 80.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_is_deterministic_and_the_factor_positive() {
        let (a, b) = (Calibrator::new(), Calibrator::new());
        assert_eq!(a.kernel(), b.kernel());
        assert!(a.factor() > 0.0);
    }
}
