//! Time domains, time points, and interval algebra.
//!
//! This crate implements the temporal preliminaries of *Snapshot Semantics for
//! Temporal Multiset Relations* (Dignös et al., PVLDB 2019), Section 5.1:
//!
//! * a totally ordered, finite domain `T` of time points ([`TimeDomain`]),
//! * half-open intervals `[Tb, Te)` over that domain ([`Interval`]), and
//! * the interval relations used throughout the paper: adjacency, overlap,
//!   intersection, and union.
//!
//! Time points are plain `i64` values wrapped in [`TimePoint`]; a
//! [`TimeDomain`] fixes the minimum time point `Tmin` and the exclusive
//! maximum `Tmax` for a database. All temporal annotations of a database are
//! interpreted relative to one domain.

#![forbid(unsafe_code)]

mod interval;
mod point;

pub use interval::{endpoints_to_intervals, Interval};
pub use point::TimePoint;

use std::fmt;

/// A totally ordered, finite time domain `T = [min, max)`.
///
/// `min` is the smallest time point (`Tmin` in the paper) and `max` is the
/// *exclusive* maximal time point (`Tmax`). The running example of the paper
/// uses the hours of a single day, i.e. `TimeDomain::new(0, 24)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeDomain {
    min: TimePoint,
    max: TimePoint,
}

impl TimeDomain {
    /// Creates the time domain `[min, max)`.
    ///
    /// # Panics
    /// Panics if `min >= max`; a time domain must contain at least one point.
    pub fn new(min: impl Into<TimePoint>, max: impl Into<TimePoint>) -> Self {
        let (min, max) = (min.into(), max.into());
        assert!(
            min < max,
            "time domain requires min < max, got [{min}, {max})"
        );
        TimeDomain { min, max }
    }

    /// The smallest time point `Tmin` of the domain.
    #[inline]
    pub fn tmin(&self) -> TimePoint {
        self.min
    }

    /// The exclusive maximal time point `Tmax` of the domain.
    #[inline]
    pub fn tmax(&self) -> TimePoint {
        self.max
    }

    /// The interval `[Tmin, Tmax)` covering the whole domain.
    #[inline]
    pub fn full_interval(&self) -> Interval {
        Interval::new(self.min, self.max)
    }

    /// Number of time points in the domain.
    #[inline]
    pub fn len(&self) -> u64 {
        (self.max.value() - self.min.value()) as u64
    }

    /// A time domain is never empty (enforced by [`TimeDomain::new`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `t` is a member of the domain.
    #[inline]
    pub fn contains(&self, t: TimePoint) -> bool {
        self.min <= t && t < self.max
    }

    /// Whether the interval lies fully inside the domain.
    #[inline]
    pub fn contains_interval(&self, i: Interval) -> bool {
        self.min <= i.begin() && i.end() <= self.max
    }

    /// Iterates over every time point of the domain in order.
    ///
    /// This is the point-wise view that the *abstract model* (snapshot
    /// K-relations) is defined over; it is only practical for small domains
    /// and is mainly used by the point-wise oracle and by tests.
    pub fn points(&self) -> impl DoubleEndedIterator<Item = TimePoint> + Clone {
        (self.min.value()..self.max.value()).map(TimePoint::new)
    }

    /// Clamps an interval to the domain, returning `None` if nothing remains.
    pub fn clamp_interval(&self, i: Interval) -> Option<Interval> {
        i.intersect(self.full_interval())
    }
}

impl fmt::Display for TimeDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_basics() {
        let d = TimeDomain::new(0, 24);
        assert_eq!(d.tmin(), TimePoint::new(0));
        assert_eq!(d.tmax(), TimePoint::new(24));
        assert_eq!(d.len(), 24);
        assert!(d.contains(TimePoint::new(0)));
        assert!(d.contains(TimePoint::new(23)));
        assert!(!d.contains(TimePoint::new(24)));
        assert!(!d.contains(TimePoint::new(-1)));
        assert_eq!(d.full_interval(), Interval::new(0, 24));
    }

    #[test]
    #[should_panic(expected = "min < max")]
    fn empty_domain_rejected() {
        let _ = TimeDomain::new(5, 5);
    }

    #[test]
    fn domain_points_iteration() {
        let d = TimeDomain::new(3, 7);
        let pts: Vec<i64> = d.points().map(|p| p.value()).collect();
        assert_eq!(pts, vec![3, 4, 5, 6]);
    }

    #[test]
    fn domain_clamp() {
        let d = TimeDomain::new(0, 10);
        assert_eq!(
            d.clamp_interval(Interval::new(-5, 5)),
            Some(Interval::new(0, 5))
        );
        assert_eq!(
            d.clamp_interval(Interval::new(8, 20)),
            Some(Interval::new(8, 10))
        );
        assert_eq!(d.clamp_interval(Interval::new(12, 20)), None);
        assert_eq!(
            d.clamp_interval(Interval::new(0, 10)),
            Some(Interval::new(0, 10))
        );
    }

    #[test]
    fn domain_display() {
        assert_eq!(TimeDomain::new(0, 24).to_string(), "[0, 24)");
    }
}
