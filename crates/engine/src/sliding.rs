//! Sliding aggregate state supporting add *and remove*.
//!
//! The fused temporal aggregation of Section 9 sweeps the time axis,
//! maintaining the aggregate over the rows active at the sweep position.
//! The state is typed by its function: `count` and integer `sum`/`avg` are
//! integer arithmetic (the sum in `i128`, so it is exact wherever it goes),
//! `DOUBLE`s go into an exact sum (so a sliding sum is the `AS OF`
//! snapshot's, bit for bit); only `min`/`max` keep a value multiset, so
//! arbitrary removal stays `O(log n)` for them and costs nothing for
//! everyone else.

use algebra::AggFunc;
use std::collections::BTreeMap;
use storage::{SqlType, Value};

/// Sliding (add/remove) aggregate state for one aggregate function.
#[derive(Debug)]
pub struct SlidingAgg {
    func: AggFunc,
    arg_type: SqlType,
    rows: i64,
    non_null: i64,
    /// Exact: `sum` reports NULL while it lies outside `i64` and the value
    /// again once the rows that pushed it out are removed; `avg` divides it.
    sum_int: i128,
    sum_double: ExactSum,
    /// Multiset of the active non-NULL values — touched by `Min`/`Max`
    /// only, which read its first / last key.
    extremes: BTreeMap<Value, i64>,
}

impl SlidingAgg {
    /// Fresh state for `func` whose argument has type `arg_type`.
    pub fn new(func: AggFunc, arg_type: SqlType) -> Self {
        SlidingAgg {
            func,
            arg_type,
            rows: 0,
            non_null: 0,
            sum_int: 0,
            sum_double: ExactSum::default(),
            extremes: BTreeMap::new(),
        }
    }

    /// Adds (`sign` 1) or removes (`sign` −1) one row's argument value
    /// (possibly NULL; `count(*)` passes any non-NULL value); by the next
    /// read, every value removed has been added.
    pub fn slide(&mut self, v: &Value, sign: i64) {
        self.rows += sign;
        if v.is_null() {
            return;
        }
        self.non_null += sign;
        match (&self.func, v) {
            (AggFunc::Min | AggFunc::Max, _) => {
                let count = self.extremes.entry(v.clone()).or_insert(0);
                *count += sign;
                if *count == 0 {
                    self.extremes.remove(v);
                }
            }
            (AggFunc::Sum | AggFunc::Avg, Value::Int(i)) => {
                self.sum_int += i128::from(*i) * i128::from(sign)
            }
            (AggFunc::Sum | AggFunc::Avg, Value::Double(d)) => self.sum_double.add(*d, sign),
            _ => {}
        }
    }

    /// The current aggregate value (SQL semantics: empty/all-NULL input
    /// yields NULL, except `count`, which yields 0).
    pub fn current(&self) -> Value {
        let total = || self.sum_double.value() + self.sum_int as f64;
        match self.func {
            AggFunc::CountStar => Value::Int(self.rows),
            AggFunc::Count => Value::Int(self.non_null),
            AggFunc::Sum | AggFunc::Avg if self.non_null == 0 => Value::Null,
            AggFunc::Sum if self.arg_type == SqlType::Double => Value::Double(total()),
            AggFunc::Sum => i64::try_from(self.sum_int).map_or(Value::Null, Value::Int),
            AggFunc::Avg => Value::Double(total() / self.non_null as f64),
            AggFunc::Min => self.extremes.keys().next().cloned().unwrap_or(Value::Null),
            AggFunc::Max => self
                .extremes
                .keys()
                .next_back()
                .cloned()
                .unwrap_or(Value::Null),
        }
    }

    /// The value this aggregate reports for a *gap* (no input at all):
    /// `count` is 0, everything else NULL — the behaviour the neutral-tuple
    /// union of Figure 4 produces in SQL.
    pub fn gap_value(func: &AggFunc) -> Value {
        match func {
            AggFunc::CountStar | AggFunc::Count => Value::Int(0),
            _ => Value::Null,
        }
    }
}

/// `i128` limbs of an [`ExactSum`], 64 bits apart: a double is below 2^2098 units.
const LIMBS: usize = 33;

/// The exact sum of a multiset of doubles: removing a value undoes adding
/// it, bit for bit. A finite double is an integer in units of 2^-1074 (the
/// least subnormal); its two 64-bit halves add at their place into `i128`
/// limbs, which need no carry until [`ExactSum::value`] reads them (2^63
/// terms fit).
#[derive(Debug, Default)]
struct ExactSum {
    limbs: Vec<i128>,
    /// Active `+inf`, `-inf`, NaN.
    specials: [i64; 3],
}

impl ExactSum {
    /// Adds `d` with multiplicity `sign` (1 to add, −1 to remove).
    fn add(&mut self, d: f64, sign: i64) {
        if !d.is_finite() {
            self.specials[if d.is_nan() { 2 } else { (d < 0.0) as usize }] += sign;
            return;
        }
        // |d| = significand · 2^(exponent − 1075) = significand · 2^shift units.
        let exponent = (d.to_bits() >> 52 & 0x7ff) as usize;
        let significand = d.to_bits() & ((1 << 52) - 1) | ((exponent > 0) as u64) << 52;
        let shift = exponent.saturating_sub(1);
        let wide = (significand as u128) << (shift % 64);
        let sign = i128::from(if d < 0.0 { -sign } else { sign });
        self.limbs.resize(LIMBS, 0);
        self.limbs[shift / 64] += sign * (wide as u64) as i128;
        self.limbs[shift / 64 + 1] += sign * (wide >> 64) as i128;
    }

    /// The sum, correctly rounded to nearest, ties to even (±inf beyond the
    /// largest double; an exact zero is `+0.0`).
    fn value(&self) -> f64 {
        match self.specials {
            [0, 0, 0] if self.limbs.is_empty() => return 0.0,
            [0, 0, 0] => {}
            [_, 0, 0] => return f64::INFINITY,
            [0, _, 0] => return f64::NEG_INFINITY,
            _ => return f64::NAN,
        }
        // Carried into two's-complement words, then the magnitude.
        let (mut words, mut carry) = ([0u64; LIMBS + 1], 0i128);
        for (w, l) in words.iter_mut().zip(&self.limbs) {
            (*w, carry) = ((l + carry) as u64, (l + carry) >> 64);
        }
        words[LIMBS] = carry as u64;
        let mut plus_one = carry < 0;
        for w in words.iter_mut().filter(|_| carry < 0) {
            (*w, plus_one) = (!*w).overflowing_add(plus_one as u64);
        }
        let top = words.iter().rposition(|&w| w != 0).unwrap_or(0);
        // The top two words, with a sticky bit for any below them, round
        // like the whole sum: `bits` · 2^(64·lo) units, an exact scaling.
        let lo = top.saturating_sub(1);
        let sticky = words[..lo].iter().any(|&w| w != 0);
        let bits = (words[top] as u128) << (64 * (top - lo)) | words[lo] as u128 | sticky as u128;
        let scale = match lo {
            0 => f64::from_bits(1),
            _ => f64::from_bits(((64 * lo - 51) as u64) << 52),
        };
        (bits as f64 * scale).copysign(carry as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_of(func: AggFunc, ty: SqlType, vals: &[Value]) -> SlidingAgg {
        let mut s = SlidingAgg::new(func, ty);
        for v in vals {
            s.slide(v, 1);
        }
        s
    }

    #[test]
    fn count_and_sum_slide() {
        let mut s = state_of(
            AggFunc::Sum,
            SqlType::Int,
            &[Value::Int(10), Value::Int(20), Value::Int(5)],
        );
        assert_eq!(s.current(), Value::Int(35));
        s.slide(&Value::Int(10), -1);
        s.slide(&Value::Int(20), -1);
        assert_eq!(s.current(), Value::Int(5));
        s.slide(&Value::Int(5), -1);
        assert_eq!(s.current(), Value::Null); // sum of empty = NULL
    }

    /// A sum outside `i64` is NULL — like `+` on `INT`s, not a wrapped
    /// number — and exact again once the rows that pushed it out are gone;
    /// `avg` divides the exact sum.
    #[test]
    fn int_sum_outside_i64_is_null_and_comes_back() {
        let (max, min) = (Value::Int(i64::MAX), Value::Int(i64::MIN));
        let mut s = state_of(AggFunc::Sum, SqlType::Int, &[max.clone(), max.clone()]);
        assert_eq!(s.current(), Value::Null);
        s.slide(&max, -1);
        assert_eq!(s.current(), max);
        s.slide(&min, 1);
        s.slide(&max, -1);
        assert_eq!(s.current(), min);
        s.slide(&Value::Int(-1), 1);
        assert_eq!(s.current(), Value::Null);
        let a = state_of(
            AggFunc::Avg,
            SqlType::Int,
            &[max.clone(), max, Value::Int(10)],
        );
        assert_eq!(
            a.current(),
            Value::Double((2.0 * i64::MAX as f64 + 10.0) / 3.0)
        );
    }

    #[test]
    fn count_ignores_then_counts_nulls_properly() {
        let vals = [Value::Int(1), Value::Null];
        let c = state_of(AggFunc::Count, SqlType::Int, &vals);
        assert_eq!(c.current(), Value::Int(1));
        let cs = state_of(AggFunc::CountStar, SqlType::Int, &vals);
        assert_eq!(cs.current(), Value::Int(2));
    }

    #[test]
    fn min_max_with_removal() {
        let vals = [Value::Int(7), Value::Int(3), Value::Int(3)];
        let mut m = state_of(AggFunc::Min, SqlType::Int, &vals);
        assert_eq!(m.current(), Value::Int(3));
        m.slide(&Value::Int(3), -1);
        assert_eq!(m.current(), Value::Int(3)); // duplicate 3 still active
        m.slide(&Value::Int(3), -1);
        assert_eq!(m.current(), Value::Int(7));
        let mut m = state_of(AggFunc::Max, SqlType::Int, &vals);
        assert_eq!(m.current(), Value::Int(7));
        m.slide(&Value::Int(7), -1);
        assert_eq!(m.current(), Value::Int(3));
        m.slide(&Value::Int(3), -1);
        m.slide(&Value::Int(3), -1);
        assert_eq!(m.current(), Value::Null);
        assert!(m.extremes.is_empty(), "drained multiset holds no entry");
    }

    /// The typed accumulators: only `Min`/`Max` ever touch the multiset.
    #[test]
    fn count_sum_avg_never_allocate_a_multiset_entry() {
        let vals = [
            Value::Int(4),
            Value::Double(2.5),
            Value::Null,
            Value::Int(-1),
        ];
        for func in [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
        ] {
            let mut s = state_of(func.clone(), SqlType::Double, &vals);
            assert!(s.extremes.is_empty(), "{func} filled the multiset");
            s.slide(&vals[0], -1);
            assert!(s.extremes.is_empty(), "{func} filled the multiset");
        }
        let m = state_of(AggFunc::Min, SqlType::Double, &vals);
        assert_eq!(m.extremes.values().sum::<i64>(), 3, "one entry per value");
    }

    #[test]
    fn avg_mixed_int_double() {
        let a = state_of(
            AggFunc::Avg,
            SqlType::Double,
            &[Value::Int(1), Value::Double(2.0)],
        );
        assert_eq!(a.current(), Value::Double(1.5));
    }

    /// A `DOUBLE` sum is exact: what the active values add up to, rounded
    /// once, whatever came and went before — including the case where
    /// adding and subtracting `f64`s used to leave `0.4000000000000001`
    /// behind where the snapshot sum is `0.4`.
    #[test]
    fn double_sum_is_a_function_of_the_active_values() {
        let d = |x: f64| Value::Double(x);
        let mut s = state_of(AggFunc::Sum, SqlType::Double, &[d(0.1), d(0.2), d(0.7)]);
        assert_eq!(s.current(), d(1.0));
        s.slide(&d(0.7), -1);
        s.slide(&d(0.2), -1);
        s.slide(&d(0.3), 1);
        assert_eq!(s.current(), d(0.1 + 0.3));
        // Cancellation, magnitudes far apart, subnormals, the largest double.
        let mut s = state_of(AggFunc::Sum, SqlType::Double, &[d(1e16), d(1.0), d(-1e16)]);
        assert_eq!(s.current(), d(1.0));
        s.slide(&d(5e-324), 1);
        assert_eq!(s.current(), d(1.0));
        s.slide(&d(1.0), -1);
        assert_eq!(s.current(), d(5e-324));
        s.slide(&d(f64::MAX), 1);
        s.slide(&d(f64::MAX), 1);
        assert_eq!(s.current(), d(f64::INFINITY), "past the largest double");
        s.slide(&d(f64::MAX), -1);
        s.slide(&d(5e-324), -1);
        assert_eq!(s.current(), d(f64::MAX));
        s.slide(&d(-f64::MAX), 1);
        assert_eq!(s.current(), d(0.0));
        // Ties round to even: 2^53 + 1 is halfway between two doubles.
        let big = 9_007_199_254_740_992.0;
        let s = state_of(AggFunc::Sum, SqlType::Double, &[d(big), d(1.0)]);
        assert_eq!(s.current(), d(big));
        let s = state_of(AggFunc::Sum, SqlType::Double, &[d(big), d(1.0), d(1e-300)]);
        assert_eq!(s.current(), d(big + 2.0));
        // Zeros sum to +0.0; ±inf and NaN are counted, and leave again.
        let s = state_of(AggFunc::Sum, SqlType::Double, &[d(-0.0), d(-0.0)]);
        assert_eq!(s.current(), d(0.0));
        let mut s = state_of(AggFunc::Avg, SqlType::Double, &[d(2.0), d(f64::INFINITY)]);
        assert_eq!(s.current(), d(f64::INFINITY));
        s.slide(&d(f64::NEG_INFINITY), 1);
        assert!(matches!(s.current(), Value::Double(x) if x.is_nan()));
        s.slide(&d(f64::INFINITY), -1);
        s.slide(&d(f64::NEG_INFINITY), -1);
        s.slide(&d(f64::NAN), 1);
        assert!(matches!(s.current(), Value::Double(x) if x.is_nan()));
        s.slide(&d(f64::NAN), -1);
        assert_eq!(s.current(), d(2.0));
    }

    #[test]
    fn gap_values() {
        assert_eq!(SlidingAgg::gap_value(&AggFunc::Count), Value::Int(0));
        assert_eq!(SlidingAgg::gap_value(&AggFunc::CountStar), Value::Int(0));
        assert_eq!(SlidingAgg::gap_value(&AggFunc::Sum), Value::Null);
        assert_eq!(SlidingAgg::gap_value(&AggFunc::Avg), Value::Null);
    }
}
