//! Sliding aggregate state supporting add *and remove*.
//!
//! The fused temporal aggregation of Section 9 sweeps the time axis,
//! maintaining the aggregate over the rows active at the sweep position.
//! The state is typed by its function: `count`/`sum`/`avg` are plain
//! integer/float arithmetic and subtract directly; only `min`/`max` keep a
//! value multiset, so arbitrary removal stays `O(log n)` for them and costs
//! nothing for everyone else.

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
    /// Wrapping: a sum that leaves `i64` while a large row is active comes
    /// back exactly once that row is removed.
    sum_int: i64,
    sum_double: f64,
    /// Multiset of the active non-NULL values — touched by `Min`/`Max`
    /// only, which read its first / last key.
    extremes: BTreeMap<Value, u64>,
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
            sum_double: 0.0,
            extremes: BTreeMap::new(),
        }
    }

    /// Adds one row's argument value (possibly NULL; `count(*)` passes any
    /// non-NULL value) to the active set.
    pub fn add(&mut self, v: &Value) {
        self.rows += 1;
        if v.is_null() {
            return;
        }
        self.non_null += 1;
        match (&self.func, v) {
            (AggFunc::Min | AggFunc::Max, _) => {
                *self.extremes.entry(v.clone()).or_insert(0) += 1;
            }
            (AggFunc::Sum | AggFunc::Avg, Value::Int(i)) => {
                self.sum_int = self.sum_int.wrapping_add(*i)
            }
            (AggFunc::Sum | AggFunc::Avg, Value::Double(d)) => self.sum_double += d,
            _ => {}
        }
    }

    /// Removes a previously added value.
    pub fn remove(&mut self, v: &Value) {
        self.rows -= 1;
        if v.is_null() {
            return;
        }
        self.non_null -= 1;
        match (&self.func, v) {
            (AggFunc::Min | AggFunc::Max, _) => {
                if let Some(c) = self.extremes.get_mut(v) {
                    *c -= 1;
                    if *c == 0 {
                        self.extremes.remove(v);
                    }
                }
            }
            (AggFunc::Sum | AggFunc::Avg, Value::Int(i)) => {
                self.sum_int = self.sum_int.wrapping_sub(*i)
            }
            (AggFunc::Sum | AggFunc::Avg, Value::Double(d)) => self.sum_double -= d,
            _ => {}
        }
    }

    /// The current aggregate value (SQL semantics: empty/all-NULL input
    /// yields NULL, except `count`, which yields 0).
    pub fn current(&self) -> Value {
        match self.func {
            AggFunc::CountStar => Value::Int(self.rows),
            AggFunc::Count => Value::Int(self.non_null),
            AggFunc::Sum => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.arg_type == SqlType::Double {
                    Value::Double(self.sum_double)
                } else {
                    Value::Int(self.sum_int)
                }
            }
            AggFunc::Avg => {
                if self.non_null == 0 {
                    Value::Null
                } else {
                    let total = self.sum_double + self.sum_int as f64;
                    Value::Double(total / self.non_null as f64)
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn state_of(func: AggFunc, ty: SqlType, vals: &[Value]) -> SlidingAgg {
        let mut s = SlidingAgg::new(func, ty);
        for v in vals {
            s.add(v);
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
        s.remove(&Value::Int(10));
        s.remove(&Value::Int(20));
        assert_eq!(s.current(), Value::Int(5));
        s.remove(&Value::Int(5));
        assert_eq!(s.current(), Value::Null); // sum of empty = NULL
    }

    /// A sum that leaves `i64` wraps instead of panicking, and is exact
    /// again once the rows that pushed it out are gone.
    #[test]
    fn int_sum_wraps_and_comes_back() {
        let big = Value::Int(i64::MAX);
        let mut s = state_of(AggFunc::Sum, SqlType::Int, &[big.clone(), big.clone()]);
        assert_eq!(s.current(), Value::Int(-2));
        s.remove(&big);
        assert_eq!(s.current(), big);
        s.add(&Value::Int(i64::MIN));
        s.remove(&big);
        assert_eq!(s.current(), Value::Int(i64::MIN));
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
        m.remove(&Value::Int(3));
        assert_eq!(m.current(), Value::Int(3)); // duplicate 3 still active
        m.remove(&Value::Int(3));
        assert_eq!(m.current(), Value::Int(7));
        let mut m = state_of(AggFunc::Max, SqlType::Int, &vals);
        assert_eq!(m.current(), Value::Int(7));
        m.remove(&Value::Int(7));
        assert_eq!(m.current(), Value::Int(3));
        m.remove(&Value::Int(3));
        m.remove(&Value::Int(3));
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
            s.remove(&vals[0]);
            assert!(s.extremes.is_empty(), "{func} filled the multiset");
        }
        let m = state_of(AggFunc::Min, SqlType::Double, &vals);
        assert_eq!(m.extremes.values().sum::<u64>(), 3, "one entry per value");
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

    #[test]
    fn gap_values() {
        assert_eq!(SlidingAgg::gap_value(&AggFunc::Count), Value::Int(0));
        assert_eq!(SlidingAgg::gap_value(&AggFunc::CountStar), Value::Int(0));
        assert_eq!(SlidingAgg::gap_value(&AggFunc::Sum), Value::Null);
        assert_eq!(SlidingAgg::gap_value(&AggFunc::Avg), Value::Null);
    }
}
