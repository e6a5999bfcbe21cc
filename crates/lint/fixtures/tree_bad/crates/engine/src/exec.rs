//! Bad-tree fixture: loops that never poll the token.

pub fn scan(rows: &[u32]) -> u64 {
    let mut sum = 0;
    for &r in rows {
        sum += u64::from(r);
    }
    sum
}

pub fn sweep_all(batches: &[Batch]) {
    for b in batches {
        sweep_join_presorted(&b.l, &b.r, (0, 1), (0, 1), |_, _| {});
    }
}
