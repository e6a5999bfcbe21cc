//! Bad-tree fixture: the recovery driver is a panic-freedom zone.

pub fn replay(records: &[&str]) -> usize {
    records.iter().map(|r| r.parse::<usize>().unwrap()).sum()
}
