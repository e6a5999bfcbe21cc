//! Bad-tree fixture: a normalisation kernel that walks its runs without
//! ever polling the statement's check.

pub fn try_coalesce_rows(rows: &mut [Row], out: &mut Vec<Row>) {
    for run in rows.chunk_by_mut(same_key) {
        out.extend(run.iter_mut().map(std::mem::take));
    }
}
