// Known-bad: a lock guard stays live across a probe-side call.

pub fn probe_under_guard(table: &Lock, join: &Prepared, q: &Query) {
    let guard = table.lock();
    join.query(q);
    drop(guard);
}

// Known-bad: the same, across the direct probe routine of the prepared
// families.

pub fn scan_under_guard(cumulative: &Lock, rows: &[&[f64]], metrics: &mut Metrics) {
    let totals = cumulative.lock();
    probe_rows(rows.len(), 1, metrics, new_scan, scan_row);
    drop(totals);
}
