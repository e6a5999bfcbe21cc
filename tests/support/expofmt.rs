//! Line-format checker for the Prometheus text exposition produced by
//! `snapshot_obs::MetricsRegistry::render_text` (and dumped by the
//! shell's `.metrics`).
//!
//! Not a full parser — just enough structure to fail CI when the
//! exposition format regresses: every sample line must be
//! `name[{labels}] value`, every sampled series must belong to a
//! preceding `# TYPE` declaration (with the `_bucket`/`_sum`/`_count`
//! suffix convention for histograms), histogram buckets must be
//! cumulative in `le` order, and the `+Inf` bucket must equal `_count`.

use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Checks one exposition dump; `Err` carries the first offending line.
pub fn check_exposition(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, Kind> = HashMap::new();
    // Per-histogram bucket state: (last le bound, last cumulative count,
    // +Inf cumulative count).
    let mut buckets: HashMap<String, (f64, f64, Option<f64>)> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let fail = |msg: &str| Err(format!("line {}: {msg}: {line}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let words: Vec<&str> = rest.split_whitespace().collect();
            if words.first() == Some(&"TYPE") {
                let [_, name, kind] = words[..] else {
                    return fail("malformed # TYPE comment");
                };
                let kind = match kind {
                    "counter" => Kind::Counter,
                    "gauge" => Kind::Gauge,
                    "histogram" => Kind::Histogram,
                    _ => return fail("unknown metric kind"),
                };
                if !is_metric_name(name) {
                    return fail("invalid metric name");
                }
                types.insert(name.to_string(), kind);
            }
            continue;
        }
        // Sample line: name[{labels}] value.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line}", lineno + 1))?;
        let value: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => return fail("value is not a number"),
        };
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => match rest.strip_suffix('}') {
                Some(labels) => (n, Some(labels)),
                None => return fail("unterminated label set"),
            },
            None => (series, None),
        };
        if !is_metric_name(name) {
            return fail("invalid metric name");
        }
        // Resolve the declared family: exact name, or base + histogram
        // suffix.
        let (family, kind) = match types.get(name) {
            Some(kind) => (name.to_string(), *kind),
            None => {
                let base = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"));
                match base.and_then(|b| types.get(b).map(|k| (b.to_string(), *k))) {
                    Some((b, Kind::Histogram)) => (b, Kind::Histogram),
                    _ => return fail("sample without a preceding # TYPE"),
                }
            }
        };
        if kind == Kind::Histogram && name.ends_with("_bucket") {
            let le = parse_le(labels.unwrap_or("")).ok_or_else(|| {
                format!("line {}: _bucket without an le label: {line}", lineno + 1)
            })?;
            let entry = buckets
                .entry(family.clone())
                .or_insert((f64::MIN, 0.0, None));
            if le <= entry.0 {
                return fail("bucket bounds not increasing");
            }
            if value < entry.1 {
                return fail("bucket counts not cumulative");
            }
            *entry = (
                le,
                value,
                if le.is_infinite() {
                    Some(value)
                } else {
                    entry.2
                },
            );
        }
        if kind == Kind::Histogram && name.ends_with("_count") {
            counts.insert(family, value);
        }
    }
    for (family, (_, _, inf)) in &buckets {
        let Some(inf) = inf else {
            return Err(format!("histogram {family}: no +Inf bucket"));
        };
        match counts.get(family) {
            Some(c) if c == inf => {}
            Some(c) => {
                return Err(format!(
                    "histogram {family}: +Inf bucket {inf} != _count {c}"
                ))
            }
            None => return Err(format!("histogram {family}: no _count sample")),
        }
    }
    Ok(())
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The `le` bound from a label set like `le="0.001"` (or `le="+Inf"`).
fn parse_le(labels: &str) -> Option<f64> {
    for pair in labels.split(',') {
        let (key, value) = pair.split_once('=')?;
        if key.trim() != "le" {
            continue;
        }
        let value = value.trim().trim_matches('"');
        return if value == "+Inf" {
            Some(f64::INFINITY)
        } else {
            value.parse().ok()
        };
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_real_registry_output() {
        let reg = snapshot_obs::MetricsRegistry::new();
        reg.counter("expofmt_test_total").add(3);
        reg.gauge("expofmt_test_gauge").set(-2);
        let h = reg.histogram("expofmt_test_seconds");
        for v in [0.0001, 0.002, 0.03, 10_000.0] {
            h.observe(v);
        }
        let text = reg.render_text();
        check_exposition(&text).unwrap();
    }

    #[test]
    fn rejects_undeclared_sample() {
        let err = check_exposition("mystery_total 5\n").unwrap_err();
        assert!(err.contains("# TYPE"), "{err}");
    }

    #[test]
    fn rejects_non_numeric_value() {
        let text = "# TYPE x counter\nx five\n";
        assert!(check_exposition(text).is_err());
    }

    #[test]
    fn rejects_non_cumulative_buckets() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"0.1\"} 5\n\
                    h_bucket{le=\"1\"} 3\n\
                    h_bucket{le=\"+Inf\"} 3\n\
                    h_sum 1\nh_count 3\n";
        let err = check_exposition(text).unwrap_err();
        assert!(err.contains("cumulative"), "{err}");
    }

    #[test]
    fn rejects_inf_count_mismatch() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"0.1\"} 5\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 1\nh_count 6\n";
        let err = check_exposition(text).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
    }
}
