//! A database's metrics registry: counters, gauges, and latency histograms.
//!
//! All recording paths are lock-free (relaxed atomics); the registry's
//! `RwLock` guards only the name → metric map, which each component
//! touches once, when its database is built, to resolve the handles it
//! records into.

use crate::lock::NamedRw;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Raise the count to `v` if it is lower: for a counter that mirrors
    /// a count kept outside the program, such as the kernel's page faults.
    pub fn raise_to(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }
}

/// A signed instantaneous value (e.g. live sessions, pinned snapshots).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The default latency bucket bounds: 24 exponential buckets from 1 µs
/// doubling up to ~8.4 s, plus the implicit overflow (`+Inf`) bucket.
pub fn default_latency_bounds() -> Vec<f64> {
    (0..24).map(|i| 1e-6 * f64::from(1u32 << i)).collect()
}

/// A fixed-bucket histogram with atomic per-bucket counts.
///
/// Bounds are *upper* bounds (`value <= bound` lands in the bucket, the
/// Prometheus `le` convention); values above the last bound land in the
/// overflow bucket. The running sum is kept as CAS-updated `f64` bits, so
/// `sum()` is exact up to floating-point addition order.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Build a histogram over the given strictly increasing upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a duration, in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Upper bounds of the finite buckets.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the overflow
    /// bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket containing it. Returns `None` when empty. The
    /// overflow bucket has no upper bound, so quantiles falling there
    /// report the largest finite bound (the Prometheus convention).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if cum >= target {
                if i >= self.bounds.len() {
                    return Some(self.bounds[self.bounds.len() - 1]);
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let frac = if c == 0 {
                    1.0
                } else {
                    (target - prev) as f64 / c as f64
                };
                return Some(lower + (upper - lower) * frac);
            }
        }
        None
    }

    /// The (p50, p95, p99) latency estimates; `None` when empty.
    pub fn percentiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
        ))
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// A constant `1`-valued sample whose information lives in its labels
    /// (the Prometheus `build_info` idiom). Set once.
    Info(Arc<Vec<(String, String)>>),
}

/// A point-in-time reading of one registered metric, as produced by
/// [`MetricsRegistry::snapshot`] for introspection surfaces (the
/// `snapshot_stat_metrics` virtual table, primarily). Fields that do not
/// apply to the metric's kind are `None`.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Registered metric name.
    pub name: String,
    /// `"counter"`, `"gauge"`, `"histogram"`, or `"info"`.
    pub kind: &'static str,
    /// Counter/gauge current value (`1` for info metrics).
    pub value: Option<f64>,
    /// Histogram observation count.
    pub count: Option<u64>,
    /// Histogram observation sum.
    pub sum: Option<f64>,
    /// Histogram p50 estimate (when non-empty).
    pub p50: Option<f64>,
    /// Histogram p95 estimate (when non-empty).
    pub p95: Option<f64>,
    /// Histogram p99 estimate (when non-empty).
    pub p99: Option<f64>,
}

/// A named collection of metrics with Prometheus text exposition.
///
/// Registration is get-or-create by name; re-registering a name with a
/// different metric kind panics (a programming error, not a runtime
/// condition — names are `&'static str` at every call site).
#[derive(Debug)]
pub struct MetricsRegistry {
    metrics: NamedRw<BTreeMap<String, Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry (every [`crate::Obs`] owns one).
    pub fn new() -> Self {
        let _ = process_start(); // pin the uptime epoch at first telemetry
        MetricsRegistry {
            metrics: NamedRw::new("obs.metrics", BTreeMap::new()),
        }
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Metric::Counter(c)) = self.metrics.read().get(name) {
            return Arc::clone(c);
        }
        let mut map = self.metrics.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Metric::Gauge(g)) = self.metrics.read().get(name) {
            return Arc::clone(g);
        }
        let mut map = self.metrics.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name` with the default latency buckets.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &default_latency_bounds())
    }

    /// Get or create the histogram `name` with explicit bucket bounds
    /// (ignored if the histogram already exists).
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if let Some(Metric::Histogram(h)) = self.metrics.read().get(name) {
            return Arc::clone(h);
        }
        let mut map = self.metrics.write();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds.to_vec()))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Register the info metric `name` carrying `labels` (first writer
    /// wins; re-registering is a no-op, so callers can refresh freely).
    pub fn info(&self, name: &str, labels: &[(&str, &str)]) {
        let mut map = self.metrics.write();
        map.entry(name.to_string()).or_insert_with(|| {
            Metric::Info(Arc::new(
                labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            ))
        });
    }

    /// Look up an existing counter without creating it.
    pub fn get_counter(&self, name: &str) -> Option<Arc<Counter>> {
        match self.metrics.read().get(name) {
            Some(Metric::Counter(c)) => Some(Arc::clone(c)),
            _ => None,
        }
    }

    /// Read every registered metric into a flat, name-sorted sample list.
    /// Histograms report count/sum and p50/p95/p99 estimates instead of
    /// raw buckets — the shape the `snapshot_stat_metrics` virtual table
    /// exposes.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let empty = MetricSample {
            name: String::new(),
            kind: "",
            value: None,
            count: None,
            sum: None,
            p50: None,
            p95: None,
            p99: None,
        };
        self.metrics
            .read()
            .iter()
            .map(|(name, metric)| {
                let mut s = MetricSample {
                    name: name.clone(),
                    ..empty.clone()
                };
                match metric {
                    Metric::Counter(c) => {
                        s.kind = "counter";
                        s.value = Some(c.get() as f64);
                    }
                    Metric::Gauge(g) => {
                        s.kind = "gauge";
                        s.value = Some(g.get() as f64);
                    }
                    Metric::Histogram(h) => {
                        s.kind = "histogram";
                        s.count = Some(h.count());
                        s.sum = Some(h.sum());
                        if let Some((p50, p95, p99)) = h.percentiles() {
                            s.p50 = Some(p50);
                            s.p95 = Some(p95);
                            s.p99 = Some(p99);
                        }
                    }
                    Metric::Info(_) => {
                        s.kind = "info";
                        s.value = Some(1.0);
                    }
                }
                s
            })
            .collect()
    }

    /// Refresh the process-level metrics: the `snapshot_build_info` info
    /// gauge (crate version + build profile in its labels), the
    /// `snapshot_uptime_seconds` gauge and, on Linux, the process's minor
    /// page faults (`snapshot_minor_faults_total`) and peak resident set
    /// (`snapshot_peak_rss_bytes`). Render points (the shell's `.metrics`,
    /// the stat virtual tables) call this just before reading so the
    /// exposition is current.
    pub fn refresh_process_metrics(&self) {
        self.info(
            "snapshot_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                (
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                ),
            ],
        );
        self.gauge("snapshot_uptime_seconds")
            .set(process_start().elapsed().as_secs() as i64);
        #[cfg(target_os = "linux")]
        {
            if let Some(faults) = minor_faults() {
                self.counter("snapshot_minor_faults_total").raise_to(faults);
            }
            if let Some(bytes) = peak_rss_bytes() {
                self.gauge("snapshot_peak_rss_bytes").set(bytes);
            }
        }
    }

    /// Render every metric in Prometheus text exposition format: a
    /// `# TYPE` comment per family, plain `name value` samples for
    /// counters/gauges, and cumulative `_bucket{le="…"}`/`_sum`/`_count`
    /// samples for histograms.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.metrics.read().iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, &c) in counts.iter().enumerate() {
                        cum += c;
                        if i < h.bounds().len() {
                            let _ =
                                writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", h.bounds()[i]);
                        } else {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    // The bucket total just read, not a second load of the
                    // count: an observation landing mid-render must not make
                    // `_count` disagree with the `+Inf` bucket.
                    let _ = writeln!(out, "{name}_count {cum}");
                }
                Metric::Info(labels) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let rendered: Vec<String> =
                        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                    let _ = writeln!(out, "{name}{{{}}} 1", rendered.join(","));
                }
            }
        }
        out
    }
}

/// The process's observability epoch: the instant the first registry (or
/// this function) was touched. The base of `snapshot_uptime_seconds` and
/// of every activity timestamp.
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// This process's minor page faults so far: field 10 of `/proc/self/stat`.
#[cfg(target_os = "linux")]
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, may hold spaces: count from its `)`.
    let after_comm = stat.get(stat.rfind(')')? + 2..)?;
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

/// This process's peak resident set in bytes: `VmHWM` (in KiB) in
/// `/proc/self/status`.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: i64 = kib.trim().strip_suffix("kB")?.trim().parse().ok()?;
    kib.checked_mul(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("c_total").get(), 5, "get-or-create reuses");
        let g = reg.gauge("g");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_boundary_values_land_in_le_bucket() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        h.observe(1.0); // exactly on a bound: le semantics -> first bucket
        h.observe(1.000001);
        h.observe(2.0);
        h.observe(0.0);
        assert_eq!(h.bucket_counts(), vec![2, 2, 0, 0]);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::new(vec![1.0, 2.0]);
        h.observe(2.5);
        h.observe(1e9);
        assert_eq!(h.bucket_counts(), vec![0, 0, 2]);
        assert_eq!(h.count(), 2);
        // Quantiles in the overflow bucket report the largest finite bound.
        assert_eq!(h.quantile(0.99), Some(2.0));
    }

    #[test]
    fn histogram_quantile_extraction() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0, 8.0]);
        // 10 observations in (1, 2], 10 in (2, 4].
        for _ in 0..10 {
            h.observe(1.5);
        }
        for _ in 0..10 {
            h.observe(3.0);
        }
        // p50 = rank 10 = last of the first bucket -> its upper bound.
        assert_eq!(h.quantile(0.5), Some(2.0));
        // p100 -> upper bound of the second bucket.
        assert_eq!(h.quantile(1.0), Some(4.0));
        // p75 = rank 15 = halfway through the (2, 4] bucket.
        assert_eq!(h.quantile(0.75), Some(3.0));
        let (p50, p95, p99) = h.percentiles().unwrap();
        assert_eq!(p50, 2.0);
        assert!(p95 > 3.0 && p95 <= 4.0);
        assert!(p99 > p95 - 1e9 && p99 <= 4.0);
    }

    #[test]
    fn histogram_empty_quantile_is_none() {
        let h = Histogram::new(vec![1.0]);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.percentiles().is_none());
    }

    #[test]
    fn histogram_sum_and_duration() {
        let h = Histogram::new(vec![1.0]);
        h.observe(0.25);
        h.observe_duration(Duration::from_millis(250));
        assert!((h.sum() - 0.5).abs() < 1e-12);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn default_bounds_are_strictly_increasing() {
        let b = default_latency_bounds();
        assert_eq!(b.len(), 24);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!((b[0] - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn render_text_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total").add(3);
        reg.gauge("b").set(-2);
        let h = reg.histogram_with("lat_seconds", &[0.001, 0.01]);
        h.observe(0.0005);
        h.observe(0.5);
        let text = reg.render_text();
        assert!(text.contains("# TYPE a_total counter\na_total 3\n"));
        assert!(text.contains("# TYPE b gauge\nb -2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_count 2"));
    }

    #[test]
    fn info_metric_renders_labels_and_keeps_the_first() {
        let reg = MetricsRegistry::new();
        reg.info(
            "demo_build_info",
            &[("version", "1.2.3"), ("profile", "release")],
        );
        reg.info("demo_build_info", &[("version", "9.9.9")]); // no-op
        let text = reg.render_text();
        assert!(text.contains("# TYPE demo_build_info gauge"));
        assert!(text.contains("demo_build_info{version=\"1.2.3\",profile=\"release\"} 1"));
    }

    #[test]
    fn snapshot_reads_every_kind() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total").add(3);
        reg.gauge("b").set(-2);
        reg.histogram_with("lat_seconds", &[0.001, 0.01])
            .observe(0.0005);
        reg.info("c_info", &[("k", "v")]);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 4);
        let find = |n: &str| snap.iter().find(|s| s.name == n).unwrap();
        assert_eq!(find("a_total").kind, "counter");
        assert_eq!(find("a_total").value, Some(3.0));
        assert_eq!(find("b").value, Some(-2.0));
        let h = find("lat_seconds");
        assert_eq!(h.kind, "histogram");
        assert_eq!(h.count, Some(1));
        assert!(h.p95.is_some());
        assert!(h.value.is_none());
        assert_eq!(find("c_info").value, Some(1.0));
    }

    #[test]
    fn process_metrics_refresh_into_the_registry() {
        let reg = MetricsRegistry::new();
        reg.refresh_process_metrics();
        let text = reg.render_text();
        assert!(text.contains("snapshot_build_info{version=\""));
        assert!(text.contains("# TYPE snapshot_uptime_seconds gauge"));
        assert!(reg.gauge("snapshot_uptime_seconds").get() >= 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn process_metrics_read_page_faults_and_peak_rss_on_linux() {
        let reg = MetricsRegistry::new();
        reg.refresh_process_metrics();
        let text = reg.render_text();
        assert!(text.contains("# TYPE snapshot_minor_faults_total counter"));
        assert!(text.contains("# TYPE snapshot_peak_rss_bytes gauge"));
        let faults = reg.counter("snapshot_minor_faults_total").get();
        assert!(faults > 0);
        assert!(reg.gauge("snapshot_peak_rss_bytes").get() > 0);
        // A refresh never lowers the counter.
        reg.refresh_process_metrics();
        assert!(reg.counter("snapshot_minor_faults_total").get() >= faults);
    }

    #[test]
    fn raise_to_only_raises() {
        let c = Counter::default();
        c.raise_to(5);
        c.raise_to(3);
        assert_eq!(c.get(), 5);
    }
}
