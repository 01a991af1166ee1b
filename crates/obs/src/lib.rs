//! Lock-free metrics for the TQ serving stack.
//!
//! Every layer of the stack (eval kernels → engine → writer funnel →
//! store/WAL → shards → network → replication) records into one global
//! registry of **counters**, **gauges** and **latency histograms**. The
//! design goals, in order:
//!
//! 1. **Never perturb the answer path.** Nothing in this crate touches a
//!    floating-point number on the write side: histograms bucket integer
//!    nanoseconds, percentiles are read out by an integer bucket walk,
//!    and the exact maximum is kept with `fetch_max`. The bit-identical
//!    canonical-summation invariant of the query engine cannot be
//!    affected by observing it.
//! 2. **Effectively free when hot.** Recording is a handful of `Relaxed`
//!    atomic adds on cache-resident counters — no locks, no allocation,
//!    no syscalls. Registration (the only locked path) happens once per
//!    call site and is cached in a `OnceLock`.
//! 3. **Zero when idle.** No background threads, no timers; an idle
//!    process pays nothing.
//!
//! Reading is a point-in-time [`snapshot`] of the whole registry,
//! rendered as stable Prometheus-style `name{label} value` text by
//! [`MetricsSnapshot::render`]. Queries (or write batches) slower than a
//! configurable threshold additionally land in a fixed-capacity
//! [slow-query ring log](record_slow) that retains their full `Explain`
//! rendering.
//!
//! A global [`set_enabled`] switch exists for A/B overhead measurement
//! (the `obs_overhead` bench gates instrumentation at <2%); production
//! builds leave it on.

#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables recording. Exists so the `obs_overhead`
/// bench can measure the instrumented stack against a true
/// uninstrumented baseline; everything defaults to enabled. Reads
/// ([`snapshot`]) are unaffected.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether recording is currently enabled. Call sites doing non-trivial
/// work to *build* an observation (label formatting, clock reads beyond
/// what they need anyway) should check this first and skip entirely.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Converts a [`Duration`] to saturating whole nanoseconds.
#[inline]
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Counter & gauge
// ---------------------------------------------------------------------------

/// A monotonically increasing event count. All operations are `Relaxed`
/// atomics — a statistic, not a synchronization point.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A point-in-time level (queue depth, open connections, replication
/// positions). Unsigned: pair every [`Gauge::dec`] with an earlier
/// [`Gauge::inc`].
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Raises the level by one.
    #[inline]
    pub fn inc(&self) {
        if enabled() {
            self.value.fetch_add(1, Relaxed);
        }
    }

    /// Lowers the level by one, saturating at zero. Not gated on
    /// [`enabled`] so a pair whose [`Gauge::inc`] recorded before
    /// recording was disabled still balances (and one whose inc was
    /// skipped saturates instead of wrapping).
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .value
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Sets the level outright (replication positions, sizes).
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Relaxed);
        }
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two: 16, giving a worst-case relative
/// resolution of 1/16 (6.25%) on percentile readout. The maximum is
/// tracked exactly and separately.
const SUB: usize = 16;
const SUB_BITS: u32 = 4;
/// Bucket count covering the full `u64` nanosecond range: 16 linear
/// buckets for values below 16, then 16 sub-buckets for each of the 60
/// remaining octaves.
const NUM_BUCKETS: usize = SUB + (63 - SUB_BITS as usize) * SUB + SUB;

/// Maps a value to its bucket. Monotonic; values below [`SUB`] map
/// exactly, larger values share a bucket with at most 1/16 relative
/// spread.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // >= SUB_BITS
        let sub = ((v >> (exp - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
        (exp - SUB_BITS as usize) * SUB + SUB + sub
    }
}

/// The smallest value mapping to `idx` — the inverse of
/// [`bucket_index`], used for percentile readout.
fn bucket_floor(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let octave = (idx - SUB) / SUB;
        let sub = ((idx - SUB) % SUB) as u64;
        (SUB as u64 + sub) << octave
    }
}

/// A lock-free log-linear latency histogram over integer nanoseconds.
///
/// Recording is four `Relaxed` atomic RMWs (bucket, count, sum, max);
/// readout walks the buckets with integer arithmetic only. Percentiles
/// come back as the lower bound of the bucket holding the requested
/// rank — deterministic integers within 6.25% of the true order
/// statistic — while [`Histogram::max_ns`] is exact.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        // `AtomicU64` is not `Copy`; build the array through a Vec.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets = v.into_boxed_slice().try_into().unwrap_or_else(|_| unreachable!());
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(ns)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(ns, Relaxed);
        self.max.fetch_max(ns, Relaxed);
    }

    /// Records one observation of a [`Duration`].
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(duration_ns(d));
    }

    /// Starts a span that records its elapsed time into this histogram
    /// when dropped (or explicitly via [`Span::finish_ns`]).
    pub fn span(&self) -> Span<'_> {
        Span { hist: self, start: Instant::now() }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all recorded nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// The exact largest recorded value, or 0 when empty.
    pub fn max_ns(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// The value at quantile `num/den` (e.g. 95/100): the lower bound of
    /// the bucket holding that rank, clamped to the exact max. 0 when
    /// empty.
    pub fn quantile_ns(&self, num: u64, den: u64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Ceiling rank in 1..=count; integer arithmetic throughout.
        let rank = ((count.saturating_mul(num)).div_ceil(den)).clamp(1, count);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= rank {
                return bucket_floor(idx).min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Median (bucket-resolution, see [`Histogram::quantile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(50, 100)
    }

    /// 95th percentile (bucket-resolution).
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(95, 100)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(99, 100)
    }
}

/// An in-flight timing: created by [`Histogram::span`], records elapsed
/// nanoseconds into its histogram when dropped.
pub struct Span<'h> {
    hist: &'h Histogram,
    start: Instant,
}

impl Span<'_> {
    /// Ends the span now, records it, and returns the elapsed
    /// nanoseconds (recorded exactly once).
    pub fn finish_ns(self) -> u64 {
        let ns = duration_ns(self.start.elapsed());
        self.hist.record_ns(ns);
        std::mem::forget(self);
        ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record_ns(duration_ns(self.start.elapsed()));
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

type Key = (String, String); // (name, labels)

struct Registry {
    counters: Mutex<BTreeMap<Key, &'static Counter>>,
    gauges: Mutex<BTreeMap<Key, &'static Gauge>>,
    histograms: Mutex<BTreeMap<Key, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn intern<T: Default + 'static>(
    map: &Mutex<BTreeMap<Key, &'static T>>,
    name: &str,
    labels: &str,
) -> &'static T {
    let mut map = lock(map);
    if let Some(v) = map.get(&(name.to_string(), labels.to_string())) {
        return v;
    }
    let v: &'static T = Box::leak(Box::default());
    map.insert((name.to_string(), labels.to_string()), v);
    v
}

/// Returns the registry's counter named `name` with the given label set
/// (the text inside the braces, e.g. `backend="tq-tree"`, empty for
/// none), registering it on first use. Handles are `'static` — cache
/// them in a `OnceLock` at hot call sites so steady-state recording
/// never touches the registry lock.
pub fn counter(name: &str, labels: &str) -> &'static Counter {
    intern(&registry().counters, name, labels)
}

/// Returns the registry's gauge for `(name, labels)` — see [`counter`].
pub fn gauge(name: &str, labels: &str) -> &'static Gauge {
    intern(&registry().gauges, name, labels)
}

/// Returns the registry's histogram for `(name, labels)` — see
/// [`counter`].
pub fn histogram(name: &str, labels: &str) -> &'static Histogram {
    intern(&registry().histograms, name, labels)
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// How many slow-query entries the ring retains (newest win).
pub const SLOW_LOG_CAPACITY: usize = 64;

/// The default slow-query threshold: one second.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 1_000_000_000;

static SLOW_THRESHOLD_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS);

fn slow_log() -> &'static Mutex<VecDeque<SlowEntry>> {
    static LOG: OnceLock<Mutex<VecDeque<SlowEntry>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)))
}

/// One retained slow operation: its wall time and the full rendering
/// (typically an `Explain`) captured when it crossed the threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// Total wall nanoseconds of the offending operation.
    pub nanos: u64,
    /// The operation's own rendering — for queries, the full `Explain`.
    pub detail: String,
}

/// Sets the slow-query threshold in nanoseconds. `u64::MAX` disables
/// the log; 0 retains everything (tests).
pub fn set_slow_threshold_ns(ns: u64) {
    SLOW_THRESHOLD_NS.store(ns, Relaxed);
}

/// The current slow-query threshold in nanoseconds.
pub fn slow_threshold_ns() -> u64 {
    SLOW_THRESHOLD_NS.load(Relaxed)
}

/// Offers an operation to the slow log. The detail closure runs — and
/// allocates — only when `nanos` meets the threshold, so the fast path
/// costs one `Relaxed` load and a compare.
#[inline]
pub fn record_slow(nanos: u64, detail: impl FnOnce() -> String) {
    if nanos < slow_threshold_ns() || !enabled() {
        return;
    }
    let entry = SlowEntry { nanos, detail: detail() };
    let mut log = lock(slow_log());
    if log.len() == SLOW_LOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(entry);
}

/// The retained slow-log entries, oldest first.
pub fn slow_entries() -> Vec<SlowEntry> {
    lock(slow_log()).iter().cloned().collect()
}

// ---------------------------------------------------------------------------
// Snapshot & rendering
// ---------------------------------------------------------------------------

/// One counter or gauge reading inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label set (the text inside the braces; empty for none).
    pub labels: String,
    /// Current value.
    pub value: u64,
}

/// One histogram reading inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Label set (the text inside the braces; empty for none).
    pub labels: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded nanoseconds.
    pub sum_ns: u64,
    /// Median, bucket resolution.
    pub p50_ns: u64,
    /// 95th percentile, bucket resolution.
    pub p95_ns: u64,
    /// 99th percentile, bucket resolution.
    pub p99_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

/// A point-in-time copy of every registered metric, sorted by
/// `(name, labels)`, plus the current slow-log contents.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<Sample>,
    /// All gauges.
    pub gauges: Vec<Sample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
    /// The slow-query log, oldest first.
    pub slow: Vec<SlowEntry>,
}

/// Captures the current value of every registered metric. Values are
/// read `Relaxed`, so concurrent recording may be torn *across* metrics
/// (never within one) — fine for monitoring, and delta-consistent once
/// writers quiesce.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = lock(&reg.counters)
        .iter()
        .map(|((name, labels), c)| Sample {
            name: name.clone(),
            labels: labels.clone(),
            value: c.get(),
        })
        .collect();
    let gauges = lock(&reg.gauges)
        .iter()
        .map(|((name, labels), g)| Sample {
            name: name.clone(),
            labels: labels.clone(),
            value: g.get(),
        })
        .collect();
    let histograms = lock(&reg.histograms)
        .iter()
        .map(|((name, labels), h)| HistogramSample {
            name: name.clone(),
            labels: labels.clone(),
            count: h.count(),
            sum_ns: h.sum_ns(),
            p50_ns: h.p50_ns(),
            p95_ns: h.p95_ns(),
            p99_ns: h.p99_ns(),
            max_ns: h.max_ns(),
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
        slow: slow_entries(),
    }
}

fn line(out: &mut String, name: &str, labels: &str, suffix: &str, extra: &str, value: u64) {
    out.push_str(name);
    out.push_str(suffix);
    match (labels.is_empty(), extra.is_empty()) {
        (true, true) => {}
        (false, true) => {
            out.push('{');
            out.push_str(labels);
            out.push('}');
        }
        (true, false) => {
            out.push('{');
            out.push_str(extra);
            out.push('}');
        }
        (false, false) => {
            out.push('{');
            out.push_str(labels);
            out.push(',');
            out.push_str(extra);
            out.push('}');
        }
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

impl MetricsSnapshot {
    /// Renders the snapshot as stable Prometheus-style text: one
    /// `name{labels} value` line per counter and gauge, the summary
    /// convention (`_count`, `_sum`, `{quantile="…"}`, `_max`) per
    /// histogram, and `# slow-query` comment lines for the slow log.
    /// Sorted by name, deterministic for a quiesced registry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            line(&mut out, &c.name, &c.labels, "", "", c.value);
        }
        for g in &self.gauges {
            line(&mut out, &g.name, &g.labels, "", "", g.value);
        }
        for h in &self.histograms {
            line(&mut out, &h.name, &h.labels, "_count", "", h.count);
            line(&mut out, &h.name, &h.labels, "_sum", "", h.sum_ns);
            line(&mut out, &h.name, &h.labels, "", "quantile=\"0.5\"", h.p50_ns);
            line(&mut out, &h.name, &h.labels, "", "quantile=\"0.95\"", h.p95_ns);
            line(&mut out, &h.name, &h.labels, "", "quantile=\"0.99\"", h.p99_ns);
            line(&mut out, &h.name, &h.labels, "_max", "", h.max_ns);
        }
        for s in &self.slow {
            out.push_str("# slow-query ");
            out.push_str(&s.nanos.to_string());
            out.push_str("ns: ");
            out.push_str(&s.detail.replace('\n', " | "));
            out.push('\n');
        }
        out
    }

    /// The value of counter `(name, labels)`, 0 when absent.
    pub fn counter(&self, name: &str, labels: &str) -> u64 {
        self.counters
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map_or(0, |s| s.value)
    }

    /// The summed value of every counter named `name`, across labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    }

    /// The value of gauge `(name, labels)`, `None` when absent.
    pub fn gauge(&self, name: &str, labels: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| s.value)
    }

    /// The histogram sample for `(name, labels)`, `None` when absent.
    pub fn histogram(&self, name: &str, labels: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|s| s.name == name && s.labels == labels)
    }

    /// The summed observation count of every histogram named `name`.
    pub fn histogram_count_total(&self, name: &str) -> u64 {
        self.histograms.iter().filter(|s| s.name == name).map(|s| s.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and the enable switch are process-global; tests that
    /// toggle or delta them serialize here.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bucket_index_is_monotonic_and_floor_inverts_it() {
        let mut prev = 0usize;
        let mut samples: Vec<u64> = (0..200).collect();
        for shift in 4..63 {
            samples.push((1u64 << shift) - 1);
            samples.push(1u64 << shift);
            samples.push((1u64 << shift) + 1);
            samples.push((1u64 << shift) * 3 / 2);
        }
        samples.push(u64::MAX);
        samples.sort_unstable();
        for v in samples {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket_index not monotonic at {v}");
            assert!(idx < NUM_BUCKETS);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            if idx + 1 < NUM_BUCKETS {
                assert!(bucket_floor(idx + 1) > v, "value {v} beyond bucket {idx}");
            }
            prev = idx;
        }
        // Relative resolution: the next bucket starts within 1/16 above.
        for v in [100u64, 10_000, 1_000_000, 123_456_789] {
            let idx = bucket_index(v);
            let width = bucket_floor(idx + 1) - bucket_floor(idx);
            assert!(width * 16 <= bucket_floor(idx).max(1) * 2, "bucket too wide at {v}");
        }
    }

    #[test]
    fn histogram_percentiles_are_integer_and_ordered() {
        let _g = test_lock();
        let h = Histogram::default();
        for ns in 1..=1000u64 {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum_ns(), 500_500);
        assert_eq!(h.max_ns(), 1000);
        let (p50, p95, p99) = (h.p50_ns(), h.p95_ns(), h.p99_ns());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max_ns());
        // Bucket resolution: within 1/16 below the true order statistic.
        assert!((469..=500).contains(&p50), "p50 {p50}");
        assert!((891..=950).contains(&p95), "p95 {p95}");
        assert!((929..=990).contains(&p99), "p99 {p99}");
        // Exact in the linear range.
        let lin = Histogram::default();
        for ns in [3u64, 3, 3, 9] {
            lin.record_ns(ns);
        }
        assert_eq!(lin.p50_ns(), 3);
        assert_eq!(lin.max_ns(), 9);
        assert_eq!(lin.quantile_ns(100, 100), 9);
        // Empty reads as zero.
        assert_eq!(Histogram::default().p99_ns(), 0);
    }

    #[test]
    fn registry_dedups_and_snapshot_is_sorted() {
        let _g = test_lock();
        let a = counter("test_dedup_total", "k=\"1\"");
        let b = counter("test_dedup_total", "k=\"1\"");
        assert!(std::ptr::eq(a, b), "same (name, labels) must intern to one counter");
        let c = counter("test_dedup_total", "k=\"2\"");
        assert!(!std::ptr::eq(a, c));
        a.add(2);
        c.incr();
        gauge("test_dedup_level", "").set(7);
        histogram("test_dedup_ns", "").record_ns(40);

        let snap = snapshot();
        assert_eq!(snap.counter("test_dedup_total", "k=\"1\""), 2);
        assert_eq!(snap.counter_total("test_dedup_total"), 3);
        assert_eq!(snap.gauge("test_dedup_level", ""), Some(7));
        assert_eq!(snap.histogram("test_dedup_ns", "").unwrap().count, 1);
        let names: Vec<&String> = snap.counters.iter().map(|s| &s.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot not sorted by name");

        let text = snap.render();
        assert!(text.contains("test_dedup_total{k=\"1\"} 2\n"));
        assert!(text.contains("test_dedup_level 7\n"));
        assert!(text.contains("test_dedup_ns_count 1\n"));
        assert!(text.contains("test_dedup_ns{quantile=\"0.99\"} "));
        assert!(text.contains("test_dedup_ns_max 40\n"));
    }

    #[test]
    fn disabling_stops_recording_everywhere() {
        let _g = test_lock();
        let c = counter("test_disable_total", "");
        let h = histogram("test_disable_ns", "");
        let g = gauge("test_disable_level", "");
        let (c0, h0, g0) = (c.get(), h.count(), g.get());
        set_enabled(false);
        c.incr();
        h.record_ns(123);
        g.inc();
        record_slow(u64::MAX, || unreachable!("slow log must not run disabled"));
        set_enabled(true);
        assert_eq!(c.get(), c0);
        assert_eq!(h.count(), h0);
        assert_eq!(g.get(), g0);
        c.incr();
        assert_eq!(c.get(), c0 + 1);
    }

    #[test]
    fn slow_log_is_thresholded_lazy_and_ring_bounded() {
        let _g = test_lock();
        let before = slow_threshold_ns();
        set_slow_threshold_ns(1000);
        record_slow(999, || unreachable!("below threshold must not render"));
        let base = slow_entries().len();
        for i in 0..(SLOW_LOG_CAPACITY as u64 + 10) {
            record_slow(1000 + i, || format!("op {i}"));
        }
        let entries = slow_entries();
        assert_eq!(entries.len(), SLOW_LOG_CAPACITY, "ring must cap (had {base} before)");
        assert_eq!(entries.last().unwrap().detail, format!("op {}", SLOW_LOG_CAPACITY + 9));
        let rendered = snapshot().render();
        assert!(rendered.contains("# slow-query "));
        set_slow_threshold_ns(before);
    }

    #[test]
    fn spans_record_once() {
        let _g = test_lock();
        let h = histogram("test_span_ns", "");
        let n0 = h.count();
        {
            let _s = h.span();
        }
        assert_eq!(h.count(), n0 + 1);
        let ns = h.span().finish_ns();
        assert_eq!(h.count(), n0 + 2);
        assert!(h.max_ns() >= ns.min(h.max_ns()));
    }
}
