//! Quantiles, the run's phase clock, and the JSON lines the benchmark
//! prints.

use std::time::{Duration, Instant};

/// Warm-up then measured phase, on one clock shared by every generator
/// thread.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// When the measured phase starts.
    pub measure_from: Instant,
    /// When the measured phase ends (no new frame is sent after it).
    pub end: Instant,
}

impl Phase {
    /// A phase starting now.
    pub fn new(warmup: Duration, measure: Duration) -> Self {
        let start = Instant::now();
        Self { measure_from: start + warmup, end: start + warmup + measure }
    }

    /// Whether work started at `t` is counted.
    pub fn measured(&self, t: Instant) -> bool {
        t >= self.measure_from && t < self.end
    }
}

/// The `q`-quantile of `xs` (nearest rank on the sorted samples, the rule
/// `ingress::loadgen` uses); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Per-window statistics of a load phase's warm decisions, windows cut by
/// send time.
pub struct Windows {
    /// Window length, s.
    pub window_s: f64,
    /// Median latency of each window that has decisions, ms.
    pub p50: Vec<f64>,
    /// 99th-percentile latency of each window that has decisions, ms.
    pub p99: Vec<f64>,
    /// Warm decisions per second of every window (0 for a stalled one).
    pub rate: Vec<f64>,
}

impl Windows {
    /// Cuts the `measure_s`-long measured phase of `o` into windows.
    pub fn new(o: &crate::Outcome, window_s: f64, measure_s: f64) -> Self {
        let count = ((measure_s / window_s).round() as usize).max(1);
        let mut bins: Vec<Vec<f64>> = vec![Vec::new(); count];
        for (&x, &t) in o.latency_ms.iter().zip(&o.sent_at_s) {
            let w = ((t / window_s).floor().max(0.0) as usize).min(count - 1);
            bins[w].push(x);
        }
        let full = bins.iter().filter(|b| !b.is_empty());
        Self {
            window_s,
            p50: full.clone().map(|b| quantile(b, 0.5)).collect(),
            p99: full.map(|b| quantile(b, 0.99)).collect(),
            rate: bins.iter().map(|b| b.len() as f64 / window_s).collect(),
        }
    }

    /// The per-window series, for the record line.
    pub fn record(&self) -> String {
        let list =
            |v: &[f64]| format!("[{}]", v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", "));
        object(&[
            ("window_s", num(self.window_s)),
            ("latency_p50_ms", list(&self.p50)),
            ("latency_p99_ms", list(&self.p99)),
            ("decisions_per_s", list(&self.rate)),
        ])
    }
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `VmHWM` of this process, in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor gave to other guests so far, in clock ticks
/// (the `steal` column of `/proc/stat`; 0 where unavailable).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A JSON number as measured, with all its digits (non-finite values,
/// which JSON cannot carry, become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values, in the given order.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {}", string(k.as_ref()), v)).collect();
    format!("{{{}}}", body.join(", "))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// Which phase of the run measured it.
    pub source: &'static str,
}

impl Metric {
    /// A metric measured by the run's main phase.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self { name, value, unit, samples, source: "main" }
    }

    /// The same metric, attributed to another phase of the run.
    pub fn from_phase(mut self, source: &'static str) -> Self {
        self.source = source;
        self
    }
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let m: Vec<(&str, String)> = metrics
        .iter()
        .map(|x| (x.name, object(&[("value", num(x.value)), ("unit", string(x.unit))])))
        .collect();
    object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", object(&m)),
    ])
}

/// Sample count and source of every metric, for the record line.
pub fn metric_details(metrics: &[Metric]) -> String {
    let m: Vec<(&str, String)> = metrics
        .iter()
        .map(|x| {
            (x.name, object(&[("samples", x.samples.to_string()), ("source", string(x.source))]))
        })
        .collect();
    object(&m)
}
