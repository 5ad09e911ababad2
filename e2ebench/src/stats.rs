//! Samples, spans, and the host reference loops.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Timing samples keyed by (operation, program), each with the number
/// of leaf elements the operation processed.
#[derive(Default)]
pub struct Samples(BTreeMap<(&'static str, &'static str), Vec<(f64, u64)>>);

impl Samples {
    pub fn push(&mut self, op: &'static str, program: &'static str, secs: f64, elements: u64) {
        self.0
            .entry((op, program))
            .or_default()
            .push((secs, elements));
    }

    fn per_program<'a>(&'a self, op: &'a str) -> impl Iterator<Item = &'a Vec<(f64, u64)>> + 'a {
        self.0
            .iter()
            .filter(move |((o, _), _)| *o == op)
            .map(|(_, v)| v)
    }

    fn secs(v: &[(f64, u64)]) -> Vec<f64> {
        v.iter().map(|s| s.0).collect()
    }

    /// Σ over programs of the program's median time: one pass over the
    /// program list at its typical speed.
    pub fn sum_of_medians(&self, op: &str) -> f64 {
        self.per_program(op).map(|v| median(&Self::secs(v))).sum()
    }

    /// Mean over programs of the program's median time.
    pub fn mean_of_medians(&self, op: &str) -> f64 {
        let n = self.per_program(op).count();
        self.sum_of_medians(op) / n as f64
    }

    /// Elements per second of one pass over the program list at each
    /// program's median time.
    pub fn rate(&self, op: &str) -> f64 {
        let elements: u64 = self.per_program(op).map(|v| v[0].1).sum();
        elements as f64 / self.sum_of_medians(op)
    }

    /// Every sample of `op`, pooled over programs.
    pub fn pooled(&self, op: &str) -> Vec<f64> {
        self.per_program(op).flat_map(|v| Self::secs(v)).collect()
    }

    /// Σ over programs of the last recorded element count (counters
    /// recorded through the element field).
    pub fn sum_of_counts(&self, op: &str) -> u64 {
        self.per_program(op).map(|v| v[v.len() - 1].1).sum()
    }

    /// Mean over programs of the last recorded element count.
    pub fn mean_of_counts(&self, op: &str) -> f64 {
        let n = self.per_program(op).count();
        self.sum_of_counts(op) as f64 / n as f64
    }
}

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub program: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
    pub elements: u64,
}

/// The benchmark's own span recorder. Spans are kept in memory and
/// written as JSONL at exit; nothing is recorded when disabled.
pub struct Tracer {
    pub enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// Open a span under the innermost open span (a no-op when disabled).
    pub fn begin(&mut self, name: &'static str, program: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            program,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.next_op,
            elements: 0,
        });
        self.next_op += 1;
        self.open.push(id);
        id
    }

    /// Close span `id`, the innermost open one; returns its seconds.
    pub fn end(&mut self, id: usize, elements: u64) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.t0.elapsed();
        span.elements = elements;
        (span.end - span.start).as_secs_f64()
    }

    /// Time `f` inside a span named `name`, returning its result and
    /// the span's duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        program: &'static str,
        elements: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, program);
        let out = f();
        let secs = self.end(id, elements);
        (out, secs)
    }

    /// Per-layer samples: every closed span, keyed by name and program.
    pub fn samples(&self) -> Samples {
        let mut s = Samples::default();
        for span in &self.spans {
            s.push(
                span.name,
                span.program,
                (span.end - span.start).as_secs_f64(),
                span.elements,
            );
        }
        s
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"program\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"elements\":{}}}",
                s.name,
                s.program,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.op,
                s.elements
            );
        }
        out
    }
}

/// A fixed pure-integer loop: wall time in ms.
pub fn host_ref_cpu_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x1234_5678_9ABC_DEF0u64);
    for i in 0..30_000_000u64 {
        x = x.rotate_left(5) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// A fixed memory-streaming loop (four passes over 64 MiB): wall time
/// in ms.
pub fn host_ref_mem_ms(buf: &[u64]) -> f64 {
    let t = Instant::now();
    let mut total = 0u64;
    for _ in 0..4 {
        total = total.wrapping_add(black_box(buf).iter().fold(0u64, |a, &b| a.wrapping_add(b)));
    }
    black_box(total);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
