//! Host clocks, the choice of repetitions, summary statistics and the
//! benchmark's span tracer.
//!
//! Host time is process CPU time throughout: on a shared host it does not
//! advance while the process is preempted, which makes it steadier than
//! wall time. The fleet engine runs devices on a worker thread, and the
//! process clock covers that thread too.

use std::fmt::Write as _;
use std::path::Path;

/// Nanoseconds of CPU time consumed by the whole process, all threads
/// summed.
pub use trustlite_bench::timing::process_cpu_ns as cpu_ns;

/// Share of a run's repetitions its figures are taken over: the fastest
/// tenth by host CPU time.
const FAST_SHARE: f64 = 0.1;

/// The repetitions a run's figures are taken over: the fastest
/// [`FAST_SHARE`] of them by host CPU time `ns`, at least one, in run
/// order.
///
/// Every repetition of a run simulates the same work from the same
/// state, so they differ only in how fast the host ran them. On a shared
/// host another tenant can halve this process's instruction throughput
/// for bursts of 0.1 s to tens of seconds, and CPU time does not hide it;
/// a median over every repetition jumps between the two speeds from run
/// to run. The selection is by whole repetitions: every slice and slow
/// tail inside a chosen repetition counts, so a change that slows some
/// slices of every repetition is measured, not screened out. Set-ups are
/// repetitions of their own and are chosen the same way.
pub fn fastest<T>(reps: &[T], ns: impl Fn(&T) -> u64) -> Vec<&T> {
    let mut order: Vec<usize> = (0..reps.len()).collect();
    order.sort_by_key(|&i| ns(&reps[i]));
    let keep = ((reps.len() as f64 * FAST_SHARE).round() as usize).max(1);
    order.truncate(keep);
    order.sort_unstable();
    order.into_iter().map(|i| &reps[i]).collect()
}

/// The `q` quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded interval around a call into a layer.
struct Span {
    /// `<layer>.<call>`, or `phase.<name>` for the benchmark's own phases.
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Calls the span covers (cheap calls are timed in batches).
    calls: u64,
}

/// In-memory span recorder. Spans are kept until [`Tracer::write`] puts
/// them out once, at exit; a disabled tracer records nothing, so the
/// untraced run pays only a branch per call site.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span covering one call.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.begin_calls(name, 1)
    }

    /// Opens a span covering a batch of `calls` identical calls.
    pub fn begin_calls(&mut self, name: &'static str, calls: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            calls,
        });
        self.open.push(idx);
        // Read the clock last, so the bookkeeping above is not charged
        // to the span.
        self.spans[idx].start_ns = cpu_ns();
        SpanId(Some(idx))
    }

    /// Closes `id` (spans close innermost first).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = cpu_ns();
        self.spans[idx].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
    }

    fn duration(&self, idx: usize) -> u64 {
        self.spans[idx]
            .end_ns
            .saturating_sub(self.spans[idx].start_ns)
    }

    /// Span duration minus the time its direct children cover.
    fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = (idx + 1..self.spans.len())
            .take_while(|&j| self.spans[j].start_ns <= self.spans[idx].end_ns)
            .filter(|&j| self.spans[j].parent == Some(idx))
            .map(|j| self.duration(j))
            .sum();
        self.duration(idx).saturating_sub(children)
    }

    fn under(&self, mut idx: usize, phase: &str) -> bool {
        while let Some(p) = self.spans[idx].parent {
            if self.spans[p].name == phase {
                return true;
            }
            idx = p;
        }
        false
    }

    /// Self time per call, in ns, of every `name` span inside `phase`.
    pub fn per_call_ns(&self, phase: &str, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.under(i, phase))
            .map(|i| self.self_ns(i) as f64 / self.spans[i].calls.max(1) as f64)
            .collect()
    }

    /// Summed self time, in ns, of every `name` span inside `phase`.
    pub fn total_self_ns(&self, phase: &str, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.under(i, phase))
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// Self time per layer (the span-name prefix before the first `.`),
    /// in ns, over the whole run, sorted by layer name.
    pub fn self_ns_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut by: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for i in 0..self.spans.len() {
            let name = self.spans[i].name;
            let layer = name.split('.').next().unwrap_or(name);
            *by.entry(layer).or_default() += self.self_ns(i);
        }
        by.into_iter().collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The tracer's own share of the CPU time its top-level spans cover:
    /// the measured cost of one empty begin/end pair times the spans
    /// recorded.
    pub fn overhead_frac(&self) -> f64 {
        const PAIRS: u32 = 10_000;
        let mut probe = Tracer::new(true);
        probe.spans.reserve(PAIRS as usize);
        let c0 = cpu_ns();
        for _ in 0..PAIRS {
            let s = probe.begin("probe");
            probe.end(s);
        }
        let pair_ns = (cpu_ns() - c0) as f64 / f64::from(PAIRS);
        let covered: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .map(|i| self.duration(i))
            .sum();
        ratio(pair_ns * self.spans.len() as f64, covered as f64)
    }

    /// Writes every span as one JSON line (name, start, end, parent,
    /// calls; times are process CPU ns).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_keeps_whole_repetitions_in_run_order() {
        let reps: Vec<u64> = (0..30).map(|i| 100 + (i * 7) % 30).collect();
        let kept: Vec<u64> = fastest(&reps, |&r| r).into_iter().copied().collect();
        assert_eq!(kept, [100, 101, 102]);
        assert_eq!(fastest(&[5u64], |&r| r), [&5]);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("phase.x");
        let inner = t.begin_calls("core.y", 4);
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_add(std::hint::black_box(i * i));
        }
        std::hint::black_box(x);
        t.end(inner);
        t.end(outer);
        let inner_total = t.total_self_ns("phase.x", "core.y");
        assert!(inner_total > 0);
        assert!(t.self_ns(0) <= t.duration(0) - inner_total);
        assert_eq!(
            t.per_call_ns("phase.x", "core.y")[0],
            inner_total as f64 / 4.0
        );
        assert!(t.per_call_ns("phase.other", "core.y").is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("cpu.run");
        t.end(s);
        assert_eq!(t.len(), 0);
    }
}
