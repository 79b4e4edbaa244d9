//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <checksum_metrics|preempt_events|fleet_campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop with one caller: the benchmark makes
//! its next call into the simulator only after the previous one
//! returned, from one process, and the fleet runs on one worker thread.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that records spans around each call into a layer's
//! public functions and ablates the layers' cache toggles, giving the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted` and `failed` count the correctness
//! checks, `metrics` holds each metric with its unit. See
//! `perfbench/README.md` for what each workload and metric is for.

mod device;
mod expected;
mod fleet;
mod ladder;
mod tracer;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tracer::Tracer;

/// Seed used when `--seed` is not given; the expected simulated results
/// in `expected.txt` are recorded for it.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's workloads, by name.
const WORKLOADS: [&str; 3] = ["checksum_metrics", "preempt_events", "fleet_campaign"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Derives an independent sub-seed from the workload seed (splitmix64
/// over `seed + salt`), so the fleet seed, chaos seed and RNG seed are
/// uncorrelated.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a run measured and how many of its correctness checks held.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON result.
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one correctness check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// Checks that two runs of the same configuration simulated the same
    /// device history, naming the first counter that differs.
    pub fn check_same(&mut self, what: &str, a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) {
        let diff = a
            .iter()
            .find(|(k, v)| b.get(*k) != Some(v))
            .map(|(k, v)| format!("{k}: {v} vs {:?}", b.get(k)))
            .or_else(|| {
                b.keys()
                    .find(|k| !a.contains_key(*k))
                    .map(|k| format!("{k} only in the second"))
            });
        self.check(diff.is_none(), || {
            format!("{what} differ: {}", diff.unwrap_or_default())
        });
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line. A value that is not finite (a broken
    /// measurement) counts as a failed check and is written as 0.
    fn json(&mut self) -> String {
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0)
            .collect();
        for name in bad {
            self.check(false, || format!("metric {name} is not a finite number"));
        }
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Wall-clock budget of a measured phase: it keeps going until `share`
/// of `--seconds` has passed and at least `min_reps` repetitions ran.
pub struct Budget {
    start: Instant,
    limit: Duration,
    min_reps: usize,
}

impl Budget {
    pub fn new(seconds: f64, share: f64, min_reps: usize) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds * share),
            min_reps,
        }
    }

    pub fn more(&self, reps_done: usize) -> bool {
        reps_done < self.min_reps || self.start.elapsed() < self.limit
    }
}

/// Where the traced run writes its spans: under the Cargo target
/// directory, which is never committed.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target
        .join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(args.trace);
    match args.workload.as_str() {
        "fleet_campaign" => fleet::run(&args, &mut out, &mut tracer),
        name => device::run(name, &args, &mut out, &mut tracer),
    }

    if args.trace {
        let path = spans_path(&args.workload, args.seed);
        match tracer.write(&path) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
        for (layer, ns) in tracer.self_ns_by_layer() {
            out.note(format!("self time {layer:<8} {:>10.1} ms", ns as f64 / 1e6));
        }
    }
    let fail_frac = tracer::ratio(out.failed as f64, out.attempted as f64);
    out.note(format!(
        "check_fail_frac {fail_frac} ({} of {} checks failed)",
        out.failed, out.attempted
    ));
    for line in &out.notes {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    println!("{}", out.json());
}
