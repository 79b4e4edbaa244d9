//! The single-device workloads: one booted platform runs fixed-length
//! `Platform::run` slices.

use std::collections::BTreeMap;

use trustlite::{ObsLevel, Platform};
use trustlite_cpu::RunExit;

use crate::ladder::{self, build, device_counters};
use crate::tracer::{cpu_ns, fastest, median, quantile, ratio, Tracer};
use crate::{derive_seed, expected, Args, Budget, Outcome};

/// Slices per repetition. A repetition always simulates the same steps,
/// so its counters can be compared with the other repetitions and with
/// `expected.txt`. Repetitions are kept short (about 15 ms), so that some
/// of them fall wholly between two bursts of host interference.
const REP_SLICES: usize = 25;
/// Steps per ladder rung.
const LADDER_STEPS: u64 = 2_000_000;

/// Which `trustlite-bench` program a workload runs, at which telemetry
/// capture level, and the steps of one slice (one `Platform::run` call,
/// about 0.6 ms of host CPU on either program).
fn program(workload: &str) -> (&'static str, ObsLevel, u64) {
    match workload {
        // Long straight-line blocks: the superblock engine and per-op
        // Metrics charging do nearly all the work.
        "checksum_metrics" => ("checksum", ObsLevel::Metrics, 50_000),
        // A timer IRQ every few hundred instructions, short blocks and
        // MPU subject churn; telemetry works through event-ring appends.
        "preempt_events" => ("preemptive_os", ObsLevel::Events, 20_000),
        other => unreachable!("not a device workload: {other}"),
    }
}

/// One repetition: a fresh build and `REP_SLICES` timed slices.
struct Rep {
    setup_ns: u64,
    /// `(CPU ns, instructions retired)` per slice.
    slices: Vec<(u64, u64)>,
    cycles: u64,
    instret: u64,
    counters: BTreeMap<String, u64>,
    all_counters: BTreeMap<String, u64>,
    resident_bytes: u64,
    code_cache_bytes: u64,
}

impl Rep {
    fn cpu_ns(&self) -> u64 {
        self.slices.iter().map(|&(ns, _)| ns).sum()
    }
}

fn run_rep(
    program: &str,
    level: ObsLevel,
    slice_steps: u64,
    rng_seed: u64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Rep {
    let span = tracer.begin("core.build");
    let c0 = cpu_ns();
    let mut p: Platform = build(program, level, rng_seed);
    let setup_ns = cpu_ns() - c0;
    tracer.end(span);
    let (i0, cy0) = (p.machine.instret, p.machine.cycles);
    let mut slices = Vec::with_capacity(REP_SLICES);
    for _ in 0..REP_SLICES {
        let before = p.machine.instret;
        let span = tracer.begin("cpu.run");
        let c0 = cpu_ns();
        let exit = p.run(slice_steps);
        let ns = cpu_ns() - c0;
        tracer.end(span);
        slices.push((ns, p.machine.instret - before));
        out.check(exit == RunExit::StepLimit, || {
            format!("{program}: slice ended early with {exit:?}")
        });
    }
    let report = p.machine.metrics_report();
    if level != ObsLevel::Off {
        out.check(report.attributed_cycles() == p.machine.cycles, || {
            format!(
                "{program}: attributed cycles {} != cpu.cycles {}",
                report.attributed_cycles(),
                p.machine.cycles
            )
        });
    }
    Rep {
        setup_ns,
        slices,
        cycles: p.machine.cycles - cy0,
        instret: p.machine.instret - i0,
        counters: device_counters(&mut p),
        all_counters: report.counters,
        resident_bytes: p.resident_bytes(),
        code_cache_bytes: p.code_cache_bytes(),
    }
}

pub fn run(workload: &str, args: &Args, out: &mut Outcome, tracer: &mut Tracer) {
    let (program, level, slice_steps) = program(workload);
    let rng_seed = derive_seed(args.seed, 1);
    // The traced run spends about half its time on repetitions, the rest
    // on the ladder and the per-call costs.
    let budget = Budget::new(args.seconds, if args.trace { 0.45 } else { 1.0 }, 2);
    let phase = tracer.begin("phase.measure");
    let mut reps: Vec<Rep> = Vec::new();
    while budget.more(reps.len()) {
        let rep = run_rep(program, level, slice_steps, rng_seed, out, tracer);
        if let Some(first) = reps.first() {
            out.check_same(
                &format!("{workload}: repetition counters"),
                &first.counters,
                &rep.counters,
            );
        }
        reps.push(rep);
    }
    tracer.end(phase);
    expected::check(out, workload, args.seed, &reps[0].counters);
    let last = reps.last().expect("at least two repetitions");
    let chosen = fastest(&reps, Rep::cpu_ns);
    let setups = fastest(&reps, |r| r.setup_ns);
    out.note(format!(
        "{workload} seed {}: {} repetitions x {REP_SLICES} slices of {slice_steps} steps; \
         figures over the fastest {} runs and set-ups",
        args.seed,
        reps.len(),
        chosen.len(),
    ));
    let mips: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.instret as f64 * 1e3, r.cpu_ns() as f64))
        .collect();
    out.note(format!(
        "MIPS over repetitions: min {:.2} median {:.2} max {:.2}",
        quantile(&mips, 0.0),
        median(&mips),
        quantile(&mips, 1.0)
    ));

    if !args.trace {
        let ms: Vec<f64> = chosen
            .iter()
            .flat_map(|r| r.slices.iter().map(|&(ns, _)| ns as f64 / 1e6))
            .collect();
        let total_ms: f64 = ms.iter().sum();
        let instret: u64 = chosen.iter().map(|r| r.instret).sum();
        let setup: Vec<f64> = setups.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
        out.metric("setup_s", median(&setup), "s");
        out.metric("sim_mips", ratio(instret as f64 / 1e3, total_ms), "MIPS");
        out.metric(
            "device_rounds_per_s",
            ratio(ms.len() as f64 * 1e3, total_ms),
            "1/s",
        );
        out.metric("slice_ms_p50", median(&ms), "ms");
        out.metric("slice_ms_p90", quantile(&ms, 0.9), "ms");
        out.metric(
            "mem_kib_per_device",
            (last.resident_bytes + last.code_cache_bytes) as f64 / 1024.0,
            "KiB",
        );
        out.metric(
            "sim_cpi",
            ratio(last.cycles as f64, last.instret as f64),
            "cycles/instr",
        );
        return;
    }

    // Traced run: per-layer metrics.
    let run_ms = ratio(
        tracer.total_self_ns("phase.measure", "cpu.run") as f64 / 1e6,
        reps.len() as f64,
    );

    let ladder_budget = Budget::new(args.seconds, 0.4, 1);
    ladder::ladder(
        program,
        level,
        rng_seed,
        LADDER_STEPS,
        &ladder_budget,
        out,
        tracer,
    );
    ladder::call_costs(program, level, args.seed, slice_steps, out, tracer);
    emit_device_layers(out, &last.all_counters);
    out.metric("cpu.run.cpu_ms", run_ms, "ms");
    out.metric(
        "mem.resident_kib_per_device",
        last.resident_bytes as f64 / 1024.0,
        "KiB",
    );
    out.metric(
        "mem.code_cache_kib_per_device",
        last.code_cache_bytes as f64 / 1024.0,
        "KiB",
    );
    out.metric(
        "harness.trace_overhead_frac",
        tracer.overhead_frac(),
        "ratio",
    );
    // The fleet layer does no work on a single device.
    for name in [
        "fleet.fork_ms",
        "fleet.execute_ms",
        "fleet.verify_ms",
        "fleet.merge_ms",
        "fleet.crash_resets",
        "fleet.loader_runs",
        "fleet.attest_fail_frac",
        "fleet.trace_overhead_frac",
    ] {
        out.metric(name, 0.0, crate::fleet::unit(name));
    }
}

/// Per-layer metrics read from a device's (or a fleet's merged) counters.
pub fn emit_device_layers(out: &mut Outcome, c: &BTreeMap<String, u64>) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let instret = get("cpu.instret");
    let dispatches = get("cpu.block.hit") + get("cpu.block.miss");
    out.metric(
        "cpu.block.mean_len",
        ratio(get("cpu.block.instret"), dispatches),
        "instr",
    );
    out.metric(
        "cpu.block.miss_per_minstr",
        ratio(get("cpu.block.miss") * 1e6, instret),
        "1/Minstr",
    );
    out.metric("cpu.block.flushes", get("cpu.block.flush"), "count");
    out.metric(
        "cpu.block.coverage",
        ratio(get("cpu.block.instret"), instret),
        "ratio",
    );
    out.metric(
        "cpu.exc_per_minstr",
        ratio(get("exc.taken") * 1e6, instret),
        "1/Minstr",
    );
    out.metric(
        "os.switches_per_minstr",
        ratio(get("sched.context_switches") * 1e6, instret),
        "1/Minstr",
    );
    out.metric(
        "mpu.checks_per_instr",
        ratio(get("mpu.checks"), instret),
        "1/instr",
    );
    out.metric("mpu.denials", get("mpu.denials"), "count");
    out.metric("obs.events_dropped", get("obs.events_dropped"), "count");
}
