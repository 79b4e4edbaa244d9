//! The fleet workload: 64 devices forked from one booted master run a
//! canary-then-ramp firmware-update campaign under transient faults,
//! with attestation every two rounds.

use std::collections::BTreeMap;

use trustlite::ObsLevel;
use trustlite_chaos::ChaosConfig;
use trustlite_fleet::{CampaignConfig, Fleet, FleetConfig, FleetReport, TraceLevel};

use crate::device::emit_device_layers;
use crate::ladder;
use crate::tracer::{cpu_ns, fastest, median, quantile, ratio, Tracer};
use crate::{derive_seed, expected, Args, Budget, Outcome};

const DEVICES: usize = 64;
const ROUNDS: u64 = 12;
const QUANTUM: u64 = 2_000;
/// Per-mille rate of transient faults and update-window faults.
const FAULT_RATE_PM: u64 = 250;
/// The device program every fleet device runs: a load/add/store loop
/// that writes every fourth instruction, so copy-on-write pages unshare.
const PROGRAM: &str = "quickstart";
const LEVEL: ObsLevel = ObsLevel::Metrics;
/// Steps per ladder rung on the fleet's device program.
const LADDER_STEPS: u64 = 2_000_000;

fn config(seed: u64, trace: TraceLevel) -> FleetConfig {
    FleetConfig {
        devices: DEVICES,
        // One worker: the closed loop has one caller, and the host's
        // second core stays free.
        workers: 1,
        quantum: QUANTUM,
        rounds: ROUNDS,
        seed: derive_seed(seed, 2),
        workload: PROGRAM.to_string(),
        level: LEVEL,
        attest_every: 2,
        chaos: ChaosConfig {
            seed: derive_seed(seed, 3),
            fault_rate_pm: FAULT_RATE_PM,
            malicious_pm: 0,
        },
        // The verifier never writes a device off, so every device runs
        // every round and the campaign resolves the whole fleet.
        max_retries: u32::MAX,
        trace,
        campaign: Some(CampaignConfig {
            canary_pct: 25,
            failure_budget: DEVICES as u32,
            max_confirm_attempts: 3,
            version: 2,
        }),
        ..FleetConfig::default()
    }
}

/// Per-layer metric units, shared with the device workloads (which report
/// the fleet layer as idle).
pub fn unit(name: &str) -> &'static str {
    match name {
        "fleet.crash_resets" | "fleet.loader_runs" => "count",
        n if n.ends_with("_frac") => "ratio",
        _ => "ms",
    }
}

/// Fleet boots per campaign (a boot is about 2% of a campaign); the last
/// one runs the campaign.
const BOOTS: usize = 5;

/// One campaign: boots, run, and the report.
struct Campaign {
    /// Host CPU ns of each boot.
    boot_ns: Vec<u64>,
    run_ns: u64,
    report: FleetReport,
}

fn counter(r: &FleetReport, name: &str) -> u64 {
    r.merged.counters.get(name).copied().unwrap_or(0)
}

/// The campaign's exact simulated results: the merged device counters
/// that describe the devices and the campaign (not the simulator's caches
/// or telemetry bookkeeping) plus the per-device outcome buckets.
fn simulated(r: &FleetReport) -> BTreeMap<String, u64> {
    let mut m: BTreeMap<String, u64> = r
        .merged
        .counters
        .iter()
        .filter(|(k, _)| {
            [
                "cpu.instret",
                "cpu.cycles",
                "mpu.checks",
                "mpu.denials",
                "loader.runs",
            ]
            .contains(&k.as_str())
                || ["exc.", "sched.", "attest.", "campaign.", "chaos."]
                    .iter()
                    .any(|p| k.starts_with(p))
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    for (k, v) in [
        ("report.total_instret", r.total_instret),
        ("report.total_cycles", r.total_cycles),
        ("report.attest_ok", r.attest_ok),
        ("report.attest_fail", r.attest_fail),
        ("report.completed", r.campaign_completed() as u64),
        ("report.rolled_back", r.campaign_rolled_back() as u64),
        ("report.quarantined", r.campaign_quarantined() as u64),
        ("report.skipped", r.campaign_skipped() as u64),
    ] {
        m.insert(k.to_string(), v);
    }
    m
}

fn run_campaign(cfg: FleetConfig, out: &mut Outcome, tracer: &mut Tracer) -> Campaign {
    let mut boot_ns = Vec::with_capacity(BOOTS);
    let mut fleet = None;
    for _ in 0..BOOTS {
        drop(fleet.take());
        let span = tracer.begin("fleet.boot");
        let c0 = cpu_ns();
        fleet = Some(Fleet::boot(cfg.clone()).expect("the campaign fleet boots"));
        boot_ns.push(cpu_ns() - c0);
        tracer.end(span);
    }
    let fleet = fleet.expect("booted at least once");
    let span = tracer.begin("fleet.run");
    let c0 = cpu_ns();
    let report = fleet.run();
    let run_ns = cpu_ns() - c0;
    tracer.end(span);

    let r = &report;
    let (loader, reboots, resets) = (
        counter(r, "loader.runs"),
        counter(r, "campaign.reboots"),
        counter(r, "chaos.crash_resets"),
    );
    out.check(loader == 1 + reboots + resets, || {
        format!(
            "loader.runs {loader} != 1 + campaign.reboots {reboots} + chaos.crash_resets {resets}"
        )
    });
    let buckets = r.campaign_completed()
        + r.campaign_rolled_back()
        + r.campaign_quarantined()
        + r.campaign_skipped();
    out.check(buckets == r.devices && r.devices == DEVICES, || {
        format!("{buckets} of {} devices accounted for", r.devices)
    });
    out.check(
        r.campaign_skipped() == 0 && r.campaign_states.iter().all(|s| s.is_terminal()),
        || format!("devices left unresolved: {:?}", r.campaign_states),
    );
    out.check(
        r.merged.attributed_cycles() == counter(r, "cpu.cycles"),
        || {
            format!(
                "attributed cycles {} != cpu.cycles {}",
                r.merged.attributed_cycles(),
                counter(r, "cpu.cycles")
            )
        },
    );
    // Every device ran every round's whole quantum: no device halted.
    let steps = DEVICES as u64 * ROUNDS * QUANTUM;
    out.check(r.total_instret == steps, || {
        format!(
            "fleet retired {} instructions, expected {steps}",
            r.total_instret
        )
    });
    Campaign {
        boot_ns,
        run_ns,
        report,
    }
}

/// Device-rounds completed per host CPU-second of `Fleet::run`.
fn rounds_per_s(c: &Campaign) -> f64 {
    ratio(DEVICES as f64 * ROUNDS as f64 * 1e9, c.run_ns as f64)
}

/// Host ms of one fleet phase (`fork`, `execute`, `verify`, `merge`),
/// summed over the campaign's rounds, from the engine's own spans.
fn phase_ms(r: &FleetReport, kind: &str) -> f64 {
    r.spans
        .iter()
        .filter(|s| s.kind.name() == kind)
        .map(|s| s.duration() as f64 / 1e6)
        .sum()
}

pub fn run(args: &Args, out: &mut Outcome, tracer: &mut Tracer) {
    let trace_on = tracer.enabled();
    // The traced run alternates the engine's `TraceLevel::Off` and
    // `TraceLevel::Spans`, which gives the phase split and the engine's
    // span overhead from adjacent pairs of campaigns.
    let levels: &[TraceLevel] = if trace_on {
        &[TraceLevel::Off, TraceLevel::Spans]
    } else {
        &[TraceLevel::Off]
    };
    let budget = Budget::new(args.seconds, if trace_on { 0.5 } else { 1.0 }, 2);
    let phase = tracer.begin("phase.measure");
    let mut runs: Vec<Campaign> = Vec::new();
    while budget.more(runs.len()) || !runs.len().is_multiple_of(levels.len()) {
        let level = levels[runs.len() % levels.len()];
        let c = run_campaign(config(args.seed, level), out, tracer);
        if let Some(first) = runs.first() {
            out.check_same(
                "fleet_campaign: repetition results",
                &simulated(&first.report),
                &simulated(&c.report),
            );
        }
        runs.push(c);
    }
    tracer.end(phase);
    let first = &runs[0].report;
    expected::check(out, "fleet_campaign", args.seed, &simulated(first));
    out.note(format!(
        "fleet_campaign seed {}: {} campaigns of {DEVICES} devices x {ROUNDS} rounds x {QUANTUM} steps, \
         1 worker; {} completed, {} rolled back, {} crash resets",
        args.seed,
        runs.len(),
        first.campaign_completed(),
        first.campaign_rolled_back(),
        counter(first, "chaos.crash_resets")
    ));

    if !trace_on {
        let chosen = fastest(&runs, |c| c.run_ns);
        let boots: Vec<u64> = runs
            .iter()
            .flat_map(|c| c.boot_ns.iter().copied())
            .collect();
        let setup: Vec<f64> = fastest(&boots, |&ns| ns)
            .into_iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        out.note(format!(
            "figures over the fastest {} campaigns and {} boots",
            chosen.len(),
            setup.len()
        ));
        let run_ms: Vec<f64> = chosen.iter().map(|c| c.run_ns as f64 / 1e6).collect();
        let total_ms: f64 = run_ms.iter().sum();
        let instret: u64 = chosen.iter().map(|c| c.report.total_instret).sum();
        let device_rounds = (chosen.len() * DEVICES) as f64 * ROUNDS as f64;
        out.metric("setup_s", median(&setup), "s");
        out.metric("sim_mips", ratio(instret as f64 / 1e3, total_ms), "MIPS");
        out.metric(
            "device_rounds_per_s",
            ratio(device_rounds * 1e3, total_ms),
            "1/s",
        );
        out.metric("slice_ms_p50", median(&run_ms), "ms");
        out.metric("slice_ms_p90", quantile(&run_ms, 0.9), "ms");
        out.metric(
            "mem_kib_per_device",
            (first.resident_bytes + first.code_cache_bytes) as f64 / DEVICES as f64 / 1024.0,
            "KiB",
        );
        out.metric(
            "sim_cpi",
            ratio(first.total_cycles as f64, first.total_instret as f64),
            "cycles/instr",
        );
        return;
    }

    // Engine span overhead: each `Spans` campaign against the `Off`
    // campaign run just before it, under the same host conditions.
    let span_cost: Vec<f64> = runs
        .chunks(2)
        .map(|pair| 1.0 - ratio(rounds_per_s(&pair[1]), rounds_per_s(&pair[0])))
        .collect();
    let with_spans: Vec<&Campaign> = runs.iter().skip(1).step_by(2).collect();
    let traced = fastest(&with_spans, |c| c.run_ns);
    let phase_median = |kind: &str| {
        median(
            &traced
                .iter()
                .map(|c| phase_ms(&c.report, kind))
                .collect::<Vec<_>>(),
        )
    };

    let program_seed = derive_seed(args.seed, 1);
    let ladder_budget = Budget::new(args.seconds, 0.3, 1);
    ladder::ladder(
        PROGRAM,
        LEVEL,
        program_seed,
        LADDER_STEPS,
        &ladder_budget,
        out,
        tracer,
    );
    ladder::call_costs(PROGRAM, LEVEL, args.seed, ROUNDS * QUANTUM, out, tracer);
    emit_device_layers(out, &first.merged.counters);
    // The fleet engine makes every `Platform::run` call itself; its share
    // is `fleet.execute_ms`.
    out.metric("cpu.run.cpu_ms", 0.0, "ms");
    out.metric(
        "mem.resident_kib_per_device",
        first.resident_bytes as f64 / DEVICES as f64 / 1024.0,
        "KiB",
    );
    out.metric(
        "mem.code_cache_kib_per_device",
        first.code_cache_bytes as f64 / DEVICES as f64 / 1024.0,
        "KiB",
    );
    out.metric(
        "harness.trace_overhead_frac",
        tracer.overhead_frac(),
        "ratio",
    );
    out.metric("fleet.fork_ms", phase_median("fork"), "ms");
    out.metric("fleet.execute_ms", phase_median("execute"), "ms");
    out.metric("fleet.verify_ms", phase_median("verify"), "ms");
    out.metric("fleet.merge_ms", phase_median("merge"), "ms");
    out.metric(
        "fleet.crash_resets",
        counter(first, "chaos.crash_resets") as f64,
        "count",
    );
    out.metric(
        "fleet.loader_runs",
        counter(first, "loader.runs") as f64,
        "count",
    );
    out.metric(
        "fleet.attest_fail_frac",
        ratio(
            first.attest_fail as f64,
            (first.attest_ok + first.attest_fail) as f64,
        ),
        "ratio",
    );
    out.metric("fleet.trace_overhead_frac", median(&span_cost), "ratio");
}
