//! Work shared by every workload's traced run: building a device, the
//! cumulative cache-ablation ladder, and per-call costs of the `core`
//! and `bench` layers measured on a forked device.

use std::collections::BTreeMap;

use trustlite::{attest, ObsLevel, Platform};
use trustlite_bench::{build_workload, state_digest};
use trustlite_cpu::RunExit;
use trustlite_periph::Rng;

use crate::tracer::{cpu_ns, median, ratio, Tracer};
use crate::{derive_seed, Budget, Outcome};

/// Builds and boots the named `trustlite-bench` workload program and
/// reseeds its RNG peripheral from the workload seed.
pub fn build(program: &str, level: ObsLevel, rng_seed: u64) -> Platform {
    let mut p = build_workload(program, level);
    p.machine
        .sys
        .bus
        .device_mut::<Rng>("rng")
        .expect("every platform maps the RNG peripheral")
        .reseed(rng_seed);
    p
}

/// The device's exact simulated counters: instructions, cycles,
/// exceptions, scheduling and EA-MPU activity. Simulator-side cache
/// statistics (`cpu.block.*`, `cpu.predecode.*`) and telemetry
/// bookkeeping (`obs.*`) are left out: they describe the host, not the
/// device.
pub fn device_counters(p: &mut Platform) -> BTreeMap<String, u64> {
    p.machine
        .metrics_report()
        .counters
        .into_iter()
        .filter(|(k, _)| {
            k == "cpu.instret"
                || k == "cpu.cycles"
                || k == "mpu.checks"
                || k == "mpu.denials"
                || k.starts_with("exc.")
                || k.starts_with("sched.")
        })
        .collect()
}

/// Rung names, in ladder order. Each rung adds one layer to the rung
/// before it; the last one is the full stack at capture level `Off`.
const RUNGS: [&str; 7] = [
    "baseline (set_fast_path(false))",
    "+ bus lookup cache",
    "+ batched ticks",
    "+ EA-MPU grant cache",
    "+ predecode (fast path, superblocks off)",
    "+ superblocks",
    "full stack at ObsLevel::Off",
];

/// Applies rung `rung` (0..=5) of the cumulative ladder using only the
/// layers' public toggles. Predecode has no toggle of its own: it is
/// switched on together with the rest of the fast path, so its gain is
/// measured only cumulatively, on top of the three rungs before it.
fn configure(p: &mut Platform, rung: usize) {
    let sys = &mut p.machine.sys;
    sys.set_fast_path(false);
    if rung >= 1 {
        sys.bus.set_lookup_cache(true);
    }
    if rung >= 2 {
        sys.bus.set_batched_ticks(true);
    }
    if rung >= 3 {
        sys.mpu.set_grant_cache(true);
    }
    if rung >= 4 {
        sys.set_fast_path(true);
        sys.set_superblocks(false);
    }
    if rung >= 5 {
        sys.set_superblocks(true);
    }
}

/// What a rung simulated: instret, cycles, state digest, device counters.
type Simulated = (u64, u64, [u8; 32], BTreeMap<String, u64>);

/// Runs every rung for `steps` steps, interleaved, repeating the ladder
/// until `budget` is spent, and checks that every rung simulated the
/// same device history. Emits each rung's gain as its MIPS over the
/// previous rung's, and the capture level's cost as 1 − MIPS at the
/// workload's level ÷ MIPS at `Off`, each the median over rounds.
pub fn ladder(
    program: &str,
    level: ObsLevel,
    rng_seed: u64,
    steps: u64,
    budget: &Budget,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let phase = tracer.begin("phase.ladder");
    let mut mips: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut reference: Option<Simulated> = None;
    let mut rounds = 0;
    while budget.more(rounds) {
        for (rung, name) in RUNGS.iter().enumerate() {
            let off = rung == RUNGS.len() - 1;
            let mut p = build(program, if off { ObsLevel::Off } else { level }, rng_seed);
            configure(&mut p, rung.min(5));
            let i0 = p.machine.instret;
            let span = tracer.begin("cpu.run");
            let c0 = cpu_ns();
            let exit = p.run(steps);
            let ns = cpu_ns() - c0;
            tracer.end(span);
            out.check(exit == RunExit::StepLimit, || {
                format!("ladder rung {name}: run ended early with {exit:?}")
            });
            mips[rung].push(ratio((p.machine.instret - i0) as f64 * 1e3, ns as f64));
            let digest = state_digest(&mut p);
            let counters = device_counters(&mut p);
            let (instret, cycles) = (p.machine.instret, p.machine.cycles);
            let Some((r_instret, r_cycles, r_digest, r_counters)) = &reference else {
                reference = Some((instret, cycles, digest, counters));
                continue;
            };
            out.check(
                (instret, cycles, digest) == (*r_instret, *r_cycles, *r_digest),
                || format!("ladder rung {name}: instret/cycles/state differ from the baseline"),
            );
            // Telemetry-derived counters exist only above `Off`.
            if !off {
                out.check_same(
                    &format!("ladder rung {name}: counters"),
                    r_counters,
                    &counters,
                );
            }
        }
        rounds += 1;
    }
    tracer.end(phase);
    for (name, v) in RUNGS.iter().zip(&mips) {
        out.note(format!(
            "ladder {name:<42} {:>9.2} MIPS (median of {rounds})",
            median(v)
        ));
    }
    out.note("ladder: predecode has no standalone toggle and is measured only cumulatively".into());
    // Rungs of one round ran moments apart, under the same host
    // conditions: each figure is the median over rounds of a ratio
    // within one round.
    let paired = |num: usize, den: usize| {
        let r: Vec<f64> = (0..rounds)
            .map(|i| ratio(mips[num][i], mips[den][i]))
            .collect();
        median(&r)
    };
    out.metric("mem.lookup_cache.gain", paired(1, 0), "x");
    out.metric("periph.batched_ticks.gain", paired(2, 1), "x");
    out.metric("mpu.grant_cache.gain", paired(3, 2), "x");
    out.metric("cpu.predecode.gain", paired(4, 3), "x");
    out.metric("cpu.superblocks.gain", paired(5, 4), "x");
    out.metric("obs.level_cost_frac", 1.0 - paired(5, 6), "ratio");
}

/// Devices forked for the per-call measurements (the fleet's size).
const FORKS: u32 = 64;
/// Batches per cheap call, and calls per batch: sub-microsecond calls are
/// timed in batches so the clock's own cost stays out of the figure.
const BATCHES: usize = 15;
const CALLS_PER_BATCH: u64 = 20;

/// Device key derived from the workload seed.
fn device_key(seed: u64, id: u32) -> [u8; 32] {
    let mut key = [0u8; 32];
    for (i, chunk) in key.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(
            &derive_seed(seed, 0x6b65_7900 + u64::from(id) * 4 + i as u64).to_le_bytes(),
        );
    }
    key
}

/// Times the `core` calls the fleet makes per device — build, fork and
/// diverge, measurement read, attestation respond and verify, warm
/// reset — plus the `bench` state digest, each called directly on a
/// forked device that has run `warm_steps` steps, and emits the median
/// cost of one call.
pub fn call_costs(
    program: &str,
    level: ObsLevel,
    seed: u64,
    warm_steps: u64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let phase = tracer.begin("phase.calls");
    let rng_seed = derive_seed(seed, 1);
    let mut master = None;
    for _ in 0..5 {
        let span = tracer.begin("core.build");
        master = Some(build(program, level, rng_seed));
        tracer.end(span);
    }
    let mut master = master.expect("built at least once");
    let mut names: Vec<(u32, String)> = master
        .plans
        .iter()
        .map(|(n, p)| (p.tt_index, n.clone()))
        .collect();
    names.sort();
    let expected: Vec<[u8; 32]> = names
        .iter()
        .map(|(_, n)| master.measurement(n).expect("planned trustlet is measured"))
        .collect();

    let mut devices = Vec::with_capacity(FORKS as usize);
    for id in 0..FORKS {
        let span = tracer.begin("core.fork");
        let mut d = master.fork().expect("workload platforms fork");
        d.diverge(
            id,
            derive_seed(seed, 0x100 + u64::from(id)),
            device_key(seed, id),
        )
        .expect("forked platforms diverge");
        tracer.end(span);
        devices.push(d);
    }
    let id = FORKS - 1;
    let key = device_key(seed, id);
    let mut dev = devices.pop().expect("forked at least once");
    drop(devices);
    let exit = dev.run(warm_steps);
    out.check(exit == RunExit::StepLimit, || {
        format!("forked device: warm-up run ended early with {exit:?}")
    });

    let first = names[0].1.clone();
    let challenge = attest::Challenge {
        nonce: derive_seed(seed, 0x6e6f_6e63)
            .to_le_bytes()
            .repeat(2)
            .try_into()
            .expect("16 bytes"),
    };
    let mut response = None;
    for _ in 0..BATCHES {
        let span = tracer.begin_calls("core.measurement", CALLS_PER_BATCH);
        for _ in 0..CALLS_PER_BATCH {
            std::hint::black_box(dev.measurement(&first).expect("measured"));
        }
        tracer.end(span);
        let span = tracer.begin_calls("core.attest_respond", CALLS_PER_BATCH);
        for _ in 0..CALLS_PER_BATCH {
            response = Some(attest::respond(&mut dev, &challenge).expect("provisioned key"));
        }
        tracer.end(span);
        let resp = response.as_ref().expect("responded");
        let span = tracer.begin_calls("core.attest_verify", CALLS_PER_BATCH);
        let mut ok = true;
        for _ in 0..CALLS_PER_BATCH {
            ok &= std::hint::black_box(attest::verify(&key, &challenge, resp, &expected));
        }
        tracer.end(span);
        out.check(ok, || "honest forked device fails attestation".to_string());
        let span = tracer.begin("bench.state_digest");
        std::hint::black_box(state_digest(&mut dev));
        tracer.end(span);
    }
    for _ in 0..BATCHES {
        let span = tracer.begin("core.reset");
        let ok = dev.reset().is_ok();
        tracer.end(span);
        out.check(ok, || "warm reset of a forked device failed".to_string());
    }
    tracer.end(phase);

    let us = |name| median(&tracer.per_call_ns("phase.calls", name)) / 1e3;
    out.metric("core.build_ms", us("core.build") / 1e3, "ms");
    out.metric("core.fork_us", us("core.fork"), "us");
    out.metric("core.reset_ms", us("core.reset") / 1e3, "ms");
    out.metric("core.measurement_us", us("core.measurement"), "us");
    out.metric("core.attest_respond_us", us("core.attest_respond"), "us");
    out.metric("core.attest_verify_us", us("core.attest_verify"), "us");
    out.metric("bench.digest_us_per_device", us("bench.state_digest"), "us");
}
