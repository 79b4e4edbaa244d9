//! Fleet boot (snapshot/fork), sharded execution, fault injection and
//! the resilient attestation fabric.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use trustlite::attest::{self, Challenge, Response};
use trustlite::{Platform, TrustliteError};
use trustlite_bench::state_digest;
use trustlite_bench::throughput::build_workload;
use trustlite_chaos::{ChaosConfig, DeviceRole, FaultPlan, RoundFault};
use trustlite_crypto::sha256;
use trustlite_obs::{
    Event, FlightDump, FlightRecorder, MetricsRegistry, MetricsReport, ObsLevel, SpanKind,
    SpanRecord, DEFAULT_FLIGHT_CAP,
};
use trustlite_periph::KeyStore;

use crate::campaign::{CampaignConfig, CampaignState};
use crate::observatory::TraceLevel;
use crate::report::FleetReport;
use crate::resilience::{DeviceHealth, VerifierState};

/// How many trailing device events a flight dump carries (the tail of
/// the device's telemetry ring; empty below `ObsLevel::Events`).
const FLIGHT_EVENT_TAIL: usize = 32;

/// Everything a fleet run is reproducible from.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated devices.
    pub devices: usize,
    /// Number of worker threads devices are sharded over.
    pub workers: usize,
    /// Instructions each device executes per scheduling round.
    pub quantum: u64,
    /// Number of rounds.
    pub rounds: u64,
    /// Fleet seed: all per-device identity (RNG seeds, platform keys)
    /// and all verifier nonces derive from it.
    pub seed: u64,
    /// Which macro workload every device runs (see
    /// [`trustlite_bench::throughput::WORKLOADS`]).
    pub workload: String,
    /// Telemetry capture level applied to every device.
    pub level: ObsLevel,
    /// The verifier challenges each device every `attest_every` rounds
    /// (staggered by device id); `0` disables the attestation fabric.
    pub attest_every: u64,
    /// Fault-injection plan (off by default; the honest path is
    /// byte-identical with chaos compiled in but disabled).
    pub chaos: ChaosConfig,
    /// Consecutive failures tolerated per device before quarantine.
    pub max_retries: u32,
    /// Rounds the verifier waits for a response before declaring a
    /// timeout.
    pub timeout_rounds: u64,
    /// Fleet span collection level. Gates only what lands in
    /// [`FleetReport::spans`]; digests and merged metrics are
    /// byte-identical at every level.
    pub trace: TraceLevel,
    /// Boot the master in the dense reference mode
    /// (`SystemBus::make_dense`), so every fork deep-copies its memory
    /// and code caches instead of sharing copy-on-write chunks. Set only
    /// by the differential tests: digests must be byte-identical either
    /// way.
    pub dense: bool,
    /// Firmware-update campaign (off by default; a configured campaign
    /// stages the patched image over the fleet in canary/ramp waves and
    /// commits each device behind an attested re-measurement gate).
    pub campaign: Option<CampaignConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 8,
            workers: 1,
            quantum: 10_000,
            rounds: 4,
            seed: 0x7457_117e,
            workload: "quickstart".to_string(),
            level: ObsLevel::Metrics,
            attest_every: 2,
            chaos: ChaosConfig::off(),
            max_retries: 3,
            timeout_rounds: 2,
            trace: TraceLevel::Off,
            dense: false,
            campaign: None,
        }
    }
}

/// One simulated device: a forked platform plus its fleet identity.
pub struct DeviceSim {
    /// Device index (also published to device software, see
    /// [`Platform::DEVICE_ID_ADDR`]).
    pub id: u32,
    /// The device's machine, forked from the booted master.
    pub platform: Platform,
    /// The device's provisioned platform key (the verifier keeps a copy,
    /// as a real enrolment database would). For [`DeviceRole::WrongKey`]
    /// devices this is the *enrolment* key — the device itself holds a
    /// corrupted copy.
    pub key: [u8; 32],
    /// Instruction count at fork time (so fleet throughput counts only
    /// post-fork work); rebased to 0 after a mid-run warm reset.
    pub instret_at_fork: u64,
    /// The fault plan's run-long role for this device.
    pub role: DeviceRole,
    /// The verifier's view of this device.
    pub health: DeviceHealth,
    /// Home shard (assigned from the device index when the run is
    /// sharded). Work stealing may *execute* the device elsewhere; spans
    /// always carry the home shard so traces are deterministic.
    pub shard: u32,
    /// Always-on bounded black box of this device's recent fleet
    /// activity, dumped on quarantine or crash-reset.
    pub(crate) flight: FlightRecorder,
    /// Trace spans collected at [`TraceLevel::Spans`] and above.
    pub(crate) spans: Vec<SpanRecord>,
    /// Flight dumps captured during the run (quarantine, crash-reset).
    pub(crate) dumps: Vec<FlightDump>,
    /// Attestation responses produced this round (tagged with the round
    /// of the challenge they answer), delivered to the verifier at the
    /// round boundary.
    pub(crate) outbox: Vec<(u64, Response)>,
    /// In-transit responses held back by a delay fault:
    /// `(deliver_round, challenge_round, response)`.
    delayed: Vec<(u64, u64, Response)>,
    /// Telemetry retired by mid-run warm resets ([`Platform::reset`]
    /// clears the live registry; the pre-reset snapshot accumulates
    /// here so merged fleet counters still cover the whole run).
    accum: MetricsReport,
    /// Host-side fault-injection counters (`chaos.*`) for this device.
    local: MetricsRegistry,
    /// Instructions retired before the last warm reset.
    instret_done: u64,
    /// Cycles elapsed before the last warm reset.
    cycles_done: u64,
}

impl DeviceSim {
    /// Records one span into the always-on flight ring, and into the
    /// trace buffer when `collect` (the caller's trace-level gate) says
    /// the level wants it.
    pub(crate) fn note(&mut self, collect: bool, kind: SpanKind, round: u64, start: u64, end: u64) {
        let span = SpanRecord {
            shard: self.shard,
            device: Some(self.id),
            round,
            kind,
            start_cycle: start,
            end_cycle: end,
        };
        self.flight.record(span.clone());
        if collect {
            self.spans.push(span);
        }
    }

    /// Warm-resets this device mid-run, retiring its telemetry and
    /// cycle/instret counters first so fleet aggregates still cover the
    /// pre-reset work. [`Platform::reset`] clears registers and live
    /// telemetry and re-runs the Secure Loader from PROM; retained RAM
    /// (the update blocks and boot log) survives by construction.
    pub(crate) fn warm_reset(&mut self) {
        let pre = self.platform.machine.metrics_report();
        self.accum.merge(&pre);
        self.instret_done += self.platform.machine.instret - self.instret_at_fork;
        self.cycles_done += self.platform.machine.cycles;
        self.platform
            .reset()
            .expect("Secure Loader re-entry from PROM is deterministic");
        self.instret_at_fork = 0;
    }

    /// Snapshots this device's black box: flight-ring spans, the tail of
    /// its telemetry event ring and its merged counters (device registry
    /// plus host-side `chaos.*` fault counters). Reading the metrics is
    /// idempotent, so capturing mid-run perturbs nothing.
    pub(crate) fn capture_dump(&mut self, round: u64, trigger: &str) -> FlightDump {
        let mut counters = self.platform.machine.metrics_report().counters;
        counters.extend(self.local.snapshot().counters);
        let ring = &self.platform.machine.sys.obs.ring;
        let skip = ring.len().saturating_sub(FLIGHT_EVENT_TAIL);
        let events: Vec<Event> = ring.iter().skip(skip).cloned().collect();
        self.flight.dump(self.id, round, trigger, events, counters)
    }
}

/// Derives a device's RNG seed from the fleet seed (splitmix64 step —
/// adjacent device ids must not yield correlated xorshift streams).
fn device_rng_seed(fleet_seed: u64, id: u32) -> u64 {
    let mut z = fleet_seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(id) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a device's platform key from the fleet seed.
fn device_key(fleet_seed: u64, id: u32) -> [u8; 32] {
    let mut blob = Vec::with_capacity(16);
    blob.extend_from_slice(b"tl-fleet-key");
    blob.extend_from_slice(&fleet_seed.to_le_bytes());
    blob.extend_from_slice(&id.to_le_bytes());
    sha256(&blob)
}

/// Derives the verifier's nonce for challenging device `id` in `round`.
pub(crate) fn challenge_nonce(fleet_seed: u64, id: u32, round: u64) -> [u8; 16] {
    let mut blob = Vec::with_capacity(32);
    blob.extend_from_slice(b"tl-fleet-nonce");
    blob.extend_from_slice(&fleet_seed.to_le_bytes());
    blob.extend_from_slice(&id.to_le_bytes());
    blob.extend_from_slice(&round.to_le_bytes());
    let h = sha256(&blob);
    let mut nonce = [0u8; 16];
    nonce.copy_from_slice(&h[..16]);
    nonce
}

/// XOR mask applied to the device-held key of [`DeviceRole::WrongKey`]
/// devices (any nonzero mask works; fixed so runs are reproducible).
const WRONG_KEY_MASK: u8 = 0x5a;

/// A booted fleet, ready to run.
pub struct Fleet {
    /// The run configuration.
    pub cfg: FleetConfig,
    /// All devices, forked and diverged.
    pub devices: Vec<DeviceSim>,
    /// The master image's boot telemetry (contains the single Secure
    /// Loader execution: `loader.runs == 1`, one set of `loader.*.ops`
    /// phase counters). Forked devices start with cleared telemetry, so
    /// the merged fleet report proves the loader ran once per image.
    pub boot_report: trustlite_obs::MetricsReport,
    /// Reference measurements the verifier expects (trustlet-table
    /// order), read from the master after boot.
    pub expected: Vec<[u8; 32]>,
    /// Trustlet code/data regions bit-flip faults are aimed at
    /// (`(base, size)` in trustlet-table order).
    fault_regions: Vec<(u32, u32)>,
    /// Host wall time the boot-and-fork phase took, in nanoseconds
    /// (trace-only: surfaces as the `fork` shard-phase span, never
    /// digested).
    fork_ns: u64,
    /// Host wall time of the fork+diverge loop alone (excludes the
    /// master boot), in nanoseconds. Never digested.
    fork_loop_ns: u64,
    /// The update-campaign orchestrator, when one is configured (built
    /// against the master's PROM image and reference measurements).
    campaign: Option<CampaignState>,
}

impl Fleet {
    /// Boots the fleet: builds the workload image and runs the Secure
    /// Loader **once**, then forks the booted platform `cfg.devices`
    /// times and diverges each clone (device id, RNG seed, platform
    /// key). When a fault plan is enabled, malicious roles are applied
    /// here — at "deployment time" — by tampering the clone's
    /// measurement table or corrupting its key-store copy of the
    /// platform key.
    pub fn boot(cfg: FleetConfig) -> Result<Fleet, TrustliteError> {
        let t_boot = Instant::now();
        if cfg.devices == 0 {
            return Err(TrustliteError::DegenerateFleet { what: "devices" });
        }
        if cfg.rounds == 0 {
            return Err(TrustliteError::DegenerateFleet { what: "rounds" });
        }
        let mut master = build_workload(&cfg.workload, cfg.level);
        if cfg.dense {
            master.machine.sys.make_dense();
        }
        let boot_report = master.machine.metrics_report();
        let expected = expected_measurements(&mut master)?;
        let mut ordered: Vec<(u32, String)> = master
            .plans
            .iter()
            .map(|(n, p)| (p.tt_index, n.clone()))
            .collect();
        ordered.sort();
        let fault_regions: Vec<(u32, u32)> = ordered
            .iter()
            .flat_map(|(_, name)| {
                let p = &master.plans[name];
                [(p.code_base, p.code_size), (p.data_base, p.data_size)]
            })
            .filter(|&(_, size)| size > 0)
            .collect();
        let campaign = match &cfg.campaign {
            Some(c) => Some(CampaignState::new(
                c.clone(),
                &mut master,
                &expected,
                cfg.devices,
            )?),
            None => None,
        };
        let plan = FaultPlan::new(cfg.chaos);
        let mut devices = Vec::with_capacity(cfg.devices);
        let t_fork = Instant::now();
        for id in 0..cfg.devices as u32 {
            let mut p = master.fork()?;
            let key = device_key(cfg.seed, id);
            p.diverge(id, device_rng_seed(cfg.seed, id), key)?;
            let role = plan.role(cfg.seed, id);
            match role {
                DeviceRole::Honest => {}
                DeviceRole::TamperedMeasurement => {
                    // Tamper the first trustlet's recorded measurement.
                    let name = &ordered
                        .first()
                        .ok_or(TrustliteError::Snapshot("measurement table"))?
                        .1;
                    p.tamper_measurement(name)?;
                }
                DeviceRole::WrongKey => {
                    p.machine
                        .sys
                        .bus
                        .device_mut::<KeyStore>("keystore")
                        .ok_or(TrustliteError::Snapshot("keystore"))?
                        .corrupt(0, WRONG_KEY_MASK)
                        .map_err(|_| TrustliteError::Snapshot("keystore"))?;
                }
            }
            devices.push(DeviceSim {
                id,
                platform: p,
                key,
                instret_at_fork: master.machine.instret,
                role,
                health: DeviceHealth::Healthy,
                shard: 0,
                flight: FlightRecorder::new(DEFAULT_FLIGHT_CAP),
                spans: Vec::new(),
                dumps: Vec::new(),
                outbox: Vec::new(),
                delayed: Vec::new(),
                accum: MetricsReport::default(),
                local: MetricsRegistry::default(),
                instret_done: 0,
                cycles_done: 0,
            });
        }
        let fork_loop_ns = t_fork.elapsed().as_nanos() as u64;
        Ok(Fleet {
            cfg,
            devices,
            boot_report,
            expected,
            fault_regions,
            fork_ns: t_boot.elapsed().as_nanos() as u64,
            fork_loop_ns,
            campaign,
        })
    }

    /// Host wall time of the fork+diverge loop alone (excludes the
    /// master boot), in nanoseconds. Diagnostic; never digested.
    pub fn fork_loop_ns(&self) -> u64 {
        self.fork_loop_ns
    }

    /// Mean host microseconds spent forking+diverging one device.
    pub fn fork_us_per_device(&self) -> f64 {
        self.fork_loop_ns as f64 / 1_000.0 / self.devices.len().max(1) as f64
    }

    /// Runs the fleet for `cfg.rounds` rounds of `cfg.quantum` steps per
    /// device, sharded over `cfg.workers` threads, and merges all
    /// telemetry into one [`FleetReport`].
    ///
    /// Determinism: within a round every device's trajectory depends
    /// only on its own state plus the messages delivered to it at the
    /// round boundary, and every injected fault is a pure function of
    /// `(fleet_seed, device_id, round)`, so devices may step in any
    /// order on any worker. The verifier (phase B, one thread)
    /// processes responses, applies retry/quarantine decisions and
    /// emits next-round challenges in device order. Aggregates are
    /// therefore bit-identical for any worker count, fault plan or not.
    pub fn run(self) -> FleetReport {
        let fork_us_per_device = self.fork_us_per_device();
        let Fleet {
            cfg,
            mut devices,
            boot_report,
            expected,
            fault_regions,
            fork_ns,
            fork_loop_ns: _,
            campaign,
        } = self;
        let nw = cfg.workers.max(1).min(devices.len().max(1));
        let n = devices.len();
        let plan = FaultPlan::new(cfg.chaos);
        let chaos_on = plan.enabled();
        let campaign_on = campaign.is_some();
        let campaign = Mutex::new(campaign);
        let trace = cfg.trace;

        // Contiguous shards; per-shard claim cursors form the
        // work-stealing run queue (a worker that drains its own shard
        // claims from the next one).
        let shards: Vec<(usize, usize)> = (0..nw)
            .map(|w| {
                let start = w * n / nw;
                let end = (w + 1) * n / nw;
                (start, end - start)
            })
            .collect();
        for (s, &(start, len)) in shards.iter().enumerate() {
            for dev in &mut devices[start..start + len] {
                dev.shard = s as u32;
            }
        }
        let cursors: Vec<AtomicUsize> = (0..nw).map(|_| AtomicUsize::new(0)).collect();
        let cells: Vec<Mutex<DeviceSim>> = devices.into_iter().map(Mutex::new).collect();
        // Round-boundary message fabric: the verifier's pending
        // challenge (if any) for each device, tagged with its round.
        let inboxes: Vec<Mutex<Option<(u64, Challenge)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let barrier = Barrier::new(nw);
        let verifier = Mutex::new(VerifierState::new(
            n,
            cfg.max_retries,
            cfg.timeout_rounds,
            trace,
        ));
        // Host-clock shard-phase spans (trace-only, never digested): each
        // worker buffers its own and appends once at thread exit.
        let t0 = Instant::now();
        let host_spans: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

        // Seed round 0's challenges (the verifier "speaks first").
        if cfg.attest_every > 0 {
            let mut ver = verifier.lock().unwrap();
            for (id, inbox) in inboxes.iter().enumerate() {
                if (id as u64).is_multiple_of(cfg.attest_every) {
                    ver.note_challenge(id, 0);
                    *inbox.lock().unwrap() = Some((
                        0,
                        Challenge {
                            nonce: challenge_nonce(cfg.seed, id as u32, 0),
                        },
                    ));
                }
            }
        }

        let claim = |worker: usize| -> Option<usize> {
            for k in 0..nw {
                let s = (worker + k) % nw;
                let (start, len) = shards[s];
                let i = cursors[s].fetch_add(1, Ordering::Relaxed);
                if i < len {
                    return Some(start + i);
                }
            }
            None
        };

        std::thread::scope(|scope| {
            for worker in 0..nw {
                let cfg = &cfg;
                let cells = &cells;
                let inboxes = &inboxes;
                let cursors = &cursors;
                let barrier = &barrier;
                let expected = &expected;
                let verifier = &verifier;
                let claim = &claim;
                let plan = &plan;
                let fault_regions = &fault_regions;
                let campaign = &campaign;
                let t0 = &t0;
                let host_spans = &host_spans;
                scope.spawn(move || {
                    let mut phase_spans: Vec<SpanRecord> = Vec::new();
                    let phase = |spans: &mut Vec<SpanRecord>, kind, round, start: u64| {
                        spans.push(SpanRecord {
                            shard: worker as u32,
                            device: None,
                            round,
                            kind,
                            start_cycle: start,
                            end_cycle: t0.elapsed().as_nanos() as u64,
                        });
                    };
                    for round in 0..cfg.rounds {
                        let a0 = if trace.spans_on() {
                            t0.elapsed().as_nanos() as u64
                        } else {
                            0
                        };
                        // Phase A: step every device one quantum,
                        // delivering round-boundary messages and
                        // applying this round's scheduled faults.
                        // Quarantined devices are skipped entirely —
                        // the run queue just moves on, so they never
                        // stall the barrier.
                        while let Some(idx) = claim(worker) {
                            let mut dev = cells[idx].lock().unwrap();
                            if dev.health.is_quarantined() {
                                continue;
                            }
                            let fault = if chaos_on {
                                plan.round_fault(cfg.seed, dev.id, round)
                            } else {
                                None
                            };
                            step_device(
                                &mut dev,
                                round,
                                fault,
                                cfg.quantum,
                                fault_regions,
                                &inboxes[idx],
                                trace,
                            );
                        }
                        if trace.spans_on() {
                            phase(&mut phase_spans, SpanKind::Execute, round, a0);
                        }
                        barrier.wait();
                        // Phase B: the verifier drains responses,
                        // applies retry/quarantine decisions and
                        // enqueues next-round challenges, in device
                        // order; worker 0 also re-arms the run queue.
                        if worker == 0 {
                            let v0 = if trace.spans_on() {
                                t0.elapsed().as_nanos() as u64
                            } else {
                                0
                            };
                            let mut ver = verifier.lock().unwrap();
                            let mut camp = campaign.lock().unwrap();
                            for (id, cell) in cells.iter().enumerate() {
                                let mut guard = cell.lock().unwrap();
                                let dev = &mut *guard;
                                // A campaign run verifies each device
                                // against the slot its responses were
                                // produced under (patched once the
                                // staged slot is live).
                                let exp: &[[u8; 32]] = match camp.as_ref() {
                                    Some(c) => c.expected_for(id),
                                    None => expected.as_slice(),
                                };
                                ver.round_boundary(id, dev, round, cfg.seed, exp);
                                if let Some(c) = camp.as_mut() {
                                    let uf = if chaos_on {
                                        plan.update_fault(cfg.seed, dev.id, round)
                                    } else {
                                        None
                                    };
                                    c.step(id, dev, round, cfg.seed, uf);
                                }
                                let next = round + 1;
                                if ver.should_challenge(id, dev, next, cfg.attest_every, cfg.rounds)
                                {
                                    ver.note_challenge(id, next);
                                    *inboxes[id].lock().unwrap() = Some((
                                        next,
                                        Challenge {
                                            nonce: challenge_nonce(cfg.seed, id as u32, next),
                                        },
                                    ));
                                }
                            }
                            for c in cursors.iter() {
                                c.store(0, Ordering::Relaxed);
                            }
                            if trace.spans_on() {
                                phase(&mut phase_spans, SpanKind::Verify, round, v0);
                            }
                        }
                        barrier.wait();
                    }
                    if !phase_spans.is_empty() {
                        host_spans.lock().unwrap().extend(phase_spans);
                    }
                });
            }
        });

        let mut devices: Vec<DeviceSim> =
            cells.into_iter().map(|c| c.into_inner().unwrap()).collect();
        let m0 = t0.elapsed().as_nanos() as u64;

        // Assemble the trace: fork span, host-clock phase spans (sorted
        // by (round, kind, shard) — worker arrival order is racy, the
        // sorted order is not), then per-device and verifier spans in
        // deterministic phase-B order.
        let mut spans: Vec<SpanRecord> = Vec::new();
        if trace.spans_on() {
            spans.push(SpanRecord {
                shard: 0,
                device: None,
                round: 0,
                kind: SpanKind::Fork,
                start_cycle: 0,
                end_cycle: fork_ns,
            });
            let mut host = host_spans.into_inner().unwrap();
            host.sort_by_key(|s| (s.round, s.kind, s.shard));
            spans.extend(host);
        }

        // Merge: one boot registry per image + every device's registry
        // (including telemetry retired by mid-run resets and host-side
        // fault counters) + the verifier's reason counters and latency
        // histograms. Histograms never enter the digest blob below.
        let mut ver = verifier.into_inner().unwrap();
        for id in 0..n {
            ver.metrics
                .observe("fleet.retries_per_device", u64::from(ver.retries_total[id]));
        }
        let campaign = campaign.into_inner().unwrap();
        let mut merged = boot_report;
        merged.merge(&ver.metrics.snapshot());
        if let Some(c) = &campaign {
            merged.merge(&c.metrics.snapshot());
        }
        let mut total_instret = 0u64;
        let mut total_cycles = 0u64;
        let mut digest_blob = Vec::new();
        let mut health = Vec::with_capacity(n);
        let mut flight_dumps: Vec<FlightDump> = Vec::new();
        // Host-side memory footprint: summed here at merge, kept OUT of
        // the digest blob (dense and sparse backing must digest alike).
        let mut resident_bytes = 0u64;
        let mut addressable_bytes = 0u64;
        let mut code_cache_bytes = 0u64;
        for dev in devices.iter_mut() {
            resident_bytes += dev.platform.resident_bytes();
            addressable_bytes += dev.platform.addressable_bytes();
            code_cache_bytes += dev.platform.code_cache_bytes();
            let r = dev.platform.machine.metrics_report();
            merged.merge(&r);
            merged.merge(&dev.accum);
            merged.merge(&dev.local.snapshot());
            total_instret += dev.instret_done + dev.platform.machine.instret - dev.instret_at_fork;
            total_cycles += dev.cycles_done + dev.platform.machine.cycles;
            digest_blob.extend_from_slice(&state_digest(&mut dev.platform));
            health.push(dev.health);
            spans.append(&mut dev.spans);
            flight_dumps.append(&mut dev.dumps);
        }
        spans.append(&mut ver.spans);
        let ok = ver.ok;
        let fail = ver.fail;
        digest_blob.extend_from_slice(&ok.to_le_bytes());
        digest_blob.extend_from_slice(&fail.to_le_bytes());
        for (k, v) in &merged.counters {
            digest_blob.extend_from_slice(k.as_bytes());
            digest_blob.extend_from_slice(&v.to_le_bytes());
        }
        for (name, cycles) in &merged.attribution {
            digest_blob.extend_from_slice(name.as_bytes());
            digest_blob.extend_from_slice(&cycles.to_le_bytes());
        }
        // Health only enters the digest under an active fault plan, so
        // honest runs stay byte-identical to the pre-chaos engine.
        if chaos_on {
            for h in &health {
                digest_blob.extend_from_slice(&h.digest_bytes());
            }
        }
        // Campaign state likewise only enters the digest when a
        // campaign is configured, so non-campaign runs keep their
        // pre-campaign digests.
        if let Some(c) = &campaign {
            for id in 0..n {
                digest_blob.extend_from_slice(&c.digest_bytes(id));
            }
        }

        if trace.spans_on() {
            spans.push(SpanRecord {
                shard: 0,
                device: None,
                round: cfg.rounds,
                kind: SpanKind::Merge,
                start_cycle: m0,
                end_cycle: t0.elapsed().as_nanos() as u64,
            });
        }

        FleetReport {
            devices: n,
            workers: nw,
            rounds: cfg.rounds,
            quantum: cfg.quantum,
            seed: cfg.seed,
            workload: cfg.workload.clone(),
            trace_level: trace,
            chaos: chaos_on,
            campaign: campaign_on,
            campaign_states: campaign.map(|c| c.states).unwrap_or_default(),
            total_instret,
            total_cycles,
            attest_ok: ok,
            attest_fail: fail,
            health,
            spans,
            flight_dumps,
            merged,
            fork_us_per_device,
            resident_bytes,
            addressable_bytes,
            code_cache_bytes,
            dense: cfg.dense,
            digest: sha256(&digest_blob),
        }
    }
}

/// Phase-A work for one device in one round: release matured delayed
/// responses, answer the pending challenge (subject to message faults),
/// then execute the quantum (subject to state faults).
fn step_device(
    dev: &mut DeviceSim,
    round: u64,
    fault: Option<RoundFault>,
    quantum: u64,
    fault_regions: &[(u32, u32)],
    inbox: &Mutex<Option<(u64, Challenge)>>,
    trace: TraceLevel,
) {
    let collect = trace.spans_on();
    // Delayed traffic matures at this round's boundary; it precedes any
    // response produced this round (it is older).
    if !dev.delayed.is_empty() {
        let mut kept = Vec::with_capacity(dev.delayed.len());
        for (deliver, ch_round, resp) in dev.delayed.drain(..) {
            if deliver <= round {
                dev.outbox.push((ch_round, resp));
            } else {
                kept.push((deliver, ch_round, resp));
            }
        }
        dev.delayed = kept;
    }

    if let Some((ch_round, ch)) = inbox.lock().unwrap().take() {
        dev.note(collect, SpanKind::Challenge, round, ch_round, ch_round);
        match fault {
            Some(RoundFault::DropResponse) => {
                dev.local.inc("chaos.response_dropped");
                dev.note(collect, SpanKind::RespDrop, round, round, round);
            }
            Some(RoundFault::CorruptResponse { bit }) => {
                if let Ok(mut resp) = attest::respond(&mut dev.platform, &ch) {
                    resp.tag[usize::from(bit >> 3)] ^= 1 << (bit & 7);
                    dev.outbox.push((ch_round, resp));
                    dev.local.inc("chaos.response_corrupted");
                    dev.note(collect, SpanKind::RespCorrupt, round, round, round);
                }
            }
            Some(RoundFault::DelayResponse { rounds }) => {
                if let Ok(resp) = attest::respond(&mut dev.platform, &ch) {
                    dev.delayed.push((round + rounds, ch_round, resp));
                    dev.local.inc("chaos.response_delayed");
                    dev.note(collect, SpanKind::RespDelay, round, round, round + rounds);
                }
            }
            _ => {
                if let Ok(resp) = attest::respond(&mut dev.platform, &ch) {
                    dev.outbox.push((ch_round, resp));
                    dev.note(collect, SpanKind::Respond, round, round, round);
                }
            }
        }
    }

    match fault {
        Some(RoundFault::BitFlip { select, bit }) if !fault_regions.is_empty() => {
            let (base, size) = fault_regions[(select % fault_regions.len() as u64) as usize];
            let addr = base + ((select >> 16) % u64::from(size)) as u32;
            dev.platform
                .machine
                .sys
                .bus
                .inject_bit_flip(addr, bit)
                .expect("fault regions are mapped RAM");
            dev.local.inc("chaos.bit_flips");
            dev.note(collect, SpanKind::BitFlip, round, round, round);
            run_quantum_with_spans(dev, trace, round, quantum);
        }
        Some(RoundFault::CrashReset { at }) => {
            let crash_step = if quantum == 0 { 0 } else { at % quantum };
            let c0 = dev.platform.machine.cycles;
            dev.platform.run(crash_step);
            // The crash-reset span covers the pre-crash partial quantum;
            // the black box is captured *before* the warm reset clears
            // the telemetry it snapshots.
            dev.note(
                collect,
                SpanKind::CrashReset,
                round,
                c0,
                dev.platform.machine.cycles,
            );
            let dump = dev.capture_dump(round, "crash_reset");
            dev.dumps.push(dump);
            // A warm reset drops captured telemetry and restarts the
            // cycle/instret counters; `warm_reset` retires both first so
            // fleet aggregates still cover the pre-crash work.
            dev.warm_reset();
            dev.local.inc("chaos.crash_resets");
            run_quantum_with_spans(dev, trace, round, quantum - crash_step);
        }
        _ => {
            run_quantum_with_spans(dev, trace, round, quantum);
        }
    }
}

/// Runs one execution quantum on a device and records its `Quantum`
/// span — plus a `BlockExec` span over the same cycle window when any
/// instructions retired through the superblock engine, so traces show
/// which quanta ran block-compiled.
fn run_quantum_with_spans(dev: &mut DeviceSim, trace: TraceLevel, round: u64, steps: u64) {
    let c0 = dev.platform.machine.cycles;
    let b0 = dev.platform.machine.sys.block_stats().instret;
    dev.platform.run(steps);
    let c1 = dev.platform.machine.cycles;
    dev.note(trace.full_on(), SpanKind::Quantum, round, c0, c1);
    let b1 = dev.platform.machine.sys.block_stats().instret;
    if b1 > b0 {
        dev.note(trace.full_on(), SpanKind::BlockExec, round, c0, c1);
    }
}

/// Reads the reference measurements (trustlet-table order) the verifier
/// expects every healthy device to report.
fn expected_measurements(master: &mut Platform) -> Result<Vec<[u8; 32]>, TrustliteError> {
    let mut ordered: Vec<(u32, String)> = master
        .plans
        .iter()
        .map(|(n, p)| (p.tt_index, n.clone()))
        .collect();
    ordered.sort();
    ordered
        .into_iter()
        .map(|(_, name)| master.measurement(&name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::FailReason;

    #[test]
    fn derived_identities_are_distinct_and_stable() {
        assert_eq!(device_key(1, 0), device_key(1, 0));
        assert_ne!(device_key(1, 0), device_key(1, 1));
        assert_ne!(device_key(1, 0), device_key(2, 0));
        assert_ne!(device_rng_seed(1, 0), device_rng_seed(1, 1));
        assert_ne!(challenge_nonce(1, 0, 0), challenge_nonce(1, 0, 1));
    }

    #[test]
    fn fork_boot_runs_loader_once() {
        let fleet = Fleet::boot(FleetConfig {
            devices: 5,
            ..FleetConfig::default()
        })
        .expect("boot");
        assert_eq!(fleet.devices.len(), 5);
        assert_eq!(fleet.boot_report.counters["loader.runs"], 1);
        let report = fleet.run();
        // Forked devices contribute no loader runs of their own.
        assert_eq!(report.merged.counters["loader.runs"], 1);
        assert!(report.total_instret > 0);
    }

    #[test]
    fn attestation_fabric_accepts_honest_devices() {
        let report = Fleet::boot(FleetConfig {
            devices: 4,
            rounds: 4,
            attest_every: 2,
            ..FleetConfig::default()
        })
        .expect("boot")
        .run();
        assert!(report.attest_ok > 0, "some challenges must round-trip");
        assert_eq!(report.attest_fail, 0, "honest devices never fail");
        assert!(report.health.iter().all(|h| *h == DeviceHealth::Healthy));
    }

    #[test]
    fn worker_count_does_not_change_aggregates() {
        let run = |workers| {
            Fleet::boot(FleetConfig {
                devices: 6,
                workers,
                rounds: 3,
                quantum: 2_000,
                ..FleetConfig::default()
            })
            .expect("boot")
            .run()
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(
            a.digest, b.digest,
            "aggregate digest must not depend on sharding"
        );
        assert_eq!(a.total_instret, b.total_instret);
        assert_eq!(a.merged.counters, b.merged.counters);
    }

    #[test]
    fn degenerate_configs_are_named_errors() {
        let err = Fleet::boot(FleetConfig {
            devices: 0,
            ..FleetConfig::default()
        })
        .err()
        .expect("devices == 0 must not boot");
        assert_eq!(err, TrustliteError::DegenerateFleet { what: "devices" });
        assert!(err.to_string().contains("`devices` must be nonzero"));
        let err = Fleet::boot(FleetConfig {
            rounds: 0,
            ..FleetConfig::default()
        })
        .err()
        .expect("rounds == 0 must not boot");
        assert_eq!(err, TrustliteError::DegenerateFleet { what: "rounds" });
    }

    /// ROADMAP "Malicious-device round": a device with a tampered
    /// measurement is rejected on the measurement, a device with a
    /// wrong key on the tag, and each rejection lands in its own
    /// reason counter.
    #[test]
    fn malicious_devices_are_rejected_with_the_right_reason() {
        let boot = |role_seed: u64| {
            // Find a chaos seed assignment by brute force is fragile;
            // instead build an honest fleet and tamper by hand.
            let mut fleet = Fleet::boot(FleetConfig {
                devices: 3,
                rounds: 4,
                quantum: 1_000,
                attest_every: 1,
                // One retry (at a 1-round backoff), then quarantine:
                // malicious devices are written off by round 1.
                max_retries: 1,
                seed: role_seed,
                ..FleetConfig::default()
            })
            .expect("boot");
            // Device 1: tampered measurement. Device 2: wrong key.
            let name = fleet.devices[1]
                .platform
                .plans
                .keys()
                .next()
                .expect("workload has trustlets")
                .clone();
            fleet.devices[1]
                .platform
                .tamper_measurement(&name)
                .expect("tamper");
            fleet.devices[2]
                .platform
                .machine
                .sys
                .bus
                .device_mut::<KeyStore>("keystore")
                .unwrap()
                .corrupt(0, 0xff)
                .unwrap();
            fleet
        };
        let report = boot(77).run();
        let c = &report.merged;
        assert!(report.attest_ok > 0, "the honest device still passes");
        assert!(c.counters["attest.reject.bad_measurement"] > 0);
        assert!(c.counters["attest.reject.bad_tag"] > 0);
        assert_eq!(
            c.sum_prefix("attest.reject."),
            report.attest_fail,
            "reason counters must sum to attest_fail"
        );
        assert_eq!(report.health[0], DeviceHealth::Healthy);
        assert!(matches!(
            report.health[1],
            DeviceHealth::Quarantined {
                reason: FailReason::BadMeasurement,
                ..
            }
        ));
        assert!(matches!(
            report.health[2],
            DeviceHealth::Quarantined {
                reason: FailReason::BadTag,
                ..
            }
        ));
    }

    #[test]
    fn disabled_chaos_is_byte_identical_to_no_chaos() {
        let base = FleetConfig {
            devices: 5,
            rounds: 3,
            quantum: 1_500,
            ..FleetConfig::default()
        };
        let off = Fleet::boot(base.clone()).expect("boot").run();
        // A nonzero chaos *seed* with zero rates must not perturb
        // anything either: rates gate every draw.
        let zeroed = Fleet::boot(FleetConfig {
            chaos: ChaosConfig {
                seed: 0xdead_beef,
                fault_rate_pm: 0,
                malicious_pm: 0,
            },
            ..base
        })
        .expect("boot")
        .run();
        assert_eq!(off.digest, zeroed.digest);
        assert_eq!(off.merged.counters, zeroed.merged.counters);
    }

    #[test]
    fn chaos_run_is_reproducible_and_worker_invariant() {
        let cfg = |workers| FleetConfig {
            devices: 6,
            workers,
            rounds: 5,
            quantum: 1_200,
            attest_every: 1,
            chaos: ChaosConfig {
                seed: 9,
                fault_rate_pm: 700,
                malicious_pm: 300,
            },
            ..FleetConfig::default()
        };
        let a = Fleet::boot(cfg(1)).expect("boot").run();
        let b = Fleet::boot(cfg(4)).expect("boot").run();
        let c = Fleet::boot(cfg(1)).expect("boot").run();
        assert_eq!(a.digest, b.digest, "fault plan must be worker-invariant");
        assert_eq!(a.digest, c.digest, "fault plan must be repeatable");
        assert_eq!(a.merged.counters, b.merged.counters);
        assert_eq!(a.health, b.health);
        assert!(
            a.merged.sum_prefix("chaos.") > 0,
            "a 700‰ plan must actually inject"
        );
        assert_eq!(
            a.merged.sum_prefix("attest.reject."),
            a.attest_fail,
            "reason counters must sum to attest_fail"
        );
    }

    /// ISSUE PR 10: an honest fleet converges — every device completes
    /// the campaign behind the attested re-measurement gate, and every
    /// campaign reboot is attributed in `loader.runs`.
    #[test]
    fn campaign_converges_on_an_honest_fleet() {
        let report = Fleet::boot(FleetConfig {
            devices: 8,
            rounds: 12,
            quantum: 1_000,
            attest_every: 2,
            campaign: Some(CampaignConfig::default()),
            ..FleetConfig::default()
        })
        .expect("boot")
        .run();
        assert_eq!(
            report.campaign_completed(),
            8,
            "{:?}",
            report.campaign_states
        );
        assert_eq!(report.campaign_rolled_back(), 0);
        assert_eq!(report.campaign_skipped(), 0);
        let c = |n: &str| report.merged.counters.get(n).copied().unwrap_or(0);
        assert_eq!(c("campaign.staged"), 8);
        assert_eq!(c("campaign.confirmed"), 8);
        assert_eq!(
            c("loader.runs"),
            1 + c("campaign.reboots") + c("chaos.crash_resets"),
            "every campaign reboot re-runs the Secure Loader exactly once"
        );
        // The attestation fabric keeps accepting across the slot
        // switch: devices end the run healthy.
        assert!(report.health.iter().all(|h| *h == DeviceHealth::Healthy));
        assert!(report.attest_ok > 0);
    }

    /// A campaign under chaos still yields worker-invariant,
    /// reproducible aggregates, and every device is accounted for.
    #[test]
    fn campaign_under_chaos_is_worker_invariant_and_total() {
        let cfg = |workers| FleetConfig {
            devices: 8,
            workers,
            rounds: 14,
            quantum: 1_000,
            attest_every: 2,
            max_retries: u32::MAX,
            chaos: ChaosConfig {
                seed: 11,
                fault_rate_pm: 500,
                malicious_pm: 0,
            },
            campaign: Some(CampaignConfig {
                failure_budget: 8,
                ..CampaignConfig::default()
            }),
            ..FleetConfig::default()
        };
        let a = Fleet::boot(cfg(1)).expect("boot").run();
        let b = Fleet::boot(cfg(4)).expect("boot").run();
        assert_eq!(a.digest, b.digest, "campaign must be worker-invariant");
        assert_eq!(a.campaign_states, b.campaign_states);
        assert_eq!(a.merged.counters, b.merged.counters);
        assert_eq!(
            a.campaign_completed()
                + a.campaign_rolled_back()
                + a.campaign_quarantined()
                + a.campaign_skipped(),
            a.devices,
            "every device lands in exactly one campaign bucket"
        );
        let c = |n: &str| a.merged.counters.get(n).copied().unwrap_or(0);
        assert_eq!(
            c("loader.runs"),
            1 + c("campaign.reboots") + c("chaos.crash_resets"),
            "loader runs must attribute exactly under campaign + chaos"
        );
    }

    /// A campaign config must not perturb a run's totals relative to
    /// its own reruns, and a run *without* a campaign keeps the digest
    /// it had before campaigns existed (conditional digest inclusion).
    #[test]
    fn campaign_off_digests_match_and_on_is_repeatable() {
        let base = FleetConfig {
            devices: 4,
            rounds: 10,
            quantum: 800,
            ..FleetConfig::default()
        };
        let off1 = Fleet::boot(base.clone()).expect("boot").run();
        let off2 = Fleet::boot(base.clone()).expect("boot").run();
        assert_eq!(off1.digest, off2.digest);
        assert!(off1.campaign_states.is_empty());
        let on = |_| {
            Fleet::boot(FleetConfig {
                campaign: Some(CampaignConfig::default()),
                ..base.clone()
            })
            .expect("boot")
            .run()
        };
        let a = on(());
        let b = on(());
        assert_eq!(a.digest, b.digest, "campaign runs are reproducible");
        assert_ne!(
            a.digest, off1.digest,
            "the campaign visibly changes device trajectories"
        );
    }

    #[test]
    fn crash_reset_reruns_the_loader_and_keeps_totals() {
        // Full-rate faults over enough cells guarantees crash resets.
        let report = Fleet::boot(FleetConfig {
            devices: 4,
            rounds: 6,
            quantum: 1_000,
            attest_every: 0,
            max_retries: u32::MAX, // nobody quarantines: every cell faults
            chaos: ChaosConfig {
                seed: 3,
                fault_rate_pm: 1000,
                malicious_pm: 0,
            },
            ..FleetConfig::default()
        })
        .expect("boot")
        .run();
        let resets = report.merged.counters["chaos.crash_resets"];
        assert!(resets > 0, "a 1000‰ plan over 24 cells must crash someone");
        assert_eq!(
            report.merged.counters["loader.runs"],
            1 + resets,
            "each injected reset re-runs the Secure Loader exactly once"
        );
    }
}
