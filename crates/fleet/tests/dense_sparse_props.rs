//! Reference-vs-default identity: copy-on-write sharing of device memory
//! and code caches is a host-side artifact, so fleets booted in the
//! dense reference mode (`FleetConfig::dense`: everything materialized,
//! every fork a deep copy) must produce byte-identical digests, counters,
//! attribution, health and campaign states at every capture level,
//! worker count, and chaos on/off — while the host-side footprint fields
//! (the only place the mode is allowed to show) differ exactly as
//! designed.

use proptest::prelude::*;
use trustlite_chaos::ChaosConfig;
use trustlite_fleet::{CampaignConfig, Fleet, FleetConfig, FleetReport};
use trustlite_obs::ObsLevel;

fn run(cfg: &FleetConfig, dense: bool, workers: usize) -> FleetReport {
    Fleet::boot(FleetConfig {
        dense,
        workers,
        ..cfg.clone()
    })
    .expect("boot")
    .run()
}

/// Asserts that the reference run agrees with the default run on
/// everything the simulation determines.
fn assert_same_simulation(reference: &FleetReport, default: &FleetReport, what: &str) {
    assert_eq!(reference.digest, default.digest, "digest diverged: {what}");
    assert_eq!(reference.merged.counters, default.merged.counters, "{what}");
    assert_eq!(
        reference.merged.attribution, default.merged.attribution,
        "{what}"
    );
    assert_eq!(reference.health, default.health, "{what}");
    assert_eq!(reference.campaign_states, default.campaign_states, "{what}");
    assert_eq!(reference.total_instret, default.total_instret, "{what}");
}

/// Runs one fleet shape at every capture level with chaos off and on,
/// once in the default mode (1 worker) and in the reference mode at 1
/// and 4 workers; asserts the simulations agree and hands each
/// (reference, default) pair to `footprint` for the host-side checks.
fn assert_modes_agree(
    seed: u64,
    devices: usize,
    rounds: u64,
    footprint: impl Fn(&FleetReport, &FleetReport),
) {
    for chaos_on in [false, true] {
        for level in [
            ObsLevel::Off,
            ObsLevel::Metrics,
            ObsLevel::Events,
            ObsLevel::Full,
        ] {
            let cfg = FleetConfig {
                devices,
                rounds,
                quantum: 1_500,
                seed,
                level,
                attest_every: 1,
                chaos: if chaos_on {
                    ChaosConfig {
                        seed: seed ^ 0xc0c0,
                        fault_rate_pm: 700,
                        malicious_pm: 300,
                    }
                } else {
                    ChaosConfig::off()
                },
                ..FleetConfig::default()
            };
            let default = run(&cfg, false, 1);
            for workers in [1usize, 4] {
                let reference = run(&cfg, true, workers);
                assert_same_simulation(
                    &reference,
                    &default,
                    &format!("level {level:?}, {workers} workers, chaos {chaos_on}"),
                );
                footprint(&reference, &default);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn dense_and_sparse_backing_digest_identically(
        seed in 1u64..1_000_000,
        devices in 3usize..6,
        rounds in 2u64..5,
    ) {
        assert_modes_agree(seed, devices, rounds, |dense, sparse| {
            // The memory footprint is where the backing IS allowed to
            // differ: dense materializes the whole address space,
            // sparse only what the devices actually touched.
            prop_assert_eq!(dense.resident_bytes, dense.addressable_bytes);
            prop_assert!(
                sparse.resident_bytes < sparse.addressable_bytes / 2,
                "sparse fleets must not materialize most of the address space: {} of {}",
                sparse.resident_bytes, sparse.addressable_bytes
            );
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn shared_and_private_code_caches_digest_identically(
        seed in 1u64..1_000_000,
        devices in 3usize..6,
        rounds in 2u64..5,
    ) {
        assert_modes_agree(seed, devices, rounds, |private, shared| {
            // The code-cache footprint is where sharing IS allowed to
            // differ: every reference device holds its own tables.
            prop_assert!(shared.code_cache_bytes > 0);
            prop_assert!(
                shared.code_cache_bytes < private.code_cache_bytes,
                "shared code caches must be cheaper than private ones: {} vs {}",
                shared.code_cache_bytes, private.code_cache_bytes
            );
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    /// Campaign outcomes (per-device states, counters, digest) are a
    /// pure function of the config: the reference mode and the worker
    /// count must not change which devices complete, roll back, or how
    /// many reboots it took.
    #[test]
    fn campaign_outcome_is_backing_and_worker_invariant(
        seed in 1u64..1_000_000,
        devices in 3usize..6,
        canary_pct in 1u32..100,
        chaos_on in any::<bool>(),
    ) {
        let cfg = FleetConfig {
            devices,
            rounds: 10,
            quantum: 1_000,
            seed,
            attest_every: 2,
            max_retries: u32::MAX,
            campaign: Some(CampaignConfig {
                canary_pct,
                failure_budget: devices as u32,
                ..CampaignConfig::default()
            }),
            chaos: if chaos_on {
                ChaosConfig { seed: seed ^ 0xc0c0, fault_rate_pm: 500, malicious_pm: 0 }
            } else {
                ChaosConfig::off()
            },
            ..FleetConfig::default()
        };
        let reference = run(&cfg, false, 1);
        prop_assert_eq!(
            reference.campaign_completed()
                + reference.campaign_rolled_back()
                + reference.campaign_quarantined()
                + reference.campaign_skipped(),
            devices,
            "every device lands in exactly one campaign bucket"
        );
        for (dense, workers) in [(false, 4), (true, 1), (true, 4)] {
            let other = run(&cfg, dense, workers);
            assert_same_simulation(
                &other,
                &reference,
                &format!("campaign, dense {dense}, {workers} workers, chaos {chaos_on}"),
            );
        }
    }
}

/// The config `tlfleet` starts from before applying flags.
fn tlfleet_defaults() -> FleetConfig {
    FleetConfig {
        devices: 16,
        workers: 1,
        quantum: 10_000,
        rounds: 8,
        attest_every: 4,
        ..FleetConfig::default()
    }
}

/// Runs each CI configuration at 1 worker in the default mode and at 1
/// and 4 workers in the reference mode, and asserts the reference runs
/// reproduce the default run.
fn assert_ci_matrix(configs: [FleetConfig; 2]) {
    for cfg in configs {
        let default = run(&cfg, false, 1);
        for workers in [1usize, 4] {
            let reference = run(&cfg, true, workers);
            assert_same_simulation(
                &reference,
                &default,
                &format!("{workers} workers, chaos {:?}", cfg.chaos),
            );
        }
    }
}

/// CI's `fork-identity` matrix:
/// `tlfleet --devices 24 --rounds 4 --quantum 2000 --attest-every 1`,
/// then the same with `--chaos 7 --fault-rate 500 --malicious 400
/// --max-retries 1`.
#[test]
fn fork_identity_ci_matrix() {
    let base = FleetConfig {
        devices: 24,
        rounds: 4,
        quantum: 2_000,
        attest_every: 1,
        ..tlfleet_defaults()
    };
    let chaos = FleetConfig {
        chaos: ChaosConfig {
            fault_rate_pm: 500,
            malicious_pm: 400,
            ..ChaosConfig::with_seed(7)
        },
        max_retries: 1,
        ..base.clone()
    };
    assert_ci_matrix([base, chaos]);
}

/// CI's `campaign-identity` matrix:
/// `tlfleet --devices 24 --rounds 10 --quantum 1000 --attest-every 2
/// --campaign --canary-pct 25 --failure-budget 24`, then the same with
/// `--chaos 7 --fault-rate 500 --max-retries 1000000` (which keeps the
/// 150‰ malicious default of `ChaosConfig::with_seed`).
#[test]
fn campaign_identity_ci_matrix() {
    let base = FleetConfig {
        devices: 24,
        rounds: 10,
        quantum: 1_000,
        attest_every: 2,
        campaign: Some(CampaignConfig {
            canary_pct: 25,
            failure_budget: 24,
            ..CampaignConfig::default()
        }),
        ..tlfleet_defaults()
    };
    let chaos = FleetConfig {
        chaos: ChaosConfig {
            fault_rate_pm: 500,
            ..ChaosConfig::with_seed(7)
        },
        max_retries: 1_000_000,
        ..base.clone()
    };
    assert_ci_matrix([base, chaos]);
}

/// The footprint fields themselves must never enter the digest: two runs
/// differing only in mode agree on the digest even though resident and
/// code-cache bytes differ by an order of magnitude.
#[test]
fn footprint_fields_stay_out_of_the_digest() {
    let cfg = FleetConfig {
        devices: 4,
        rounds: 3,
        quantum: 2_000,
        ..FleetConfig::default()
    };
    let default = run(&cfg, false, 1);
    let reference = run(&cfg, true, 1);
    assert_eq!(default.digest, reference.digest);
    assert!(default.resident_bytes * 2 < reference.resident_bytes);
    assert_eq!(reference.resident_bytes, reference.addressable_bytes);
    assert_eq!(default.addressable_bytes, reference.addressable_bytes);
    assert!(default.fork_us_per_device > 0.0);
    // Code-cache footprint follows the same rules: reported, positive,
    // never digested, and sharing must be cheaper than running every
    // device on its own private tables.
    assert!(default.code_cache_bytes > 0);
    assert!(default.code_cache_bytes < reference.code_cache_bytes);
    assert!(!default.dense);
    assert!(reference.dense);
    let line = default.memory_line();
    assert!(
        line.contains("sparse") && line.contains("(shared)"),
        "{line}"
    );
    let line = reference.memory_line();
    assert!(
        line.contains("dense") && line.contains("(private)"),
        "{line}"
    );
}
