//! Snapshot/fork correctness properties: a forked platform must be
//! architecturally indistinguishable from the original. For every macro
//! workload, `fork → step k` is bit-identical to `step k` on the
//! original — including snapshots taken with an interrupt pending and
//! snapshots taken mid-exception (inside a handler).

use proptest::prelude::*;
use trustlite::TrustliteError;
use trustlite_bench::state_digest;
use trustlite_bench::throughput::{build_workload, WORKLOADS};
use trustlite_mem::IrqRequest;
use trustlite_obs::ObsLevel;
use trustlite_periph::Uart;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn fork_then_step_matches_original(
        widx in 0usize..3,
        pre in 0u64..600,
        k in 1u64..400,
        irq in any::<bool>(),
    ) {
        let mut p = build_workload(WORKLOADS[widx], ObsLevel::Metrics);
        p.run(pre);
        if irq {
            // Snapshot with an undelivered interrupt in flight: the
            // pending queue must survive the fork.
            p.machine.raise_irq(IrqRequest { line: 0, handler: None });
        }
        let mut f = p.fork().expect("fork");
        p.run(k);
        f.run(k);
        prop_assert_eq!(state_digest(&mut p), state_digest(&mut f));
        prop_assert_eq!(p.machine.cycles, f.machine.cycles);
        prop_assert_eq!(p.machine.exc_log, f.machine.exc_log);
    }
}

/// Deterministic mid-exception case: snapshot at the exact step where
/// the first exception entry is logged — the machine is inside the
/// handler, with banked state live — and check the continuation.
#[test]
fn fork_mid_exception_matches_original() {
    for workload in WORKLOADS {
        let mut p = build_workload(workload, ObsLevel::Metrics);
        let mut entered = false;
        for _ in 0..200_000 {
            p.run(1);
            if !p.machine.exc_log.is_empty() {
                entered = true;
                break;
            }
        }
        if !entered {
            // Workloads without exception traffic (straight-line loops)
            // are covered by the property test above.
            continue;
        }
        let mut f = p.fork().expect("fork mid-exception");
        p.run(5_000);
        f.run(5_000);
        assert_eq!(
            state_digest(&mut p),
            state_digest(&mut f),
            "{workload}: mid-exception fork diverged"
        );
        assert_eq!(p.machine.exc_log, f.machine.exc_log);
    }
}

/// A platform whose UART carries a host tap (an opaque `FnMut`) must
/// refuse to fork — and the refusal must name the component so a fleet
/// operator can tell *which* device blocked the snapshot.
#[test]
fn fork_refusal_names_the_tapped_uart() {
    let mut p = build_workload("quickstart", ObsLevel::Metrics);
    p.machine
        .sys
        .bus
        .device_mut::<Uart>("uart")
        .expect("uart present")
        .set_tap(Box::new(|_byte| {}));
    let err = p.fork().err().expect("tapped uart must block fork");
    assert_eq!(err, TrustliteError::Snapshot("uart"));
    assert!(err
        .to_string()
        .contains("snapshot unsupported by component `uart`"));

    // Clearing the tap restores forkability on the same platform.
    p.machine
        .sys
        .bus
        .device_mut::<Uart>("uart")
        .expect("uart present")
        .clear_tap();
    p.fork().expect("untapped uart forks fine");
}

/// An installed extension unit holds opaque host state; fork must refuse
/// and name it too.
#[test]
fn fork_refusal_names_the_extension_unit() {
    struct NopExt;
    impl trustlite_cpu::ExtUnit for NopExt {
        fn exec(
            &mut self,
            _regs: &mut trustlite_cpu::RegFile,
            _sys: &mut trustlite_cpu::SystemBus,
            _ip: u32,
            _op: u8,
            _rd: trustlite_isa::Reg,
            _rs1: trustlite_isa::Reg,
            _imm: u16,
        ) -> Result<u64, trustlite_cpu::Fault> {
            Ok(1)
        }
    }
    let mut p = build_workload("quickstart", ObsLevel::Metrics);
    p.machine.ext = Some(Box::new(NopExt));
    let err = p.fork().err().expect("ext unit must block fork");
    assert_eq!(err, TrustliteError::Snapshot("ext"));
    assert!(err
        .to_string()
        .contains("snapshot unsupported by component `ext`"));
}

/// Divergence is contained: forked siblings with different identities
/// do not share RNG streams or keys, but their parent is untouched.
#[test]
fn diverged_forks_do_not_alias_parent_state() {
    let mut p = build_workload("quickstart", ObsLevel::Metrics);
    p.run(100);
    let before = state_digest(&mut p);
    let mut a = p.fork().expect("fork a");
    let mut b = p.fork().expect("fork b");
    a.diverge(1, 111, [1u8; 32]).expect("diverge a");
    b.diverge(2, 222, [2u8; 32]).expect("diverge b");
    a.run(1_000);
    b.run(1_000);
    assert_eq!(state_digest(&mut p), before, "parent unchanged by forks");
}
