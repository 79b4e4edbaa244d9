//! Sparse-memory footprint pins: a freshly booted platform must hold
//! almost nothing resident (DRAM in particular stays near-empty), and
//! the dense reference mode must be architecturally invisible.

use trustlite::platform::{Platform, PlatformBuilder};
use trustlite_isa::Reg;
use trustlite_mem::{Ram, PAGE_SIZE};

fn build() -> Platform {
    let mut b = PlatformBuilder::new();
    let mut os = b.begin_os();
    let stack_top = os.stack_top;
    os.asm.label("main");
    os.asm.li(Reg::Sp, stack_top);
    os.asm.li(Reg::R1, 7);
    os.asm.halt();
    let os_img = os.finish().unwrap();
    b.set_os(os_img, &[]);
    b.build().unwrap()
}

#[test]
fn freshly_booted_platform_is_mostly_sparse() {
    let mut p = build();
    let resident = p.resident_bytes();
    let addressable = p.addressable_bytes();
    assert!(addressable >= 1 << 20, "DRAM alone is 1 MiB");
    assert!(
        resident < addressable / 8,
        "boot must not materialize the address space: {resident} of {addressable} bytes resident"
    );
    // DRAM specifically: nothing boots out of it, so it holds ~0 pages
    // (diverge later touches exactly one for the device-id word).
    let dram = p
        .machine
        .sys
        .bus
        .device_mut::<Ram>("dram")
        .expect("dram mapped");
    assert!(
        dram.resident_pages() <= 1,
        "zeroed DRAM must stay sparse, got {} pages",
        dram.resident_pages()
    );
}

#[test]
fn diverge_materializes_one_dram_page() {
    let mut p = build().fork().unwrap();
    p.diverge(42, 1234, [9; 32]).unwrap();
    let dram = p
        .machine
        .sys
        .bus
        .device_mut::<Ram>("dram")
        .expect("dram mapped");
    assert_eq!(dram.resident_pages(), 1, "device-id word costs one page");
    assert_eq!(
        p.machine.sys.hw_read32(Platform::DEVICE_ID_ADDR).unwrap(),
        42
    );
}

#[test]
fn dense_switch_is_architecturally_invisible() {
    let mut sparse = build();
    let mut dense = build();
    let gen = dense.machine.sys.bus.host_gen();
    dense.machine.sys.make_dense();
    assert_eq!(dense.resident_bytes(), dense.addressable_bytes());
    assert_eq!(
        dense.machine.sys.bus.host_gen(),
        gen,
        "contents unchanged, so no host-side mutation"
    );

    sparse.run(10_000);
    dense.run(10_000);
    assert_eq!(sparse.machine.cycles, dense.machine.cycles);
    assert_eq!(sparse.machine.instret, dense.machine.instret);
    assert_eq!(sparse.machine.regs.get(Reg::R1), 7);
    assert_eq!(dense.machine.regs.get(Reg::R1), 7);
    // Full SRAM images identical after running.
    let a = sparse
        .machine
        .sys
        .bus
        .read_bytes(0x1000_0000, 0x4000)
        .unwrap();
    let b = dense
        .machine
        .sys
        .bus
        .read_bytes(0x1000_0000, 0x4000)
        .unwrap();
    assert_eq!(a, b);

    // The mode is one-way and survives forks, which deep-copy.
    let child = dense.fork().unwrap();
    assert_eq!(child.resident_bytes(), child.addressable_bytes());
}

#[test]
fn fork_cost_is_resident_pages_not_address_space() {
    let p = build();
    let before = p.resident_bytes();
    let child = p.fork().unwrap();
    assert_eq!(child.resident_bytes(), before, "fork shares, never copies");
    // A dense platform's fork deep-copies the whole address space; the
    // sparse one carries only what boot actually touched.
    assert!(u64::from(PAGE_SIZE) * 4 < p.addressable_bytes());
}
