//! Physical address space of the TrustLite platform.
//!
//! The paper's target platform (Figure 1) is a small SoC with on-chip PROM
//! and SRAM, memory-mapped peripherals and optional external DRAM, all in a
//! single physical address space (Figure 3 shows PROM/Flash, SRAM/DRAM and
//! peripheral MMIO regions side by side). This crate models that address
//! space:
//!
//! * [`Device`] — the trait every bus-attached component implements,
//! * [`Ram`] / [`Rom`] — volatile and programmable read-only memories,
//! * [`ChunkTable`] — the copy-on-write store behind both memories
//!   (via [`PageStore`]) and the CPU's code caches, which makes forks
//!   cheap,
//! * [`Bus`] — the system bus that routes physical accesses to devices,
//! * [`map`] — the reference memory map used throughout the reproduction.
//!
//! Access control is deliberately *not* here: the MPU sits between the CPU
//! and the bus (see `trustlite-mpu` and the `trustlite-cpu` system-bus
//! wiring), exactly as in the paper's Figure 2.

pub mod bus;
pub mod chunk_table;
pub mod device;
pub mod map;
pub mod pages;
pub mod ram;

pub use bus::{Bus, MapError};
pub use chunk_table::ChunkTable;
pub use device::{BusError, Device, IrqRequest};
pub use pages::{PageStore, PAGE_SHIFT, PAGE_SIZE};
pub use ram::{Ram, Rom};
