//! The system bus seen by the CPU: EA-MPU in front of the physical bus.
//!
//! Mirrors the paper's Figure 2: every fetch, load and store generated by
//! the core is validated by the EA-MPU with the *current instruction
//! pointer* as subject before it reaches memory or MMIO. The MPU's own
//! register bank is an MMIO window routed here (after the self-referential
//! MPU check), so software — including the Secure Loader — programs and
//! locks the MPU with ordinary stores, exactly as in Section 3.3.
//!
//! Hardware-internal accesses (the exception engine updating the Trustlet
//! Table, reading the IDT or the OS stack-pointer cell) use the `hw_*`
//! methods, which bypass the MPU the way dedicated hardware paths do.

use trustlite_isa::{decode, Instr};
use trustlite_mem::{Bus, BusError, IrqRequest};
use trustlite_mpu::{AccessKind, EaMpu};
use trustlite_obs::{AccessClass, Event, Recorder, Verdict};

use crate::fault::Fault;
use crate::predecode::{
    straight_cost, BlockStats, BlockTable, DataMemo, FetchMemo, MicroOp, Predecode, PredecodeStats,
    MAX_BLOCK_OPS,
};

/// Maps the MPU's access kind onto the telemetry wire type.
fn access_class(kind: AccessKind) -> AccessClass {
    match kind {
        AccessKind::Read => AccessClass::Read,
        AccessKind::Write => AccessClass::Write,
        AccessKind::Execute => AccessClass::Execute,
    }
}

/// The firehose record of an Execute grant that a fetch-memo replay
/// vouched for instead of the full check: by construction an Allow, so
/// the replay reproduces verbatim the event the full check would emit.
pub(crate) fn fetch_grant_event(cycle: u64, subject: u32, addr: u32) -> Event {
    Event::MpuCheck {
        cycle,
        subject,
        addr,
        kind: AccessClass::Execute,
        verdict: Verdict::Allow,
    }
}

/// True for instructions that may never become superblock micro-ops: the
/// block walk stops *before* them and they execute through the plain
/// `Machine::step` path. `Halt`/`Swi`/`Iret` leave the normal retirement
/// flow; `Di`/`Ei`/`Popf` rewrite FLAGS.IE, which the block loop latches
/// once at entry for its interrupt-window checks; `Ext` dispatches into
/// platform extension units.
fn block_terminates_before(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Halt
            | Instr::Swi(_)
            | Instr::Iret
            | Instr::Di
            | Instr::Ei
            | Instr::Popf
            | Instr::Ext { .. }
    )
}

/// The CPU-facing memory system.
pub struct SystemBus {
    /// The physical bus with all memories and peripherals.
    pub bus: Bus,
    /// The execution-aware MPU.
    pub mpu: EaMpu,
    /// Base address of the MPU's MMIO register window, if mapped.
    pub mpu_window: Option<u32>,
    /// Size of the MPU MMIO window.
    pub mpu_window_size: u32,
    /// Global enforcement switch. Real hardware is always-on once
    /// configured; tests and the "stock core" baseline run with it off.
    pub enforce: bool,
    /// Telemetry recorder shared by the CPU, MPU and platform layers.
    /// Off by default; `Machine::step` mirrors its cycle counter here.
    pub obs: Recorder,
    /// The predecoded-instruction cache consulted by
    /// [`SystemBus::fetch_instr`].
    predecode: Predecode,
    /// The superblock trace cache consulted by `Machine::run`'s block
    /// dispatch loop.
    blocks: BlockTable,
}

impl SystemBus {
    /// Creates a system bus around `bus` and `mpu` with the MPU registers
    /// mapped at `mpu_window`.
    pub fn new(bus: Bus, mpu: EaMpu, mpu_window: Option<u32>) -> Self {
        SystemBus {
            bus,
            mpu,
            mpu_window,
            mpu_window_size: 0x1000,
            enforce: true,
            obs: Recorder::default(),
            predecode: Predecode::default(),
            blocks: BlockTable::default(),
        }
    }

    /// Toggles every fast-path cache at once — the predecode table, the
    /// superblock trace cache, the EA-MPU grant micro-TLB and batched
    /// peripheral ticking. All of them are architecture-invisible;
    /// switching them off reproduces the original step-by-step
    /// evaluation for differential runs.
    pub fn set_fast_path(&mut self, on: bool) {
        self.predecode.set_enabled(on);
        self.blocks.set_enabled(on);
        self.mpu.set_grant_cache(on);
        self.bus.set_batched_ticks(on);
        self.bus.set_lookup_cache(on);
    }

    /// Toggles the superblock trace cache alone, leaving the
    /// per-instruction fast path as-is. This is the middle rung of the
    /// differential ladder: slow (`set_fast_path(false)`), predecode
    /// (`set_fast_path(true)` + `set_superblocks(false)`), superblock
    /// (both on — the default).
    pub fn set_superblocks(&mut self, on: bool) {
        self.blocks.set_enabled(on);
    }

    /// Whether the superblock trace cache is enabled.
    pub fn superblocks_on(&self) -> bool {
        self.blocks.enabled()
    }

    /// Superblock cache counters (`cpu.block.*`).
    pub fn block_stats(&self) -> BlockStats {
        self.blocks.stats()
    }

    /// Predecode cache counters (`cpu.predecode.*`).
    pub fn predecode_stats(&self) -> PredecodeStats {
        self.predecode.stats()
    }

    /// Switches every copy-on-write store — each memory device and both
    /// code caches — one way into the dense reference mode: everything
    /// materialized, every later snapshot a deep copy (see
    /// `trustlite_mem::ChunkTable::make_dense`). Contents are unchanged,
    /// so [`trustlite_mem::Bus::host_gen`] stays put and the caches stay
    /// warm: a bump would flash-clear them and move the `cpu.*` cache
    /// counters on the reference side only. Architecturally invisible —
    /// reference and default fleets must digest identically.
    pub fn make_dense(&mut self) {
        self.bus.make_dense();
        self.predecode.make_dense();
        self.blocks.make_dense();
    }

    /// Host-side bytes backing the predecode and superblock tables,
    /// amortized over snapshot sharers (a chunk alive in N forks
    /// contributes `size / N` to each, so fleet-wide sums reflect
    /// physical allocation). Reported beside
    /// [`SystemBus::resident_bytes`]; diagnostic only, never digested.
    pub fn code_cache_bytes(&self) -> u64 {
        self.predecode.resident_bytes() + self.blocks.resident_bytes()
    }

    /// Distribution of built superblock lengths.
    pub fn block_len_histogram(&self) -> &trustlite_obs::Histogram {
        self.blocks.len_histogram()
    }

    /// Current block-table flush generation (see [`BlockTable`]).
    #[inline(always)]
    pub(crate) fn blocks_gen(&self) -> u64 {
        self.blocks.generation()
    }

    /// Adds `retired` instructions to the block-path retirement counter.
    #[inline(always)]
    pub(crate) fn note_block_exec(&mut self, retired: u64) {
        self.blocks.note_exec(retired);
    }

    fn mpu_window_off(&self, addr: u32) -> Option<u32> {
        let base = self.mpu_window?;
        if addr >= base && addr < base + self.mpu_window_size {
            Some(addr - base)
        } else {
            None
        }
    }

    #[inline(always)]
    fn check(&mut self, ip: u32, addr: u32, kind: AccessKind) -> Result<(), Fault> {
        if !self.enforce {
            return Ok(());
        }
        let result = self.mpu.check(ip, addr, kind);
        // Gate on the exact level each event needs *before* constructing
        // it: below Full the firehose MpuCheck must cost one branch, not a
        // discarded struct build per access.
        if self.obs.firehose_on() {
            let cycle = self.obs.now();
            self.obs.emit_fine(Event::MpuCheck {
                cycle,
                subject: ip,
                addr,
                kind: access_class(kind),
                verdict: if result.is_ok() {
                    Verdict::Allow
                } else {
                    Verdict::Deny
                },
            });
        }
        if result.is_err() && self.obs.events_on() {
            let cycle = self.obs.now();
            self.obs.emit(Event::MpuFault {
                cycle,
                ip,
                addr,
                kind: access_class(kind),
            });
        }
        result.map_err(Fault::Mpu)
    }

    /// Fetches an instruction word.
    ///
    /// The execute check uses `subject_ip` — the address of the
    /// *previously executed* instruction (the one performing the control
    /// transfer) — as the EA-MPU subject, not the fetch target itself.
    /// This is what makes entry vectors enforceable: a foreign task's jump
    /// into the middle of a trustlet's code region is checked against the
    /// *foreign* code region's permissions, which only cover the entry
    /// vector (Section 4.1).
    pub fn fetch(&mut self, subject_ip: u32, ip: u32) -> Result<u32, Fault> {
        self.check(subject_ip, ip, AccessKind::Execute)?;
        self.bus.read32(ip).map_err(|err| Fault::Bus { ip, err })
    }

    /// Fetches *and decodes* the instruction at `ip`, going through the
    /// predecode cache.
    ///
    /// The MPU execute check runs unconditionally (permissions are never
    /// cached here — the EA-MPU has its own, precisely invalidated grant
    /// cache); only the bus read and the decoder are skipped on a hit.
    /// Entries are filled solely from stable storage and dropped on
    /// writes to the covered word, so self-modifying code re-decodes.
    pub fn fetch_instr(&mut self, subject_ip: u32, ip: u32) -> Result<(u32, Instr), Fault> {
        if self.predecode.enabled() {
            let gen = self.bus.host_gen();
            if gen != self.predecode.host_gen {
                self.predecode.clear();
                self.predecode.host_gen = gen;
            }
            if let Some((word, instr, memo)) = self.predecode.get(ip) {
                // Replay the memoised Execute grant when the MPU can still
                // vouch for its epoch (identical counter effects); fall
                // back to the full check otherwise. A replayed grant is by
                // construction an Allow on the memoised slot, so at the
                // firehose level the event the full check would have
                // emitted is reproduced verbatim instead of disabling the
                // replay path.
                let replayed = self.enforce
                    && memo.is_some_and(|(epoch, slot)| {
                        self.mpu.exec_check_cached(subject_ip, epoch, slot)
                    });
                if replayed {
                    if self.obs.firehose_on() {
                        let cycle = self.obs.now();
                        self.obs.emit_fine(fetch_grant_event(cycle, subject_ip, ip));
                    }
                } else {
                    self.check(subject_ip, ip, AccessKind::Execute)?;
                }
                return Ok((word, instr));
            }
        }
        self.check(subject_ip, ip, AccessKind::Execute)?;
        let word = self.bus.read32(ip).map_err(|err| Fault::Bus { ip, err })?;
        let instr = decode(word).map_err(|err| Fault::Illegal { ip, word, err })?;
        if self.predecode.enabled() && self.bus.is_stable_memory(ip) {
            let memo = if self.enforce {
                self.mpu.exec_memo(ip)
            } else {
                None
            };
            self.predecode.insert(ip, word, instr, memo);
        }
        Ok((word, instr))
    }

    /// Finds — or builds — the superblock starting at `start`, returning
    /// its table index, or `None` when no block can start there (the
    /// caller falls back to single-stepping). Handles the `host_gen`
    /// flash-clear exactly like [`SystemBus::fetch_instr`].
    pub(crate) fn block_lookup_or_build(&mut self, start: u32) -> Option<usize> {
        if !self.blocks.enabled() {
            return None;
        }
        let gen = self.bus.host_gen();
        if gen != self.blocks.host_gen {
            self.blocks.clear();
            self.blocks.host_gen = gen;
        }
        match self.blocks.probe(start) {
            Ok(idx) => Some(idx),
            Err(true) => None,
            Err(false) => self.build_block(start),
        }
    }

    /// Walks the straight-line run at `start` into a micro-op vector.
    ///
    /// Termination conditions (see DESIGN.md): a control transfer is
    /// included as the *final* op; system/flag instructions (`Halt`,
    /// `Swi`, `Iret`, `Di`, `Ei`, `Popf`, `Ext`) stop the walk *before*
    /// themselves; unstable (MMIO) storage, undecodable words and the
    /// [`MAX_BLOCK_OPS`] cap stop it too. The walk reads through the
    /// host-side bus path only on stable RAM/ROM, so it has no
    /// architectural side effects and performs no MPU checks — those run
    /// per op at execution time.
    fn build_block(&mut self, start: u32) -> Option<usize> {
        let mut ops: Vec<MicroOp> = Vec::new();
        let mut last_cf = false;
        let mut pc = start;
        while ops.len() < MAX_BLOCK_OPS {
            if !self.bus.is_stable_memory(pc) {
                break;
            }
            let Ok(word) = self.bus.read32(pc) else {
                break;
            };
            let Ok(instr) = decode(word) else {
                break;
            };
            if block_terminates_before(&instr) {
                break;
            }
            ops.push(MicroOp {
                word,
                instr,
                pure: !instr.is_memory(),
                run: 0,
                run_cost: 0,
                fetch: None,
                data: None,
            });
            if instr.is_control_flow() {
                last_cf = true;
                break;
            }
            pc = pc.wrapping_add(4);
        }
        if ops.is_empty() {
            self.blocks.insert(start, ops, false);
            return None;
        }
        // Suffix scan: annotate each op with the straight-pure run it
        // heads, so the Off loop can retire whole register-only spans
        // with the per-op checks hoisted.
        let mut run = 0u8;
        let mut run_cost = 0u16;
        for op in ops.iter_mut().rev() {
            match straight_cost(&op.instr) {
                Some(c) => {
                    run += 1;
                    run_cost += c as u16;
                }
                None => {
                    run = 0;
                    run_cost = 0;
                }
            }
            op.run = run;
            op.run_cost = run_cost;
        }
        Some(self.blocks.insert(start, ops, last_cf))
    }

    /// The `(start, len, last_cf)` header of block `idx`.
    #[inline(always)]
    pub(crate) fn block_head(&self, idx: usize) -> (u32, u32, bool) {
        self.blocks.head(idx)
    }

    /// Checks block `idx`'s micro-op vector out of the table for one
    /// execution pass (see [`BlockTable::take_ops`]).
    pub(crate) fn block_take_ops(&mut self, idx: usize) -> Vec<MicroOp> {
        self.blocks.take_ops(idx)
    }

    /// Returns a checked-out micro-op vector, carrying any grant memos
    /// the pass learned; dropped if the entry was flushed meanwhile.
    pub(crate) fn block_put_ops(&mut self, idx: usize, start: u32, ops: Vec<MicroOp>) {
        self.blocks.put_ops(idx, start, ops);
    }

    /// The cold half of the block loop's execute check: the memo was
    /// absent or stale, so run the full check (which emits the firehose
    /// `MpuCheck` event itself) and return a fresh fetch memo for the
    /// caller to store beside the op. Only called with enforcement on.
    pub(crate) fn block_fetch_cold(
        &mut self,
        subject_ip: u32,
        ip: u32,
    ) -> Result<FetchMemo, Fault> {
        self.check(subject_ip, ip, AccessKind::Execute)?;
        Ok(self.mpu.exec_memo(ip))
    }

    /// Loads a 32-bit word on behalf of the instruction at `ip`.
    #[inline(always)]
    pub fn load32(&mut self, ip: u32, addr: u32) -> Result<u32, Fault> {
        self.access32::<false>(&mut None, 0, ip, addr, None)
    }

    /// Stores a 32-bit word on behalf of the instruction at `ip`.
    #[inline(always)]
    pub fn store32(&mut self, ip: u32, addr: u32, value: u32) -> Result<(), Fault> {
        self.access32::<false>(&mut None, 0, ip, addr, Some(value))
            .map(drop)
    }

    /// The one word access on behalf of the instruction at `ip`: a load,
    /// or a store when `store` is `Some(value)` (then returning 0).
    /// Without `MEMO` the EA-MPU runs the full check. With `MEMO`, which
    /// only the block loop passes below the firehose level (a replay
    /// emits no `MpuCheck` event), the micro-op's data-grant `memo` is
    /// replayed instead when it still holds, with the full check's
    /// counter effects: one compare plus a batched counter bump under
    /// the block's prevalidated `hot_epoch` (`EaMpu::block_epoch`),
    /// else `EaMpu::check_cached_window`. When it does not hold, the
    /// order is: full check, the access, then a fresh memo learned from
    /// the grant window that vouched for `addr` (the access may have
    /// reprogrammed the MPU).
    #[inline(always)]
    pub(crate) fn access32<const MEMO: bool>(
        &mut self,
        memo: &mut DataMemo,
        hot_epoch: u64,
        ip: u32,
        addr: u32,
        store: Option<u32>,
    ) -> Result<u32, Fault> {
        let kind = match store {
            Some(_) => AccessKind::Write,
            None => AccessKind::Read,
        };
        let replayed = MEMO
            && match *memo {
                Some((epoch, slot, lo, len))
                    if hot_epoch != 0 && epoch == hot_epoch && addr.wrapping_sub(lo) < len =>
                {
                    self.mpu.replay_hit(slot);
                    true
                }
                Some((epoch, slot, lo, len)) => {
                    self.mpu.check_cached_window(ip, epoch, slot, lo, len, addr)
                }
                None => false,
            };
        if !replayed {
            self.check(ip, addr, kind)?;
        }
        let value = match store {
            Some(value) => self.hw_write32(addr, value).map(|()| 0),
            None => self.hw_read32(addr),
        }
        .map_err(|err| Fault::Bus { ip, err })?;
        if MEMO && !replayed {
            if let Some(fresh) = self.mpu.grant_window(addr, kind) {
                *memo = Some(fresh);
            }
        }
        Ok(value)
    }

    /// Loads an aligned halfword on behalf of the instruction at `ip`.
    pub fn load16(&mut self, ip: u32, addr: u32) -> Result<u16, Fault> {
        if !addr.is_multiple_of(2) {
            return Err(Fault::Bus {
                ip,
                err: BusError::Misaligned { addr },
            });
        }
        let lo = self.load8(ip, addr)? as u16;
        let hi = self.load8(ip, addr + 1)? as u16;
        Ok(lo | (hi << 8))
    }

    /// Stores an aligned halfword on behalf of the instruction at `ip`.
    pub fn store16(&mut self, ip: u32, addr: u32, value: u16) -> Result<(), Fault> {
        if !addr.is_multiple_of(2) {
            return Err(Fault::Bus {
                ip,
                err: BusError::Misaligned { addr },
            });
        }
        self.store8(ip, addr, value as u8)?;
        self.store8(ip, addr + 1, (value >> 8) as u8)
    }

    /// Loads one byte on behalf of the instruction at `ip`.
    pub fn load8(&mut self, ip: u32, addr: u32) -> Result<u8, Fault> {
        self.check(ip, addr, AccessKind::Read)?;
        if self.mpu_window_off(addr).is_some() {
            return Err(Fault::Bus {
                ip,
                err: BusError::BadWidth { addr },
            });
        }
        self.bus.read8(addr).map_err(|err| Fault::Bus { ip, err })
    }

    /// Stores one byte on behalf of the instruction at `ip`.
    pub fn store8(&mut self, ip: u32, addr: u32, value: u8) -> Result<(), Fault> {
        self.check(ip, addr, AccessKind::Write)?;
        self.predecode.invalidate(addr);
        self.blocks.invalidate(addr);
        if self.mpu_window_off(addr).is_some() {
            return Err(Fault::Bus {
                ip,
                err: BusError::BadWidth { addr },
            });
        }
        self.bus
            .write8(addr, value)
            .map_err(|err| Fault::Bus { ip, err })
    }

    /// Hardware-internal word read (exception engine paths): bypasses the
    /// MPU but not the bus. CPU loads route through here once validated
    /// (see [`SystemBus::load32`]).
    pub fn hw_read32(&mut self, addr: u32) -> Result<u32, BusError> {
        if let Some(off) = self.mpu_window_off(addr) {
            return self
                .mpu
                .mmio_read(off)
                .map_err(|_| BusError::Unmapped { addr });
        }
        self.bus.read32(addr)
    }

    /// Hardware-internal word write: bypasses the MPU but not the bus.
    /// Loader copy loops, and CPU stores once validated (see
    /// [`SystemBus::store32`]), run through here, so predecoded
    /// instructions and blocks covering the written word are dropped.
    pub fn hw_write32(&mut self, addr: u32, value: u32) -> Result<(), BusError> {
        self.predecode.invalidate(addr);
        self.blocks.invalidate(addr);
        if let Some(off) = self.mpu_window_off(addr) {
            return self
                .mpu
                .mmio_write(off, value)
                .map_err(|_| BusError::Unmapped { addr });
        }
        self.bus.write32(addr, value)
    }

    /// Copies the whole memory system for snapshot/fork. The EA-MPU
    /// state is copied verbatim — rule slots, lock bits *and* epoch
    /// counters — so grant-cache memos taken before the fork stay valid
    /// in the child (see DESIGN.md, snapshot/fork invariants); that same
    /// verbatim-epoch rule is what lets the predecode/block tables share
    /// their chunks (and the memos inside them) across the fork via
    /// `Arc` instead of deep-copying ~hundreds of KiB per device. Fails
    /// with the offending device's name if any mapped device cannot be
    /// snapshotted.
    pub fn snapshot(&self) -> Result<SystemBus, &'static str> {
        Ok(SystemBus {
            bus: self.bus.snapshot()?,
            mpu: self.mpu.clone(),
            mpu_window: self.mpu_window,
            mpu_window_size: self.mpu_window_size,
            enforce: self.enforce,
            obs: self.obs.clone(),
            predecode: self.predecode.clone(),
            blocks: self.blocks.clone(),
        })
    }

    /// Accounts `cycles`; true when no interrupt work is pending (the
    /// common case). Pair with [`SystemBus::tick_slow`] on `false`.
    #[inline]
    pub fn tick_quick(&mut self, cycles: u64) -> bool {
        self.bus.tick_quick(cycles)
    }

    /// Collects interrupts after [`SystemBus::tick_quick`] returned
    /// `false`.
    pub fn tick_slow(&mut self) -> Vec<IrqRequest> {
        self.bus.tick_slow()
    }

    /// See [`trustlite_mem::Bus::tick_slack`].
    #[inline]
    pub fn tick_slack(&self) -> u64 {
        self.bus.tick_slack()
    }

    /// Host-side materialized bytes across all mapped devices (see
    /// [`trustlite_mem::Device::resident_bytes`]). With sparse COW RAM
    /// this is the real fork footprint; diagnostic only, never digested.
    ///
    /// The predecode/block-table invalidation contract is unchanged by
    /// paged backing: CPU stores invalidate store-granularly here
    /// (before the bytes reach the page store), and every out-of-band
    /// path (`host_load`, `device_mut`, `map`, bit flips) bumps
    /// `Bus::host_gen`, which flash-clears both caches on the next
    /// fetch — so whether a write landed in a private or freshly
    /// unshared COW page is invisible to the fast path.
    pub fn resident_bytes(&self) -> u64 {
        self.bus.resident_bytes()
    }

    /// Total addressable bytes across all mapped devices.
    pub fn addressable_bytes(&self) -> u64 {
        self.bus.addressable_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlite_mem::Ram;
    use trustlite_mpu::{Perms, RuleSlot, Subject};

    fn setup() -> SystemBus {
        let mut bus = Bus::new();
        bus.map(0x1000, Box::new(Ram::new("sram", 0x1000))).unwrap();
        let mut mpu = EaMpu::new(8);
        // Code at 0x1000..0x1100 may run and rw its data at 0x1800..0x1900.
        mpu.set_rule(
            0,
            RuleSlot {
                start: 0x1000,
                end: 0x1100,
                perms: Perms::RX,
                subject: Subject::Region(0),
                enabled: true,
                locked: false,
            },
        )
        .unwrap();
        mpu.set_rule(
            1,
            RuleSlot {
                start: 0x1800,
                end: 0x1900,
                perms: Perms::RW,
                subject: Subject::Region(0),
                enabled: true,
                locked: false,
            },
        )
        .unwrap();
        SystemBus::new(bus, mpu, Some(0x2000_0000))
    }

    #[test]
    fn fetch_requires_execute_permission() {
        let mut sys = setup();
        assert!(sys.fetch(0x1000, 0x1004).is_ok());
        assert!(
            matches!(sys.fetch(0x1800, 0x1804), Err(Fault::Mpu(_))),
            "data region not executable"
        );
    }

    #[test]
    fn fetch_subject_is_the_transferring_instruction() {
        let mut sys = setup();
        // From inside the code region, fetching the body is fine.
        assert!(sys.fetch(0x1004, 0x1008).is_ok());
        // A foreign instruction jumping into the body is denied even
        // though the body itself is executable *by its owner*.
        assert!(matches!(sys.fetch(0x5000, 0x1008), Err(Fault::Mpu(_))));
    }

    #[test]
    fn data_access_is_execution_aware() {
        let mut sys = setup();
        assert!(sys.store32(0x1004, 0x1800, 7).is_ok());
        assert_eq!(sys.load32(0x1004, 0x1800).unwrap(), 7);
        // Same addresses from a foreign IP: denied.
        assert!(matches!(sys.load32(0x5000, 0x1800), Err(Fault::Mpu(_))));
    }

    #[test]
    fn enforcement_can_be_disabled_for_baseline_runs() {
        let mut sys = setup();
        sys.enforce = false;
        assert!(sys.load32(0x5000, 0x1800).is_ok());
    }

    #[test]
    fn mpu_window_routed_to_registers() {
        let mut sys = setup();
        // Grant the code region rw on the MPU window first.
        sys.mpu
            .set_rule(
                2,
                RuleSlot {
                    start: 0x2000_0000,
                    end: 0x2000_1000,
                    perms: Perms::RW,
                    subject: Subject::Region(0),
                    enabled: true,
                    locked: false,
                },
            )
            .unwrap();
        // Reading slot 0's START register over MMIO.
        assert_eq!(sys.load32(0x1004, 0x2000_0000).unwrap(), 0x1000);
        // Byte access to the register bank is rejected.
        assert!(matches!(
            sys.load8(0x1004, 0x2000_0001),
            Err(Fault::Bus {
                err: BusError::BadWidth { .. },
                ..
            })
        ));
    }

    #[test]
    fn locking_the_window_stops_reconfiguration() {
        let mut sys = setup();
        // No rule grants the window: software cannot touch the MPU at all.
        assert!(matches!(
            sys.store32(0x1004, 0x2000_0000, 0),
            Err(Fault::Mpu(_))
        ));
        // The hardware path still works (engine-internal).
        assert!(sys.hw_read32(0x2000_0000).is_ok());
    }

    #[test]
    fn hw_paths_bypass_mpu_but_not_bus() {
        let mut sys = setup();
        assert!(sys.hw_write32(0x1f00, 0xabcd).is_ok(), "no MPU rule needed");
        assert_eq!(sys.hw_read32(0x1f00).unwrap(), 0xabcd);
        assert!(
            sys.hw_read32(0x9000_0000).is_err(),
            "unmapped is still unmapped"
        );
    }

    #[test]
    fn bus_faults_carry_ip() {
        let mut sys = setup();
        sys.enforce = false;
        match sys.load32(0x1004, 0x9000_0000) {
            Err(Fault::Bus { ip, err }) => {
                assert_eq!(ip, 0x1004);
                assert_eq!(err.addr(), 0x9000_0000);
            }
            other => panic!("expected bus fault, got {other:?}"),
        }
    }
}
