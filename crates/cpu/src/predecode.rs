//! The predecode cache: a decoded-instruction side-table.
//!
//! `Machine::step` used to re-run the SP32 decoder on every fetched word.
//! This module caches `(word, Instr)` pairs keyed by fetch address in a
//! direct-mapped table, the software analogue of an I-cache holding
//! predecoded micro-ops. Correctness rests on precise invalidation:
//!
//! * CPU stores ([`crate::SystemBus::store32`]/`store8`/`store16`) and
//!   hardware-internal writes (`hw_write32`, which the Secure Loader's
//!   copy loops use) invalidate the written word's entry — self-modifying
//!   code and field updates re-decode on next fetch;
//! * host-side mutation (`host_load`, `device_mut`, remapping) is caught
//!   by comparing [`trustlite_mem::Bus::host_gen`], which flash-clears
//!   the table;
//! * only words fetched from *stable storage*
//!   ([`trustlite_mem::Bus::is_stable_memory`]) are cached — MMIO windows
//!   that happen to be executable are always re-read.
//!
//! The same file hosts the superblock layer on top: [`BlockTable`] caches
//! *straight-line runs* of predecoded micro-ops ([`MicroOp`]) so the hot
//! loop in `Machine::run` can retire a whole block per dispatch instead
//! of paying fetch/decode/dispatch per instruction. Blocks obey the same
//! invalidation discipline as single entries (store-granular flushes,
//! `host_gen` flash-clear) plus a generation counter that lets an
//! in-flight block execution notice a flush it caused itself — the
//! self-modifying-code case. See `DESIGN.md` § superblock invariants.
//!
//! # Copy-on-write chunks (fork/snapshot)
//!
//! Both tables keep their entries in a [`ChunkTable`] — the same
//! copy-on-write store `trustlite_mem::PageStore` uses for device
//! memory. An absent chunk is all-invalid; a snapshot is an Arc bump
//! over resident chunks, which is what makes fleet fork cost independent
//! of how warm the master's caches are. Exactly three operations write a
//! chunk, and so unshare it while a fork still holds it: an insert, a
//! store-granular flush that hits (the tag probe runs on the shared read
//! path, so a miss clones nothing), and a block checkout. Fleet devices
//! run identical ROM images, so the boot-warmed chunks stay shared until
//! a device's own self-modifying code or host patch diverges it;
//! divergence is strictly per-device, so sharing is architecturally
//! invisible (enforced differentially by the `shared_cache_props` suite
//! and the fleet's reference-vs-default tests). Footprint is amortized
//! over the tables sharing a chunk.

use crate::machine::Machine;
use crate::regs::RegFile;
use trustlite_isa::Instr;
use trustlite_mem::ChunkTable;
use trustlite_obs::Histogram;

/// A fetch-grant memo: the `(epoch, slot)` under which the EA-MPU
/// granted Execute at the cached address (`None` = no memo; the full
/// check runs). See `EaMpu::exec_check_cached`.
pub type FetchMemo = Option<(u64, u16)>;

/// Number of direct-mapped entries. At 4 bytes per instruction this
/// covers 32 KiB of code without conflict misses — larger than any
/// simulated image in the tree — while the chunked backing keeps the
/// resident allocation proportional to the code actually executed.
const ENTRIES: usize = 8192;

/// Entries per predecode chunk (the sharing granule): 64 chunks of 128
/// entries, i.e. one chunk covers 512 bytes of code.
const PD_CHUNK: usize = 128;

/// Tag value that can never match a fetch address: instruction fetches
/// are word-aligned, so an odd tag is unreachable.
const INVALID_TAG: u32 = 1;

#[derive(Clone, Copy)]
struct Entry {
    tag: u32,
    word: u32,
    instr: Instr,
    /// Fetch-grant memo: the `(epoch, slot)` under which the EA-MPU
    /// granted Execute at `tag`. Validated against the MPU's current
    /// epoch on every use, so it can never outlive a rule change.
    memo: FetchMemo,
}

impl Default for Entry {
    fn default() -> Self {
        Entry {
            tag: INVALID_TAG,
            word: 0,
            instr: Instr::Nop,
            memo: None,
        }
    }
}

/// Lookup/maintenance counters for the predecode table, mirrored into
/// the metrics registry by `Machine::metrics_report` as
/// `cpu.predecode.*`. Pure functions of the executed instruction stream,
/// so they are identical across backings, worker counts and capture
/// levels (they take part in the fleet digest via the merged counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Lookups that served a cached decode.
    pub hits: u64,
    /// Lookups that fell through to the bus read + decoder.
    pub misses: u64,
    /// Entries dropped by precise (store-granular) invalidation.
    pub flushes: u64,
}

/// The predecode table. `Clone` is the fork snapshot (see the module
/// docs).
#[derive(Clone)]
pub struct Predecode {
    entries: ChunkTable<Entry, PD_CHUNK>,
    enabled: bool,
    /// Last observed [`trustlite_mem::Bus::host_gen`] value.
    pub(crate) host_gen: u64,
    stats: PredecodeStats,
}

impl Default for Predecode {
    fn default() -> Self {
        Predecode {
            entries: ChunkTable::new(ENTRIES / PD_CHUNK),
            enabled: true,
            host_gen: 0,
            stats: PredecodeStats::default(),
        }
    }
}

impl Predecode {
    #[inline]
    fn index(addr: u32) -> usize {
        (addr as usize >> 2) & (ENTRIES - 1)
    }

    /// Whether caching is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables the cache; disabling clears it.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.clear();
    }

    /// Switches to the dense reference mode (see
    /// [`ChunkTable::make_dense`]).
    pub fn make_dense(&mut self) {
        self.entries.make_dense();
    }

    /// Looks up the cached decode of the word at `addr`, along with any
    /// fetch-grant memo stored beside it.
    #[inline]
    pub fn get(&mut self, addr: u32) -> Option<(u32, Instr, FetchMemo)> {
        if let Some(e) = self.entries.get(Self::index(addr)) {
            if e.tag == addr {
                self.stats.hits += 1;
                return Some((e.word, e.instr, e.memo));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Caches the decode of `word` at `addr`, materializing (and, if
    /// shared, unsharing) the covering chunk.
    #[inline]
    pub fn insert(&mut self, addr: u32, word: u32, instr: Instr, memo: FetchMemo) {
        *self.entries.get_mut(Self::index(addr)) = Entry {
            tag: addr,
            word,
            instr,
            memo,
        };
    }

    /// Drops the entry covering the word containing `addr`, if cached.
    /// The tag test runs on the shared read path; only an actual hit
    /// pays the clone-on-first-write.
    #[inline]
    pub fn invalidate(&mut self, addr: u32) {
        let word_addr = addr & !3;
        let idx = Self::index(word_addr);
        if self.entries.get(idx).is_some_and(|e| e.tag == word_addr) {
            self.entries.get_mut(idx).tag = INVALID_TAG;
            self.stats.flushes += 1;
        }
    }

    /// Flash-clears the whole table (see [`ChunkTable::clear`]).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Lookup/maintenance counters (`cpu.predecode.*`).
    pub fn stats(&self) -> PredecodeStats {
        self.stats
    }

    /// Host-side bytes backing resident chunks, amortized over sharers:
    /// a chunk alive in N snapshots contributes `size / N` to each, so
    /// fleet-wide sums reflect physical allocation. Diagnostic only,
    /// never digested.
    pub fn resident_bytes(&self) -> u64 {
        self.entries
            .resident()
            .map(|(_, c, holders)| (std::mem::size_of_val(c) / holders) as u64)
            .sum()
    }
}

/// A data-grant memo: `(epoch, slot, window lo, window len)` under which
/// the EA-MPU granted a load/store issued by a specific micro-op. See
/// `EaMpu::check_cached_window`.
pub type DataMemo = Option<(u64, u16, u32, u32)>;

/// Maximum micro-ops per superblock. Bounds the invalidation probe walk
/// (a store can only land inside a block starting at most
/// `4 * (MAX_BLOCK_OPS - 1)` bytes below it) and keeps per-entry storage
/// small; straight-line runs in the simulated images are far shorter.
pub const MAX_BLOCK_OPS: usize = 32;

/// Number of direct-mapped block entries. Blocks start at control-flow
/// join points, which are much sparser than instructions, so this covers
/// every image in the tree without conflict misses.
const BLOCK_ENTRIES: usize = 2048;

/// Entries per block-table chunk (the sharing granule): 64 chunks of 32
/// entries.
const BLK_CHUNK: usize = 32;

/// One predecoded instruction inside a superblock, carrying its lazily
/// filled fetch-grant and data-grant memos.
#[derive(Clone, Copy)]
pub struct MicroOp {
    pub word: u32,
    pub instr: Instr,
    /// True when the op generates no data-memory traffic (ALU, moves,
    /// register jumps/branches) — decided once at build time so the Full
    /// loop knows it may defer the fetch-replay event and emit it paired
    /// with `InstrRetired` (nothing can be emitted in between).
    pub pure: bool,
    /// Number of consecutive *straight-pure* ops starting here (zero
    /// when this op is not itself straight-pure): register-only,
    /// non-control-flow, fixed-cost ops that cannot fault, touch the
    /// bus, reprogram the MPU, or leave the fall-through path. The Off
    /// loop executes such a run back-to-back with every per-op check
    /// hoisted, once the run provably fits the quantum budget and the
    /// tick headroom.
    pub run: u8,
    /// Total static cycle cost of that run.
    pub run_cost: u16,
    pub fetch: FetchMemo,
    pub data: DataMemo,
}

/// Static cycle cost of a register-only, non-control-flow op — the ops
/// eligible for straight-pure runs — or `None` for anything that can
/// branch, fault, or reach memory. Read off `Machine::exec_pure` on a
/// throwaway register file (no such op's cost depends on operand values),
/// so a run's batched `run_cost` is by construction what per-op
/// execution charges.
pub(crate) fn straight_cost(i: &Instr) -> Option<u64> {
    if i.is_control_flow() {
        return None;
    }
    Machine::exec_pure(&mut RegFile::default(), 0, *i)
}

#[derive(Clone)]
struct BlockEntry {
    /// Start address; [`INVALID_TAG`] when empty. A valid tag with an
    /// empty `ops` vector *and* `len == 0` is a *negative* entry: "no
    /// block can start here" (unstable storage, undecodable word, or a
    /// leading system instruction), so lookups stop re-probing the
    /// builder.
    tag: u32,
    /// True when the final op is a control transfer (the only way a
    /// block ends anywhere but by falling through / hitting the cap).
    last_cf: bool,
    /// Number of micro-ops in the block (0 = negative entry). Kept
    /// beside `ops` because the execution loop checks the vector out
    /// with [`BlockTable::take_ops`] while it runs; the header — and
    /// with it invalidation coverage — must survive that window.
    len: u32,
    ops: Vec<MicroOp>,
}

impl Default for BlockEntry {
    fn default() -> Self {
        BlockEntry {
            tag: INVALID_TAG,
            last_cf: false,
            len: 0,
            ops: Vec::new(),
        }
    }
}

/// Execution/maintenance counters for the block table, mirrored into the
/// metrics registry by `Machine::metrics_report` as `cpu.block.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Positive lookups that dispatched a cached block.
    pub hits: u64,
    /// Lookups that fell through to the builder.
    pub misses: u64,
    /// Entries dropped by precise (store-granular) invalidation.
    pub flushes: u64,
    /// Instructions retired through the block path.
    pub instret: u64,
}

/// Direct-mapped cache of superblock micro-op traces keyed by start pc.
/// `Clone` is the fork snapshot (see the module docs).
#[derive(Clone)]
pub struct BlockTable {
    /// Entry storage. "Write" includes the execution loop's ops
    /// checkout, so a fork that actually runs unshares exactly the
    /// chunks it executes from.
    entries: ChunkTable<BlockEntry, BLK_CHUNK>,
    enabled: bool,
    /// Bumped whenever any entry is flushed or the table is cleared. An
    /// executing block snapshots this at entry and re-checks it per op,
    /// so a store *inside the current block* (self-modifying code) stops
    /// trace execution on exactly the next op boundary.
    gen: u64,
    /// Low/high watermark over all addresses ever covered by a cached
    /// block, so stores to pure data regions skip invalidation entirely.
    cover_lo: u32,
    cover_hi: u32,
    /// Coarse 64-bit presence filter over 128-byte lines within the
    /// watermark (hash-folded), a second rejection layer for data that
    /// sits *between* code regions.
    filter: u64,
    /// Last observed [`trustlite_mem::Bus::host_gen`] value.
    pub(crate) host_gen: u64,
    stats: BlockStats,
    /// Distribution of built block lengths (`cpu.block.len`).
    len_hist: Histogram,
}

impl Default for BlockTable {
    fn default() -> Self {
        BlockTable {
            entries: ChunkTable::new(BLOCK_ENTRIES / BLK_CHUNK),
            enabled: true,
            gen: 0,
            cover_lo: u32::MAX,
            cover_hi: 0,
            filter: 0,
            host_gen: 0,
            stats: BlockStats::default(),
            len_hist: Histogram::default(),
        }
    }
}

impl BlockTable {
    #[inline]
    fn index(addr: u32) -> usize {
        (addr as usize >> 2) & (BLOCK_ENTRIES - 1)
    }

    /// Filter bit for the 128-byte line containing `addr`, folded with a
    /// higher stride so adjacent code regions don't alias onto the same
    /// few bits.
    #[inline]
    fn filter_bit(addr: u32) -> u64 {
        1u64 << (((addr >> 7) ^ (addr >> 13)) & 63)
    }

    /// Whether block caching is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables the table; disabling clears it.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.clear();
    }

    /// Switches to the dense reference mode (see
    /// [`ChunkTable::make_dense`]).
    pub fn make_dense(&mut self) {
        self.entries.make_dense();
    }

    /// Current flush generation (see the field docs).
    #[inline(always)]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Looks up the block starting at `start`. `Some(idx)` dispatches a
    /// cached positive block; `Err(true)` is a cached negative ("don't
    /// ask the builder again"); `Err(false)` is a genuine miss.
    #[inline]
    pub fn probe(&mut self, start: u32) -> Result<usize, bool> {
        let idx = Self::index(start);
        match self.entries.get(idx) {
            Some(e) if e.tag == start => {
                if e.len == 0 {
                    Err(true)
                } else {
                    self.stats.hits += 1;
                    Ok(idx)
                }
            }
            _ => Err(false),
        }
    }

    /// Caches `ops` as the block starting at `start` (empty = negative
    /// entry) and returns its index.
    pub fn insert(&mut self, start: u32, ops: Vec<MicroOp>, last_cf: bool) -> usize {
        self.stats.misses += 1;
        let idx = Self::index(start);
        if !ops.is_empty() {
            self.len_hist.observe(ops.len() as u64);
        }
        // Track covered bytes (including the negative entry's own word,
        // so a later store there revives the builder).
        let end = start.wrapping_add(4 * ops.len().max(1) as u32);
        self.cover_lo = self.cover_lo.min(start);
        self.cover_hi = self.cover_hi.max(end);
        let mut line = start >> 7;
        let last_line = end.wrapping_sub(4) >> 7;
        loop {
            self.filter |= Self::filter_bit(line << 7);
            if line >= last_line {
                break;
            }
            line += 1;
        }
        *self.entries.get_mut(idx) = BlockEntry {
            tag: start,
            last_cf,
            len: ops.len() as u32,
            ops,
        };
        idx
    }

    /// The `(start, len, last_cf)` header of the block at `idx`.
    #[inline(always)]
    pub fn head(&self, idx: usize) -> (u32, u32, bool) {
        let e = self.entries.get(idx).expect("block chunk resident");
        (e.tag, e.len, e.last_cf)
    }

    /// Checks the micro-op vector of block `idx` out of the table: the
    /// execution loop owns it for the whole pass (no per-op table
    /// indexing, and lazily-learned grant memos are written straight
    /// into the ops), then returns it with [`BlockTable::put_ops`]. The
    /// entry's header stays live, so precise invalidation keeps working
    /// while the vector is out. The checkout is a table write, so on a
    /// freshly forked device the first dispatch from a shared chunk
    /// unshares it — after which the checkout is a plain `mem::take`.
    pub fn take_ops(&mut self, idx: usize) -> Vec<MicroOp> {
        std::mem::take(&mut self.entries.get_mut(idx).ops)
    }

    /// Returns a checked-out micro-op vector. Dropped instead if the
    /// entry was flushed (or rebuilt) while it was out — resurrecting
    /// stale ops after an invalidation would defeat precise SMC
    /// flushing.
    pub fn put_ops(&mut self, idx: usize, start: u32, ops: Vec<MicroOp>) {
        match self.entries.get(idx) {
            Some(e) if e.tag == start && e.len as usize == ops.len() && e.ops.is_empty() => {}
            _ => return,
        }
        self.entries.get_mut(idx).ops = ops;
    }

    /// Drops every cached block containing the word at `addr` — the
    /// store-path hook. Cheap for data stores: a watermark test plus a
    /// 64-bit filter probe reject addresses no block has ever covered;
    /// only on a filter hit does the bounded walk over the
    /// [`MAX_BLOCK_OPS`] candidate start addresses run.
    #[inline]
    pub fn invalidate(&mut self, addr: u32) {
        if !self.enabled {
            return;
        }
        let a = addr & !3;
        if a.wrapping_sub(self.cover_lo) >= self.cover_hi.wrapping_sub(self.cover_lo)
            || self.filter & Self::filter_bit(a) == 0
        {
            return;
        }
        self.invalidate_slow(a);
    }

    fn invalidate_slow(&mut self, a: u32) {
        let mut flushed = false;
        let mut start = a.wrapping_sub(4 * (MAX_BLOCK_OPS as u32 - 1));
        loop {
            let idx = Self::index(start);
            // Read on the shared path; only a covering hit clones the
            // chunk before flushing in it.
            let covers = match self.entries.get(idx) {
                Some(e) if e.tag == start => {
                    let end = start.wrapping_add(4 * e.len.max(1));
                    a.wrapping_sub(start) < end.wrapping_sub(start)
                }
                _ => false,
            };
            if covers {
                let e = self.entries.get_mut(idx);
                e.tag = INVALID_TAG;
                e.len = 0;
                e.ops.clear();
                flushed = true;
                self.stats.flushes += 1;
            }
            if start == a {
                break;
            }
            start = start.wrapping_add(4);
        }
        if flushed {
            self.gen += 1;
        }
    }

    /// Flash-clears the whole table (host-side mutation, toggling; see
    /// [`ChunkTable::clear`]).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.cover_lo = u32::MAX;
        self.cover_hi = 0;
        self.filter = 0;
        self.gen += 1;
    }

    /// Adds `retired` instructions to the block-path retirement counter.
    #[inline(always)]
    pub fn note_exec(&mut self, retired: u64) {
        self.stats.instret += retired;
    }

    /// Execution/maintenance counters.
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Distribution of built block lengths.
    pub fn len_histogram(&self) -> &Histogram {
        &self.len_hist
    }

    /// Host-side bytes backing resident chunks (headers plus the ops
    /// heap), amortized over sharers exactly like
    /// [`Predecode::resident_bytes`]. Diagnostic only, never digested.
    pub fn resident_bytes(&self) -> u64 {
        self.entries
            .resident()
            .map(|(_, c, holders)| {
                let heap: usize = c
                    .iter()
                    .map(|e| e.ops.capacity() * std::mem::size_of::<MicroOp>())
                    .sum();
                ((std::mem::size_of_val(c) + heap) / holders) as u64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_hit_invalidate_cycle() {
        let mut pd = Predecode::default();
        assert_eq!(pd.get(0x100), None);
        pd.insert(0x100, 0xabcd, Instr::Nop, None);
        assert_eq!(pd.get(0x100), Some((0xabcd, Instr::Nop, None)));
        // Byte-granular invalidation covers the containing word.
        pd.invalidate(0x102);
        assert_eq!(pd.get(0x100), None);
        let s = pd.stats();
        assert_eq!((s.hits, s.misses, s.flushes), (1, 2, 1));
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut pd = Predecode::default();
        let a = 0x100;
        let b = a + (ENTRIES as u32) * 4; // same index, different tag
        pd.insert(a, 1, Instr::Nop, None);
        pd.insert(b, 2, Instr::Halt, None);
        assert_eq!(pd.get(a), None, "evicted by the conflicting insert");
        assert_eq!(pd.get(b), Some((2, Instr::Halt, None)));
    }

    #[test]
    fn clear_drops_everything() {
        let mut pd = Predecode::default();
        pd.insert(0x0, 7, Instr::Nop, None);
        pd.insert(0x4, 8, Instr::Nop, None);
        pd.clear();
        assert_eq!(pd.get(0x0), None);
        assert_eq!(pd.get(0x4), None);
        assert_eq!(pd.resident_bytes(), 0, "clear releases every chunk");
    }

    #[test]
    fn snapshot_shares_then_cow_unshares() {
        let mut pd = Predecode::default();
        pd.insert(0x100, 0xabcd, Instr::Nop, None);
        let solo = pd.resident_bytes();
        assert!(solo > 0);
        let mut child = pd.clone();
        // The one resident chunk is shared: each side reports half.
        assert_eq!(pd.resident_bytes(), solo / 2);
        assert_eq!(child.resident_bytes(), solo / 2);
        // A child-side flush clones only the child's chunk; the parent
        // keeps serving its entry from the original.
        child.invalidate(0x100);
        assert_eq!(child.get(0x100), None);
        assert_eq!(pd.get(0x100), Some((0xabcd, Instr::Nop, None)));
        assert_eq!(pd.resident_bytes(), solo, "parent chunk unshared again");
    }

    #[test]
    fn private_mode_snapshots_deep_copy() {
        let mut pd = Predecode::default();
        pd.make_dense();
        pd.insert(0x100, 0xabcd, Instr::Nop, None);
        let solo = pd.resident_bytes();
        // The dense reference mode holds the whole table resident.
        assert_eq!(solo, (ENTRIES * std::mem::size_of::<Entry>()) as u64);
        let mut child = pd.clone();
        // No sharing in reference mode: both report the full table, and
        // a flash-clear keeps it resident.
        assert_eq!(pd.resident_bytes(), solo);
        assert_eq!(child.resident_bytes(), solo);
        child.clear();
        assert_eq!(child.get(0x100), None);
        assert_eq!(child.resident_bytes(), solo);
        assert_eq!(pd.get(0x100), Some((0xabcd, Instr::Nop, None)));
    }

    fn one_block() -> Vec<MicroOp> {
        vec![MicroOp {
            word: 0,
            instr: Instr::Nop,
            pure: true,
            run: 1,
            run_cost: 1,
            fetch: None,
            data: None,
        }]
    }

    #[test]
    fn block_fork_flush_is_per_device() {
        let mut bt = BlockTable::default();
        let idx = bt.insert(0x100, one_block(), false);
        let mut child = bt.clone();
        assert!(bt.resident_bytes() > 0);
        // Parent-side store flushes the parent's (freshly unshared)
        // chunk only.
        bt.invalidate(0x100);
        assert!(matches!(bt.probe(0x100), Err(false)), "parent flushed");
        assert_eq!(child.probe(0x100), Ok(idx), "child keeps the block");
        assert_eq!(child.stats().flushes, 0);
    }

    #[test]
    fn checkout_survives_sharing() {
        let mut bt = BlockTable::default();
        let idx = bt.insert(0x100, one_block(), false);
        let mut child = bt.clone();
        // Checking ops out of the child unshares its chunk; the parent's
        // entry still holds its own vector afterwards.
        let ops = child.take_ops(idx);
        assert_eq!(ops.len(), 1);
        child.put_ops(idx, 0x100, ops);
        assert_eq!(bt.probe(0x100), Ok(idx));
        assert_eq!(bt.take_ops(idx).len(), 1, "parent ops intact");
    }
}
