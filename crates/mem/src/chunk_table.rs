//! The copy-on-write chunk table behind every forkable host-side store.
//!
//! Fleet devices are forks of one booted master, so their memories and
//! code caches start out identical and mostly stay that way. A
//! [`ChunkTable`] holds a fixed number of `N`-entry chunks behind
//! `Option<Arc<_>>` slots:
//!
//! * an **absent** chunk reads as blank (`T::default()` in every entry)
//!   and costs nothing to store or copy;
//! * [`Clone`] is the fork snapshot: one reference-count bump per
//!   resident chunk, O(chunks) instead of O(entries);
//! * every write ([`ChunkTable::chunk_mut`]) materializes an absent
//!   chunk and unshares a shared one (`Arc::make_mut`), so divergence
//!   after a fork is private to the writer.
//!
//! [`ChunkTable::make_dense`] switches a table, one way, into the
//! reference mode: every chunk materialized and uniquely owned, and
//! every later clone a deep copy — the flat-array behaviour the sharing
//! must be indistinguishable from. Policy (what a write of a blank value
//! may skip, how footprint is reported) belongs to the wrappers: the
//! device page store and the CPU's predecode and superblock tables.

use core::fmt;
use std::sync::Arc;

/// A fixed-size table of `N`-entry copy-on-write chunks (see the module
/// docs).
pub struct ChunkTable<T, const N: usize> {
    chunks: Vec<Option<Arc<[T; N]>>>,
    dense: bool,
}

/// A chunk of `N` copies of `value`, built on the heap.
fn filled<T: Clone, const N: usize>(value: T) -> Arc<[T; N]> {
    Arc::<[T]>::from(vec![value; N])
        .try_into()
        .unwrap_or_else(|_| unreachable!("vec! yields exactly N entries"))
}

#[cold]
fn blank<T: Clone + Default, const N: usize>() -> Arc<[T; N]> {
    filled(T::default())
}

impl<T: Clone + Default, const N: usize> ChunkTable<T, N> {
    /// A table of `chunks` absent (blank) chunks.
    pub fn new(chunks: usize) -> Self {
        ChunkTable {
            chunks: vec![None; chunks],
            dense: false,
        }
    }

    /// Switches to the dense reference mode for good: materializes and
    /// unshares every chunk, and makes every later clone a deep copy.
    /// Contents are unchanged.
    pub fn make_dense(&mut self) {
        self.dense = true;
        for slot in &mut self.chunks {
            Arc::make_mut(slot.get_or_insert_with(blank));
        }
    }

    /// Chunk `c`, or `None` while it is absent (blank).
    #[inline(always)]
    pub fn chunk(&self, c: usize) -> Option<&[T; N]> {
        self.chunks[c].as_deref()
    }

    /// Entry `i`, or `None` while its chunk is absent (blank).
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunk(i / N).map(|c| &c[i % N])
    }

    /// Chunk `c` for writing: materialized if absent, unshared if a fork
    /// still holds it.
    #[inline(always)]
    pub fn chunk_mut(&mut self, c: usize) -> &mut [T; N] {
        Arc::make_mut(self.chunks[c].get_or_insert_with(blank))
    }

    /// Entry `i` for writing (see [`ChunkTable::chunk_mut`]).
    #[inline(always)]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunk_mut(i / N)[i % N]
    }

    /// Sets every entry to `value`. Sparse tables share one filled
    /// chunk across all slots, so later writes unshare chunk by chunk
    /// exactly like post-fork divergence.
    pub fn fill(&mut self, value: T) {
        let proto = filled(value);
        for slot in &mut self.chunks {
            *slot = Some(Arc::clone(&proto));
        }
        drop(proto);
        if self.dense {
            for c in self.chunks.iter_mut().flatten() {
                Arc::make_mut(c);
            }
        }
    }

    /// Resets every entry to blank: drops every chunk (shared chunks are
    /// released, not written), or blanks them in place when dense.
    pub fn clear(&mut self) {
        if self.dense {
            self.fill(T::default());
        } else {
            self.chunks.fill(None);
        }
    }

    /// Resident chunks as `(index, chunk, holders)`, where `holders`
    /// counts the tables (this one included) sharing that allocation.
    pub fn resident(&self) -> impl Iterator<Item = (usize, &[T; N], usize)> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|a| (i, &**a, Arc::strong_count(a))))
    }

    /// Number of chunk slots at the same index that share one allocation
    /// with `other` (fork diagnostics).
    pub fn shared_with(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| matches!((a, b), (Some(a), Some(b)) if Arc::ptr_eq(a, b)))
            .count()
    }
}

impl<T: Clone, const N: usize> Clone for ChunkTable<T, N> {
    /// The fork snapshot: Arc bumps over resident chunks, or a deep copy
    /// in the dense reference mode.
    fn clone(&self) -> Self {
        let chunks = if self.dense {
            self.chunks
                .iter()
                .map(|c| c.as_ref().map(|a| Arc::new((**a).clone())))
                .collect()
        } else {
            self.chunks.clone()
        };
        ChunkTable {
            chunks,
            dense: self.dense,
        }
    }
}

impl<T, const N: usize> fmt::Debug for ChunkTable<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkTable")
            .field("chunks", &self.chunks.len())
            .field("resident", &self.chunks.iter().flatten().count())
            .field("dense", &self.dense)
            .finish()
    }
}
