//! Property tests for the copy-on-write [`ChunkTable`] against a flat
//! `Vec` model.
//!
//! Random read/write/clear/fill/fork soups run on a small table, once in
//! the default sparse mode and once switched into the dense reference
//! mode at a random point. Every read must match the model, and after
//! the soup every table in the fork lineage must still match the model
//! it was forked with: writes never leak through shared chunks, in
//! either direction. Residency is pinned separately: a dense table holds
//! every chunk and shares none with its snapshot, and a sparse fork
//! shares every resident chunk until its first write.

use proptest::prelude::*;
use trustlite_mem::ChunkTable;

const N: usize = 8;
const CHUNKS: usize = 6;
const LEN: usize = N * CHUNKS;

type Table = ChunkTable<u32, N>;

#[derive(Debug, Clone)]
enum Op {
    Read(usize),
    Write(usize, u32),
    Clear,
    Fill(u32),
    Fork,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..LEN).prop_map(Op::Read),
        // Zero is the blank value, so it gets its own arm.
        (0..LEN, prop_oneof![Just(0u32), any::<u32>()]).prop_map(|(i, v)| Op::Write(i, v)),
        (0..LEN, any::<u32>()).prop_map(|(i, v)| Op::Write(i, v)),
        Just(Op::Clear),
        any::<u32>().prop_map(Op::Fill),
        Just(Op::Fork),
    ]
}

fn read(table: &Table, i: usize) -> u32 {
    table.get(i).copied().unwrap_or_default()
}

fn contents(table: &Table) -> Vec<u32> {
    (0..LEN).map(|i| read(table, i)).collect()
}

/// The dense-mode invariant: every chunk resident and held by this
/// table alone.
fn assert_dense(table: &Table) {
    assert_eq!(table.resident().count(), CHUNKS, "dense tables are full");
    assert!(
        table.resident().all(|(_, _, holders)| holders == 1),
        "dense chunks are never shared"
    );
}

/// Runs `ops` from a blank table, switching to the dense mode before op
/// `dense_at` (never, when it is past the end), and checks the whole
/// fork lineage against the flat model.
fn run_soup(ops: &[Op], dense_at: usize) {
    let mut table = Table::new(CHUNKS);
    let mut model = vec![0u32; LEN];
    let mut lineage: Vec<(Table, Vec<u32>)> = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        if k == dense_at {
            table.make_dense();
            assert_eq!(contents(&table), model, "make_dense changed contents");
        }
        match *op {
            Op::Read(i) => assert_eq!(read(&table, i), model[i], "read {i}"),
            Op::Write(i, v) => {
                *table.get_mut(i) = v;
                model[i] = v;
            }
            Op::Clear => {
                table.clear();
                model.fill(0);
            }
            Op::Fill(v) => {
                table.fill(v);
                model.fill(v);
            }
            Op::Fork => {
                let child = table.clone();
                lineage.push((std::mem::replace(&mut table, child), model.clone()));
            }
        }
        if k >= dense_at {
            assert_dense(&table);
        }
    }
    assert_eq!(contents(&table), model, "leaf");
    for (i, (ancestor, model)) in lineage.iter().enumerate() {
        assert_eq!(&contents(ancestor), model, "ancestor {i}");
    }
}

proptest! {
    /// Sparse from start to finish, and switched to the dense reference
    /// mode at a random point, the table reads exactly like a flat
    /// array, and no fork ever sees another's writes.
    #[test]
    fn table_matches_flat_model_in_both_modes(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        dense_at in 0usize..80,
    ) {
        run_soup(&ops, usize::MAX);
        run_soup(&ops, dense_at % ops.len());
    }
}

proptest! {
    /// A sparse fork is one reference bump per resident chunk: it shares
    /// every resident chunk with its parent, reads unshare nothing, and
    /// the first write unshares exactly the written chunk.
    #[test]
    fn sparse_fork_shares_every_resident_chunk_until_first_write(
        writes in proptest::collection::vec((0..LEN, 1u32..u32::MAX), 0..12),
        target in 0..LEN,
        value in any::<u32>(),
    ) {
        let mut parent = Table::new(CHUNKS);
        for &(i, v) in &writes {
            *parent.get_mut(i) = v;
        }
        let resident = parent.resident().count();
        let target_resident = parent.chunk(target / N).is_some();
        let mut child = parent.clone();
        prop_assert_eq!(child.shared_with(&parent), resident);
        prop_assert!(child.resident().all(|(_, _, holders)| holders == 2));
        let _ = contents(&child);
        prop_assert_eq!(child.shared_with(&parent), resident, "reads unshare nothing");
        *child.get_mut(target) = value;
        prop_assert_eq!(
            child.shared_with(&parent),
            resident - usize::from(target_resident),
            "the first write unshares exactly its chunk"
        );
        prop_assert_eq!(read(&child, target), value);
        prop_assert_eq!(parent.chunk(target / N).is_some(), target_resident);
    }
}

#[test]
fn dense_table_is_fully_resident_and_shares_nothing_with_its_snapshot() {
    let mut table = Table::new(CHUNKS);
    *table.get_mut(3) = 7;
    let sparse_child = table.clone();
    assert_eq!(sparse_child.shared_with(&table), 1);
    // Switching unshares the chunk the earlier fork still holds.
    table.make_dense();
    assert_dense(&table);
    assert_eq!(sparse_child.shared_with(&table), 0);
    assert_eq!(read(&sparse_child, 3), 7);
    let snapshot = table.clone();
    assert_dense(&snapshot);
    assert_eq!(snapshot.shared_with(&table), 0, "dense snapshots deep-copy");
    assert_eq!(read(&snapshot, 3), 7);
    // Clearing and filling keep the table full and unshared.
    table.clear();
    assert_dense(&table);
    assert_eq!(read(&table, 3), 0);
    table.fill(9);
    assert_dense(&table);
    assert_eq!(read(&snapshot, 3), 7, "snapshot untouched");
}
