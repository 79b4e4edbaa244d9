//! Expected simulated results for the default seed, kept in
//! `expected.txt` beside this crate's manifest.
//!
//! Each line is `<workload> <seed> <key> <value>`. They are the device
//! counters one repetition of a workload must end with (never the state
//! digest, whose definition is expected to change). Host-side cache
//! statistics are not listed: a faster simulator may change them.

use std::collections::BTreeMap;

use crate::Outcome;

const EXPECTED: &str = include_str!("../expected.txt");

fn expected_for(workload: &str, seed: u64) -> BTreeMap<String, u64> {
    EXPECTED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [w, s, k, v] if *w == workload && s.parse() == Ok(seed) => {
                    Some((k.to_string(), v.parse().ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

/// Compares `actual` against the values recorded for `(workload, seed)`,
/// key by key; keys `actual` has beyond the recorded ones are not
/// compared. The default seed must have recorded values. On a mismatch
/// every actual value is printed to stderr in the file's format, ready to
/// be reviewed and recorded.
pub fn check(out: &mut Outcome, workload: &str, seed: u64, actual: &BTreeMap<String, u64>) {
    let want = expected_for(workload, seed);
    if want.is_empty() && seed != crate::DEFAULT_SEED {
        return;
    }
    let mut ok = out.check(!want.is_empty(), || {
        format!("{workload}: no expected values recorded for seed {seed}")
    });
    for (key, value) in &want {
        let got = actual.get(key);
        ok &= out.check(got == Some(value), || {
            format!("{workload} seed {seed}: {key} expected {value}, got {got:?}")
        });
    }
    if !ok {
        for (key, value) in actual {
            eprintln!("actual: {workload} {seed} {key} {value}");
        }
    }
}
