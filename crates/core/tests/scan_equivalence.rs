//! Range-scan equivalence: `scan_range(start, end)` + `take(n)` returns exactly
//! what a `BTreeMap` model holds, with live keys spread over every kind of
//! source a scan seeks — the active memtable, sealed memtables, L0
//! CL-SSTables and deeper-level SSTables — and start keys placed on the edges
//! that seeking gets wrong: before the first key, past the last, exactly on a
//! tombstone, and exactly on a table file's smallest or largest key.
//!
//! The database is not pinned to one shard, so `TRIAD_SHARDS` decides the
//! shard count.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::open_small;
use triad_common::failpoint::FailpointAction;
use triad_core::{Db, TriadConfig};

const KEYS: u64 = 1_200;

fn key(index: u64) -> Vec<u8> {
    format!("key-{index:06}").into_bytes()
}

fn value(rng: &mut StdRng, index: u64) -> Vec<u8> {
    let len = rng.gen_range(8..120usize);
    let mut value = format!("v{index}-{}-", rng.gen_range(0..1_000_000u64)).into_bytes();
    value.resize(len.max(value.len()), b'.');
    value
}

/// The model, plus every key ever deleted (tombstone candidates).
#[derive(Default)]
struct Model {
    live: BTreeMap<Vec<u8>, Vec<u8>>,
    deleted: BTreeSet<Vec<u8>>,
}

/// A random put, overwrite or delete of a key in `0..KEYS`, applied to both
/// the database and the model; `delete_one_in` sets the delete rate.
fn mutate(db: &Db, model: &mut Model, rng: &mut StdRng, delete_one_in: u32) {
    let index = rng.gen_range(0..KEYS);
    if rng.gen_range(0..delete_one_in) == 0 {
        db.delete(key(index)).unwrap();
        model.live.remove(&key(index));
        model.deleted.insert(key(index));
    } else {
        let value = value(rng, index);
        db.put(key(index), &value).unwrap();
        model.live.insert(key(index), value);
    }
}

/// Every user key that starts or ends a table file, across all shards and
/// levels.
fn file_boundaries(db: &Db) -> BTreeSet<Vec<u8>> {
    let mut keys = BTreeSet::new();
    for version in db.current_versions() {
        for file in version.levels.iter().flatten() {
            keys.insert(file.smallest.user_key.clone());
            keys.insert(file.largest.user_key.clone());
        }
    }
    keys
}

/// Whether L0 holds a table — a CL-SSTable when TRIAD-LOG is on.
fn has_fresh_l0(db: &Db, log_enabled: bool) -> bool {
    db.current_versions().iter().any(|version| {
        version.levels[0].iter().any(|file| !log_enabled || file.backing_log_id.is_some())
    })
}

/// Checks one `scan_range(start, end).take(n)` against the model.
fn check_scan(
    db: &Db,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    start: Option<&[u8]>,
    end: Option<&[u8]>,
    n: usize,
) {
    let got: Vec<(Vec<u8>, Vec<u8>)> =
        db.scan_range(start, end).unwrap().take(n).map(|pair| pair.unwrap()).collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model
        .iter()
        .filter(|(k, _)| start.map_or(true, |s| k.as_slice() >= s))
        .take_while(|(k, _)| end.map_or(true, |e| k.as_slice() < e))
        .take(n)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(
        got,
        want,
        "scan_range({:?}, {:?}).take({n})",
        start.map(String::from_utf8_lossy),
        end.map(String::from_utf8_lossy)
    );
}

fn run_case(seed: u64, triad: TriadConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let log_enabled = triad.log_enabled;
    let (db, _dir) = open_small(&format!("scan-eq-{seed}"), |options| {
        options.memtable_size = 16 * 1024;
        options.max_log_size = 32 * 1024;
        options.l1_target_size = 64 * 1024;
        options.target_file_size = 16 * 1024;
        options.block_size = 512;
        options.l0_compaction_trigger = 3;
        options.triad = triad;
        options.triad.flush_skip_threshold_bytes = 0;
    });
    let mut model = Model::default();

    // Rounds of churn with forced flushes and compactions: overwrites reach
    // every level, and memtables rotate on their own as they fill.
    for round in 0..6 {
        for _ in 0..rng.gen_range(300..700) {
            mutate(&db, &mut model, &mut rng, 5);
        }
        db.flush().unwrap();
        if round % 2 == 1 {
            db.wait_for_compactions().unwrap();
        }
    }
    // Fresh L0 tables (CL-SSTables under TRIAD-LOG) over the compacted
    // levels, left in place once background work has settled.
    db.wait_for_compactions().unwrap();
    let mut rounds = 0;
    while !has_fresh_l0(&db, log_enabled) {
        assert!(rounds < 20, "no settled L0 layout: {:?}", db.files_per_level());
        rounds += 1;
        for _ in 0..150 {
            mutate(&db, &mut model, &mut rng, 5);
        }
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
    }
    // Sealed memtables that stay sealed (their flushes fail), then an active
    // memtable on top.
    db.failpoints().arm("flush.start", FailpointAction::ReturnError);
    for _ in 0..900 {
        mutate(&db, &mut model, &mut rng, 5);
    }
    for _ in 0..60 {
        mutate(&db, &mut model, &mut rng, 1);
    }
    let model_live = &model.live;

    let per_level = db.files_per_level();
    assert!(per_level[1..].iter().sum::<usize>() > 0, "nothing below L0: {per_level:?}");
    assert!(has_fresh_l0(&db, log_enabled), "L0 changed under the failpoint: {per_level:?}");
    assert!(db.failpoints().hits("flush.start") > 0, "no memtable stayed sealed");

    let mut starts: Vec<Option<Vec<u8>>> = vec![
        None,
        Some(Vec::new()),
        Some(b"a".to_vec()),
        Some(b"key-".to_vec()),
        Some(b"zzz".to_vec()),
        model_live.keys().next_back().map(|last| [last.as_slice(), b"\0"].concat()),
    ];
    let tombstones = model.deleted.iter().filter(|k| !model_live.contains_key(*k));
    starts.extend(tombstones.step_by(7).cloned().map(Some));
    starts.extend(file_boundaries(&db).into_iter().map(Some));
    for _ in 0..40 {
        starts.push(Some(key(rng.gen_range(0..KEYS + 10))));
        // A start key between two adjacent keys.
        starts.push(Some([key(rng.gen_range(0..KEYS)), b"~".to_vec()].concat()));
    }
    for start in &starts {
        let n = [1, 7, 50, usize::MAX][rng.gen_range(0..4usize)];
        check_scan(&db, model_live, start.as_deref(), None, n);
        let end = match rng.gen_range(0..3u32) {
            0 => start.clone(),
            1 => Some(key(rng.gen_range(0..KEYS))),
            _ => Some([start.clone().unwrap_or_default(), b"5".to_vec()].concat()),
        };
        check_scan(&db, model_live, start.as_deref(), end.as_deref(), n);
    }
    db.failpoints().clear();
    db.close().unwrap();
}

#[test]
fn range_scans_match_a_btreemap_model() {
    for seed in 1..=3 {
        run_case(seed, TriadConfig::all_enabled());
    }
    run_case(4, TriadConfig::log_only());
    run_case(5, TriadConfig::baseline());
}
