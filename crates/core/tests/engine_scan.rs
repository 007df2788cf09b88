//! Lazy range scans: an iterator reads its capture-time view however slowly it
//! is pulled, releases what it held when it drops, and costs what it returns
//! rather than what the database holds.
//!
//! The databases are not pinned to one shard, so `TRIAD_SHARDS` decides the
//! shard count.

mod common;

use std::collections::BTreeMap;

use common::{assert_disk_matches_live_set, disk_files, key_for, open_small, value_for};
use triad_core::{Db, TriadConfig, WriteBatch, WriteOptions};

/// Table files (SSTables and CL-SSTable indexes) on disk, across shards.
fn table_files(dir: &std::path::Path) -> usize {
    disk_files(dir).iter().filter(|f| f.ends_with(".sst") || f.ends_with(".clidx")).count()
}

/// Every live pair, read through a fresh scan.
fn listing(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    db.scan().unwrap().map(|pair| pair.unwrap()).collect()
}

#[test]
fn a_slow_iterator_sees_its_creation_view_and_releases_it_on_drop() {
    let (db, dir) = open_small("scan-isolation", |options| {
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::log_only();
    });
    // Keys on disk (L0 and below) and in the active memtable, with tombstones.
    for i in 0..1_500u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    for i in (0..1_500u64).step_by(3) {
        db.put(key_for(i), value_for(i, 2)).unwrap();
    }
    for i in (0..1_500u64).step_by(11) {
        db.delete(key_for(i)).unwrap();
    }
    let expected = listing(&db);
    let model: BTreeMap<Vec<u8>, Vec<u8>> = expected.iter().cloned().collect();
    assert_eq!(model.len(), expected.len());

    let mut iter = db.scan().unwrap();
    let compactions = db.stats().compaction_count;
    let mut seen = Vec::new();
    std::thread::scope(|s| {
        // Overwrites, deletes and new keys, a flush and a compaction,
        // concurrently with the pulls.
        let writer = s.spawn(|| {
            for round in 3..33u64 {
                let mut batch = WriteBatch::new();
                for i in (0..1_500u64).step_by(7) {
                    batch.put(key_for(i), value_for(i, round));
                }
                for i in (1..1_500u64).step_by(13) {
                    batch.delete(key_for(i));
                }
                for i in 0..20u64 {
                    batch.put(key_for(10_000 + round * 20 + i), value_for(i, round));
                }
                db.write(batch, WriteOptions::default()).unwrap();
                match round {
                    12 => db.flush().unwrap(),
                    22 => {
                        db.flush().unwrap();
                        db.wait_for_compactions().unwrap();
                    }
                    _ => std::thread::sleep(std::time::Duration::from_millis(1)),
                }
            }
        });
        // Pull slowly, and hold the tail back until the writer is done.
        let tail = expected.len() - 100;
        while seen.len() < tail {
            seen.push(iter.next().unwrap().unwrap());
            if seen.len() % 20 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        writer.join().unwrap();
    });
    seen.extend(iter.by_ref().map(|pair| pair.unwrap()));
    assert_eq!(seen, expected, "the iterator must return exactly its creation-time view");
    assert!(db.stats().compaction_count > compactions, "no compaction under the iterator");

    // Dropping the iterator releases its retention and its pins.
    drop(iter);
    assert_eq!(db.retained_prior_versions(), 0, "retained versions outlived the iterator");

    // Overwrites of keys an open iterator can see retain the shadowed
    // versions; the drop alone must release them (the keys stay idle).
    for i in 0..100u64 {
        db.put(key_for(20_000 + i), value_for(i, 1)).unwrap();
    }
    let iter = db.scan().unwrap();
    for i in 0..100u64 {
        db.put(key_for(20_000 + i), value_for(i, 2)).unwrap();
    }
    assert!(db.retained_prior_versions() > 0, "overwrites under an iterator must retain");
    drop(iter);
    assert_eq!(db.retained_prior_versions(), 0, "the drop did not sweep idle keys");
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
}

#[test]
fn an_iterator_holds_retired_files_until_it_drops() {
    let (db, dir) = open_small("scan-pins", |options| {
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::log_only();
    });
    for i in 0..800u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    let mut iter = db.scan_range(Some(&key_for(400)), None).unwrap();
    assert_eq!(iter.next().unwrap().unwrap(), (key_for(400), value_for(400, 1)));

    // Rewrite everything twice: compaction retires every file the iterator
    // may still read.
    for version in 2..4 {
        for i in 0..800u64 {
            db.put(key_for(i), value_for(i, version)).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
    }
    db.collect_garbage();
    assert!(
        table_files(&dir) > db.files_per_level().iter().sum(),
        "the iterator's retired files were collected under it"
    );
    let rest: Vec<(Vec<u8>, Vec<u8>)> = iter.by_ref().map(|pair| pair.unwrap()).collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        (401..800u64).map(|i| (key_for(i), value_for(i, 1))).collect();
    assert_eq!(rest, want);
    drop(iter);
    assert_disk_matches_live_set(&db, &dir);
    assert_eq!(table_files(&dir), db.files_per_level().iter().sum());
    db.close().unwrap();
}

#[test]
fn a_short_scan_reads_blocks_in_proportion_to_what_it_returns() {
    const KEYS: u64 = 50_000;
    let (db, dir) = open_small("scan-cost", |options| {
        options.memtable_size = 512 * 1024;
        options.max_log_size = 1024 * 1024;
        options.l1_target_size = 2 * 1024 * 1024;
        options.target_file_size = 256 * 1024;
        options.block_size = 4096;
        options.block_cache = 0;
        options.triad = TriadConfig::all_enabled();
    });
    let value = |i: u64, version: u64| format!("{i:08}-{version}-{}", "v".repeat(40)).into_bytes();
    let load = |range: std::ops::Range<u64>, step: usize, version: u64| {
        let keys: Vec<u64> = range.step_by(step).collect();
        for chunk in keys.chunks(250) {
            let mut batch = WriteBatch::new();
            for &i in chunk {
                batch.put(key_for(i), value(i, version));
            }
            db.write(batch, WriteOptions::default()).unwrap();
        }
    };
    load(0..KEYS, 1, 1);
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    // A CL-SSTable at L0 over the compacted levels, and keys in the memtable.
    load(0..KEYS, 9, 2);
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    load(0..KEYS, 17, 3);
    assert!(disk_files(&dir).iter().any(|f| f.ends_with(".clidx")), "no CL-SSTable to scan");

    for start in [0, 7_777, 25_000, 49_990] {
        let start_key = key_for(start);
        let before = db.stats();
        let got: Vec<(Vec<u8>, Vec<u8>)> = db
            .scan_range(Some(&start_key), None)
            .unwrap()
            .take(50)
            .map(|pair| pair.unwrap())
            .collect();
        let after = db.stats();
        let want = (start..KEYS.min(start + 50)).map(|i| {
            let version = if i % 17 == 0 {
                3
            } else if i % 9 == 0 {
                2
            } else {
                1
            };
            (key_for(i), value(i, version))
        });
        assert_eq!(got, want.collect::<Vec<_>>());

        // The tables the scan overlaps: every L0 file reaching the start key,
        // and per deeper level the files covering the returned keys plus the
        // one the merge looks ahead into.
        let last_key = got.last().unwrap().0.clone();
        let mut tables = 0;
        for version in db.current_versions() {
            tables += version.files_in_range(0, Some(&start_key), None).len();
            for level in 1..version.num_levels() {
                let files = version.files_in_range(level, Some(&start_key), None);
                let covering = version.files_in_range(level, Some(&start_key), Some(&last_key));
                tables += files.len().min(covering.len() + 1);
            }
        }
        let block_reads = after.block_reads - before.block_reads;
        assert!(
            block_reads <= 3 * tables as u64,
            "a 50-pair scan from {start} read {block_reads} blocks over {tables} tables"
        );
        assert_eq!(
            after.cl_log_bulk_reads, before.cl_log_bulk_reads,
            "a scan read a CL-SSTable's backing log whole"
        );
    }
    db.close().unwrap();
}
