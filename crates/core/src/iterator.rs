//! Range scans: one snapshot-bounded iterator whose every source seeks to the
//! start key.

use std::sync::Arc;
use std::time::Instant;

use triad_common::types::{Entry, SeqNo, ValueKind};
use triad_common::{Result, Stats};
use triad_sstable::{DedupIterator, EntryIter, MergingIterator};

use crate::db::DbInner;
use crate::snapshot::{SnapshotShard, SnapshotView};
use crate::version::FileMetadata;

/// An iterator over the live key/value pairs of a snapshot, in key order,
/// restricted to user keys in `[start, end)`.
///
/// Every iterator reads through a snapshot:
/// [`Snapshot::scan_range`](crate::Snapshot::scan_range) uses the handle's,
/// and [`Db::scan_range`](crate::Db::scan_range) takes an implicit one — on
/// any shard count — that only the iterator keeps. Per shard, the sources
/// are the snapshot's active and sealed memtables, the L0 tables whose key
/// range overlaps the scan, and one concatenating source per deeper level
/// over the files the range reaches. Each source *seeks* to `start` and reads
/// lazily: memtables in small chunks under short shard read locks, tables one
/// data block at a time, CL-SSTable values by positioned reads of the backing
/// log. All are bounded at the shard's snapshot seqno, and a k-way merge plus
/// a dedup stage yield the newest visible version of each key, dropping
/// tombstones. A scan's cost therefore follows the pairs it consumes, not the
/// size of the database.
///
/// Because reads are lazy, the iterator holds its snapshot's view for its
/// whole lifetime: the retention registration, which keeps shadowed
/// memtable versions the view can still see, and the version pins, which keep
/// every table, CL index and backing commit log it may read safe from garbage
/// collection. A long-lived iterator therefore costs what a long-lived
/// snapshot costs — overwrites meanwhile retain their prior versions in
/// memory, and compacted files stay on disk — until it drops.
pub struct DbIterator {
    inner: DedupIterator,
    /// Exclusive upper bound on user keys, if any.
    end: Option<Vec<u8>>,
    /// The snapshot view the sources read; dropping the last reference
    /// releases its retention registration and version pins.
    _view: Arc<SnapshotView>,
    /// Shared statistics registry; the drop impl records this iterator's
    /// lifetime into the scan-latency histogram.
    stats: Arc<Stats>,
    /// When the iterator was created. The recorded "scan latency" is the
    /// whole lifetime — source positioning through drop — which for a
    /// construct-iterate-drop scan (every bench and most callers) is exactly
    /// the scan's wall-clock cost.
    created: Instant,
}

impl Drop for DbIterator {
    fn drop(&mut self) {
        self.stats.record_scan_latency_ns(self.created.elapsed().as_nanos() as u64);
    }
}

impl DbIterator {
    /// Creates an iterator over `view` restricted to user keys in
    /// `[start, end)`; either bound may be omitted.
    ///
    /// No lock is held beyond the short per-source ones: each shard's seqno
    /// sits on a commit-group boundary and was registered for retention before
    /// the capture locks released, so bounding that shard's sources at it
    /// yields a batch-atomic view by construction. The versions read are the
    /// ones the snapshot pinned — never the current ones, whose compactions
    /// may already have deduped away versions the snapshot still needs. Hash
    /// routing makes the shards' key sets disjoint, so the k-way merge needs
    /// no cross-shard conflict resolution.
    pub(crate) fn new(
        view: Arc<SnapshotView>,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<DbIterator> {
        let created = Instant::now();
        let mut sources: Vec<EntryIter> = Vec::new();
        for part in &view.shards {
            push_shard_sources(part, start, end, &mut sources)?;
        }
        let merged = MergingIterator::new(sources)?;
        Ok(DbIterator {
            inner: DedupIterator::new(Box::new(merged), false),
            end: end.map(<[u8]>::to_vec),
            stats: Arc::clone(&view.shards[0].db.stats),
            _view: view,
            created,
        })
    }
}

/// Appends one shard's seeking sources, newest first: the active memtable,
/// the sealed memtables newest first, the overlapping L0 tables newest first,
/// then one source per deeper level.
fn push_shard_sources(
    part: &SnapshotShard,
    start: Option<&[u8]>,
    end: Option<&[u8]>,
    sources: &mut Vec<EntryIter>,
) -> Result<()> {
    let seqno = part.seqno;
    sources.push(Box::new(part.mem.range_at(start, end, seqno).map(Ok)));
    for sealed in part.imm.iter().rev() {
        sources.push(Box::new(sealed.memtable.range_at(start, end, seqno).map(Ok)));
    }
    // L0 files may overlap one another: each overlapping file is its own source.
    for file in part.pin.files_in_range(0, start, end) {
        sources.push(part.db.table_cache.get_or_open(&file)?.iter_from(start, seqno)?);
    }
    for level in 1..part.pin.num_levels() {
        let files = part.pin.files_in_range(level, start, end);
        if !files.is_empty() {
            let level = LevelIter {
                db: Arc::clone(&part.db),
                files: files.into_iter(),
                start: start.map(<[u8]>::to_vec),
                seqno,
                current: None,
            };
            sources.push(Box::new(level));
        }
    }
    Ok(())
}

/// One level ≥ 1 of a scan as a single sorted source. The level's files are
/// disjoint and sorted by key, so their iterators concatenate; each file is
/// opened only when the previous one runs out, and only the first seeks.
struct LevelIter {
    db: Arc<DbInner>,
    /// Files not yet opened, in key order.
    files: std::vec::IntoIter<Arc<FileMetadata>>,
    /// The scan's start key, consumed by the first file's seek.
    start: Option<Vec<u8>>,
    seqno: SeqNo,
    current: Option<EntryIter>,
}

impl Iterator for LevelIter {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.current.as_mut().and_then(Iterator::next) {
                return Some(item);
            }
            let file = self.files.next()?;
            let start = self.start.take();
            let opened = self.db.table_cache.get_or_open(&file);
            match opened.and_then(|table| table.iter_from(start.as_deref(), self.seqno)) {
                Ok(iter) => self.current = Some(iter),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

impl Iterator for DbIterator {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let entry: Entry = match self.inner.next()? {
                Ok(entry) => entry,
                Err(e) => return Some(Err(e)),
            };
            if let Some(end) = &self.end {
                if entry.key.user_key.as_slice() >= end.as_slice() {
                    // Sources are sorted, so nothing after this point can qualify.
                    return None;
                }
            }
            match entry.key.kind {
                ValueKind::Put => return Some(Ok((entry.key.user_key, entry.value))),
                ValueKind::Delete => continue,
            }
        }
    }
}
