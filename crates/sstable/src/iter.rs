//! Iterators over sorted entry streams.
//!
//! Compaction and full scans consume multiple sorted sources (memtables, regular
//! SSTables, CL-SSTables) and need a single stream in internal-key order. The
//! [`MergingIterator`] performs the k-way merge; the [`DedupIterator`] collapses the
//! stream down to the newest visible version of each user key and optionally drops
//! tombstones when compacting into the bottom level.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use triad_common::types::Entry;
use triad_common::Result;

/// A boxed stream of entries in internal-key order.
pub type EntryIter = Box<dyn Iterator<Item = Result<Entry>> + Send>;

/// An entry held in the merge heap, tagged with the index of its source.
struct HeapItem {
    entry: Entry,
    source: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest internal key is popped
        // first. Ties between sources are broken by source index so that the source
        // listed first (the newer one, by convention) wins deterministically.
        other.entry.key.cmp(&self.entry.key).then_with(|| other.source.cmp(&self.source))
    }
}

/// K-way merge of sorted entry streams.
///
/// Sources must individually be sorted by internal key. By convention callers list
/// newer sources first (memtable before L0, L0 before L1, newest L0 file first); the
/// merge is stable with respect to that order for identical internal keys.
pub struct MergingIterator {
    sources: Vec<EntryIter>,
    heap: BinaryHeap<HeapItem>,
    errored: bool,
}

impl MergingIterator {
    /// Creates a merging iterator over `sources`.
    pub fn new(sources: Vec<EntryIter>) -> Result<Self> {
        let mut iter = MergingIterator { sources, heap: BinaryHeap::new(), errored: false };
        for idx in 0..iter.sources.len() {
            iter.advance_source(idx)?;
        }
        Ok(iter)
    }

    fn advance_source(&mut self, idx: usize) -> Result<()> {
        if let Some(item) = self.sources[idx].next() {
            let entry = item?;
            self.heap.push(HeapItem { entry, source: idx });
        }
        Ok(())
    }
}

impl Iterator for MergingIterator {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        let HeapItem { entry, source } = self.heap.pop()?;
        if let Err(e) = self.advance_source(source) {
            self.errored = true;
            return Some(Err(e));
        }
        Some(Ok(entry))
    }
}

/// Collapses a stream sorted by internal key down to one entry per user key.
///
/// The input convention (newest version of a user key first) means the first entry
/// seen for each user key is the survivor; older versions are counted as dropped.
/// When `drop_tombstones` is set, surviving delete markers are removed as well —
/// only safe when compacting into the lowest populated level.
pub struct DedupIterator {
    inner: EntryIter,
    current_user_key: Option<Vec<u8>>,
    drop_tombstones: bool,
    dropped: u64,
    errored: bool,
}

impl DedupIterator {
    /// Wraps `inner`, which must be sorted by internal key.
    pub fn new(inner: EntryIter, drop_tombstones: bool) -> Self {
        DedupIterator { inner, current_user_key: None, drop_tombstones, dropped: 0, errored: false }
    }

    /// Number of entries dropped so far (older versions and, if enabled, tombstones).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Iterator for DedupIterator {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        loop {
            let entry = match self.inner.next()? {
                Ok(entry) => entry,
                Err(e) => {
                    self.errored = true;
                    return Some(Err(e));
                }
            };
            let is_new_user_key = self
                .current_user_key
                .as_deref()
                .map(|k| k != entry.key.user_key.as_slice())
                .unwrap_or(true);
            if !is_new_user_key {
                // An older version of a key we already emitted (or suppressed).
                self.dropped += 1;
                continue;
            }
            self.current_user_key = Some(entry.key.user_key.clone());
            if self.drop_tombstones && entry.key.kind == triad_common::types::ValueKind::Delete {
                self.dropped += 1;
                continue;
            }
            return Some(Ok(entry));
        }
    }
}

/// Convenience helper that turns a vector of entries into an [`EntryIter`].
pub fn entries_to_iter(entries: Vec<Entry>) -> EntryIter {
    Box::new(entries.into_iter().map(Ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_common::types::{InternalKey, ValueKind};
    use triad_common::Error;

    fn put(key: &str, seqno: u64, value: &str) -> Entry {
        Entry::put(key.as_bytes().to_vec(), value.as_bytes().to_vec(), seqno)
    }

    fn del(key: &str, seqno: u64) -> Entry {
        Entry::delete(key.as_bytes().to_vec(), seqno)
    }

    fn sorted(mut entries: Vec<Entry>) -> Vec<Entry> {
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    #[test]
    fn merge_of_disjoint_sources() {
        let a = sorted(vec![put("a", 1, "1"), put("c", 2, "3")]);
        let b = sorted(vec![put("b", 3, "2"), put("d", 4, "4")]);
        let merged: Vec<Entry> = MergingIterator::new(vec![entries_to_iter(a), entries_to_iter(b)])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let keys: Vec<&[u8]> = merged.iter().map(|e| e.key.user_key.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"c", b"d"]);
    }

    #[test]
    fn merge_orders_versions_of_same_key_newest_first() {
        let newer = sorted(vec![put("k", 10, "new"), put("z", 11, "zz")]);
        let older = sorted(vec![put("k", 5, "old"), put("a", 6, "aa")]);
        let merged: Vec<Entry> =
            MergingIterator::new(vec![entries_to_iter(newer), entries_to_iter(older)])
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[0].key.user_key, b"a");
        assert_eq!(merged[1].value, b"new", "seqno 10 sorts before seqno 5");
        assert_eq!(merged[2].value, b"old");
        assert_eq!(merged[3].key.user_key, b"z");
    }

    #[test]
    fn merge_of_empty_sources() {
        let merged: Vec<Entry> =
            MergingIterator::new(vec![entries_to_iter(vec![]), entries_to_iter(vec![])])
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
        assert!(merged.is_empty());
        let no_sources: Vec<Entry> =
            MergingIterator::new(vec![]).unwrap().map(|r| r.unwrap()).collect();
        assert!(no_sources.is_empty());
    }

    #[test]
    fn merge_propagates_errors() {
        let erroring: EntryIter = Box::new(
            vec![Ok(put("a", 1, "1")), Err(Error::corruption("broken source"))].into_iter(),
        );
        let good = entries_to_iter(sorted(vec![put("b", 2, "2")]));
        let mut iter = MergingIterator::new(vec![erroring, good]).unwrap();
        // First item pops "a"; advancing the erroring source surfaces the error.
        let results: Vec<Result<Entry>> = iter.by_ref().collect();
        assert!(results.iter().any(|r| r.is_err()));
        assert!(iter.next().is_none(), "iterator fuses after an error");
    }

    #[test]
    fn dedup_keeps_newest_version_only() {
        let stream = sorted(vec![
            put("k", 10, "new"),
            put("k", 5, "old"),
            put("k", 1, "ancient"),
            put("x", 2, "xx"),
        ]);
        let mut dedup = DedupIterator::new(entries_to_iter(stream), false);
        let kept: Vec<Entry> = dedup.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].value, b"new");
        assert_eq!(kept[1].key.user_key, b"x");
        assert_eq!(dedup.dropped(), 2);
    }

    #[test]
    fn dedup_keeps_tombstones_on_intermediate_levels() {
        let stream = sorted(vec![del("k", 10), put("k", 5, "old")]);
        let kept: Vec<Entry> =
            DedupIterator::new(entries_to_iter(stream), false).map(|r| r.unwrap()).collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].key.kind, ValueKind::Delete);
    }

    #[test]
    fn dedup_drops_tombstones_on_bottom_level() {
        let stream = sorted(vec![del("gone", 10), put("gone", 5, "old"), put("kept", 3, "v")]);
        let mut dedup = DedupIterator::new(entries_to_iter(stream), true);
        let kept: Vec<Entry> = dedup.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].key.user_key, b"kept");
        assert_eq!(dedup.dropped(), 2);
    }

    #[test]
    fn dedup_of_empty_stream() {
        let kept: Vec<Entry> =
            DedupIterator::new(entries_to_iter(vec![]), true).map(|r| r.unwrap()).collect();
        assert!(kept.is_empty());
    }

    #[test]
    fn merge_then_dedup_models_compaction() {
        // Newer source (e.g. an L0 file) shadows the older one (an L1 file).
        let l0 = sorted(vec![put("a", 20, "a-new"), del("b", 21), put("c", 22, "c-new")]);
        let l1 = sorted(vec![put("a", 3, "a-old"), put("b", 4, "b-old"), put("d", 5, "d-old")]);
        let merged = MergingIterator::new(vec![entries_to_iter(l0), entries_to_iter(l1)]).unwrap();
        let compacted: Vec<Entry> =
            DedupIterator::new(Box::new(merged), true).map(|r| r.unwrap()).collect();
        let keys: Vec<&[u8]> = compacted.iter().map(|e| e.key.user_key.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"c", b"d"]);
        assert_eq!(compacted[0].value, b"a-new");
        assert_eq!(compacted[2].value, b"d-old");
    }

    #[test]
    fn heap_tie_break_prefers_earlier_source() {
        // Two sources containing the exact same internal key (can only happen if a
        // caller replays the same log twice); the earlier source must win the tie.
        let a = vec![put("k", 7, "from-source-0")];
        let b = vec![put("k", 7, "from-source-1")];
        let merged: Vec<Entry> = MergingIterator::new(vec![entries_to_iter(a), entries_to_iter(b)])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(merged[0].value, b"from-source-0");
        assert_eq!(merged[1].value, b"from-source-1");
        let key = InternalKey::new(b"k".to_vec(), 7, ValueKind::Put);
        assert_eq!(merged[0].key, key);
    }
}
