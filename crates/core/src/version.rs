//! Versions: immutable snapshots of the LSM tree's file layout.
//!
//! A [`Version`] records which table files live on which level. Flushes and
//! compactions never mutate a version in place; they produce a [`VersionEdit`]
//! (files added, files deleted, counters advanced) that is first appended to the
//! manifest for durability and then applied to yield the next version. Reads grab an
//! `Arc<Version>` and are therefore never blocked by background work.
//!
//! Versions also govern *file lifetime*: a table file (or the commit log backing a
//! CL-SSTable) may be physically deleted only once no live version references it.
//! The [`VersionSet`](crate::manifest::VersionSet) keeps a weak-reference registry of
//! every installed version, so the strong count of an `Arc<Version>` — held by the
//! engine for the current version and by readers for pinned older ones — *is* the
//! reference count that garbage collection consults.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use triad_common::types::InternalKey;
use triad_common::varint;
use triad_common::{Error, Result};
use triad_hll::HyperLogLog;
use triad_sstable::TableKind;

/// Metadata describing one on-disk table file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMetadata {
    /// Unique file id (also determines the file name).
    pub id: u64,
    /// Level the file belongs to.
    pub level: u32,
    /// Whether the file is a regular SSTable or a CL-SSTable index.
    pub kind: TableKind,
    /// On-disk size in bytes of the table (for CL-SSTables, the index file only).
    pub size: u64,
    /// Number of entries in the table.
    pub num_entries: u64,
    /// Smallest internal key in the table.
    pub smallest: InternalKey,
    /// Largest internal key in the table.
    pub largest: InternalKey,
    /// HyperLogLog sketch of the table's user keys (TRIAD-DISK).
    pub hll: HyperLogLog,
    /// For CL-SSTables, the id of the commit log holding the values.
    pub backing_log_id: Option<u64>,
}

impl FileMetadata {
    /// Returns `true` if the file's user-key range overlaps `[start, end]`.
    pub fn overlaps_user_range(&self, start: &[u8], end: &[u8]) -> bool {
        self.smallest.user_key.as_slice() <= end && start <= self.largest.user_key.as_slice()
    }

    /// Returns `true` if `user_key` falls inside the file's key range.
    pub fn may_contain_user_key(&self, user_key: &[u8]) -> bool {
        self.overlaps_user_range(user_key, user_key)
    }

    /// Serializes the metadata for inclusion in a [`VersionEdit`].
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::encode_u64(out, self.id);
        varint::encode_u32(out, self.level);
        out.push(self.kind.as_u8());
        varint::encode_u64(out, self.size);
        varint::encode_u64(out, self.num_entries);
        varint::encode_length_prefixed(out, &self.smallest.encode());
        varint::encode_length_prefixed(out, &self.largest.encode());
        varint::encode_length_prefixed(out, &self.hll.to_bytes());
        match self.backing_log_id {
            Some(id) => {
                out.push(1);
                varint::encode_u64(out, id);
            }
            None => out.push(0),
        }
    }

    /// Parses metadata previously produced by [`encode`](Self::encode), returning the
    /// metadata and the number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(FileMetadata, usize)> {
        let mut pos = 0usize;
        let (id, read) = varint::decode_u64(&bytes[pos..])?;
        pos += read;
        let (level, read) = varint::decode_u32(&bytes[pos..])?;
        pos += read;
        let kind_tag =
            *bytes.get(pos).ok_or_else(|| Error::corruption("file metadata truncated at kind"))?;
        let kind = TableKind::from_u8(kind_tag).ok_or_else(|| {
            Error::corruption(format!("invalid table kind {kind_tag} in manifest"))
        })?;
        pos += 1;
        let (size, read) = varint::decode_u64(&bytes[pos..])?;
        pos += read;
        let (num_entries, read) = varint::decode_u64(&bytes[pos..])?;
        pos += read;
        let (smallest_bytes, read) = varint::decode_length_prefixed(&bytes[pos..])?;
        let smallest = InternalKey::decode(smallest_bytes)
            .ok_or_else(|| Error::corruption("invalid smallest key in manifest"))?;
        pos += read;
        let (largest_bytes, read) = varint::decode_length_prefixed(&bytes[pos..])?;
        let largest = InternalKey::decode(largest_bytes)
            .ok_or_else(|| Error::corruption("invalid largest key in manifest"))?;
        pos += read;
        let (hll_bytes, read) = varint::decode_length_prefixed(&bytes[pos..])?;
        let hll = HyperLogLog::from_bytes(hll_bytes)?;
        pos += read;
        let tag = *bytes
            .get(pos)
            .ok_or_else(|| Error::corruption("file metadata truncated at log id"))?;
        pos += 1;
        let backing_log_id = match tag {
            0 => None,
            1 => {
                let (id, read) = varint::decode_u64(&bytes[pos..])?;
                pos += read;
                Some(id)
            }
            other => {
                return Err(Error::corruption(format!(
                    "invalid backing-log tag {other} in manifest"
                )))
            }
        };
        Ok((
            FileMetadata {
                id,
                level,
                kind,
                size,
                num_entries,
                smallest,
                largest,
                hll,
                backing_log_id,
            },
            pos,
        ))
    }
}

/// A set of changes taking one [`Version`] to the next.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionEdit {
    /// Files added by this edit.
    pub added: Vec<FileMetadata>,
    /// Files removed by this edit, as `(level, file id)` pairs.
    pub deleted: Vec<(u32, u64)>,
    /// New value of the next-file-number counter, if advanced.
    pub next_file_number: Option<u64>,
    /// New value of the last sequence number, if advanced.
    pub last_seqno: Option<u64>,
    /// Id of the oldest commit log whose contents are *not* yet reflected in the
    /// tables of this version (i.e. logs with smaller ids are safe to ignore during
    /// recovery unless a CL-SSTable references them).
    pub log_number: Option<u64>,
}

impl VersionEdit {
    /// Returns `true` when the edit changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.deleted.is_empty()
            && self.next_file_number.is_none()
            && self.last_seqno.is_none()
            && self.log_number.is_none()
    }

    /// Serializes the edit.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::encode_u64(&mut out, self.added.len() as u64);
        for file in &self.added {
            file.encode(&mut out);
        }
        varint::encode_u64(&mut out, self.deleted.len() as u64);
        for (level, id) in &self.deleted {
            varint::encode_u32(&mut out, *level);
            varint::encode_u64(&mut out, *id);
        }
        encode_option(&mut out, self.next_file_number);
        encode_option(&mut out, self.last_seqno);
        encode_option(&mut out, self.log_number);
        out
    }

    /// Parses an edit previously produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<VersionEdit> {
        let mut pos = 0usize;
        let (added_count, read) = varint::decode_u64(&bytes[pos..])?;
        pos += read;
        let mut added = Vec::with_capacity(added_count as usize);
        for _ in 0..added_count {
            let (file, read) = FileMetadata::decode(&bytes[pos..])?;
            pos += read;
            added.push(file);
        }
        let (deleted_count, read) = varint::decode_u64(&bytes[pos..])?;
        pos += read;
        let mut deleted = Vec::with_capacity(deleted_count as usize);
        for _ in 0..deleted_count {
            let (level, read) = varint::decode_u32(&bytes[pos..])?;
            pos += read;
            let (id, read) = varint::decode_u64(&bytes[pos..])?;
            pos += read;
            deleted.push((level, id));
        }
        let (next_file_number, read) = decode_option(&bytes[pos..])?;
        pos += read;
        let (last_seqno, read) = decode_option(&bytes[pos..])?;
        pos += read;
        let (log_number, read) = decode_option(&bytes[pos..])?;
        pos += read;
        if pos != bytes.len() {
            return Err(Error::corruption("version edit has trailing bytes"));
        }
        Ok(VersionEdit { added, deleted, next_file_number, last_seqno, log_number })
    }
}

fn encode_option(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            out.push(1);
            varint::encode_u64(out, v);
        }
        None => out.push(0),
    }
}

fn decode_option(bytes: &[u8]) -> Result<(Option<u64>, usize)> {
    let tag = *bytes.first().ok_or_else(|| Error::corruption("truncated optional field"))?;
    match tag {
        0 => Ok((None, 1)),
        1 => {
            let (value, read) = varint::decode_u64(&bytes[1..])?;
            Ok((Some(value), 1 + read))
        }
        other => Err(Error::corruption(format!("invalid option tag {other}"))),
    }
}

/// An immutable snapshot of the table layout.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `levels[i]` holds the files of level `i`. L0 is ordered newest-first (by file
    /// id, descending); deeper levels are ordered by smallest user key.
    pub levels: Vec<Vec<Arc<FileMetadata>>>,
}

impl Version {
    /// Creates an empty version with `num_levels` levels.
    pub fn empty(num_levels: usize) -> Self {
        Version { levels: vec![Vec::new(); num_levels] }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of files on `level`.
    pub fn num_files(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, Vec::len)
    }

    /// Total on-disk bytes of `level`.
    pub fn level_size(&self, level: usize) -> u64 {
        self.levels.get(level).map_or(0, |files| files.iter().map(|f| f.size).sum())
    }

    /// Total number of files across all levels.
    pub fn total_files(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// The deepest level that currently holds any file, if the tree is non-empty.
    pub fn deepest_populated_level(&self) -> Option<usize> {
        (0..self.levels.len()).rev().find(|&level| !self.levels[level].is_empty())
    }

    /// Files on `level` whose key range overlaps `[start, end]` (user keys).
    pub fn overlapping_files(
        &self,
        level: usize,
        start: &[u8],
        end: &[u8],
    ) -> Vec<Arc<FileMetadata>> {
        self.levels
            .get(level)
            .map(|files| {
                files.iter().filter(|f| f.overlaps_user_range(start, end)).cloned().collect()
            })
            .unwrap_or_default()
    }

    /// Files on `level` that may hold user keys in `[start, end)` (either bound
    /// may be omitted), in the order a scan reads them: L0 newest first, deeper
    /// levels in key order. Deeper levels binary-search the first file that
    /// reaches `start` and stop at the first that begins at or past `end`.
    pub fn files_in_range(
        &self,
        level: usize,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Vec<Arc<FileMetadata>> {
        let Some(files) = self.levels.get(level) else { return Vec::new() };
        let reaches_start =
            |f: &FileMetadata| start.map_or(true, |start| f.largest.user_key.as_slice() >= start);
        let before_end =
            |f: &FileMetadata| end.map_or(true, |end| f.smallest.user_key.as_slice() < end);
        if level == 0 {
            return files.iter().filter(|f| reaches_start(f) && before_end(f)).cloned().collect();
        }
        let first = files.partition_point(|f| !reaches_start(f));
        files[first..].iter().take_while(|f| before_end(f)).cloned().collect()
    }

    /// Files that a point lookup of `user_key` must consult on `level`, in the order
    /// they must be consulted (newest first for L0, the single candidate for deeper
    /// levels).
    pub fn files_for_key(&self, level: usize, user_key: &[u8]) -> Vec<Arc<FileMetadata>> {
        if level == 0 {
            return self.overlapping_files(0, user_key, user_key);
        }
        // Deeper levels have disjoint ranges sorted by smallest key: binary search.
        let files = match self.levels.get(level) {
            Some(files) if !files.is_empty() => files,
            _ => return Vec::new(),
        };
        let idx = files.partition_point(|f| f.largest.user_key.as_slice() < user_key);
        match files.get(idx) {
            Some(file) if file.may_contain_user_key(user_key) => vec![Arc::clone(file)],
            _ => Vec::new(),
        }
    }

    /// Applies `edit`, producing the next version.
    pub fn apply(&self, edit: &VersionEdit) -> Result<Version> {
        let mut levels = self.levels.clone();
        for (level, id) in &edit.deleted {
            let level = *level as usize;
            if level >= levels.len() {
                return Err(Error::corruption(format!(
                    "edit deletes file {id} on unknown level {level}"
                )));
            }
            let before = levels[level].len();
            levels[level].retain(|f| f.id != *id);
            if levels[level].len() == before {
                return Err(Error::corruption(format!(
                    "edit deletes unknown file {id} on level {level}"
                )));
            }
        }
        for file in &edit.added {
            let level = file.level as usize;
            while levels.len() <= level {
                levels.push(Vec::new());
            }
            if levels.iter().flatten().any(|f| f.id == file.id) {
                return Err(Error::corruption(format!("edit adds duplicate file id {}", file.id)));
            }
            levels[level].push(Arc::new(file.clone()));
        }
        // Restore level ordering invariants.
        if let Some(l0) = levels.get_mut(0) {
            l0.sort_by_key(|file| std::cmp::Reverse(file.id));
        }
        for level in levels.iter_mut().skip(1) {
            level.sort_by(|a, b| a.smallest.user_key.cmp(&b.smallest.user_key));
        }
        Ok(Version { levels })
    }

    /// Ids of every live table file.
    pub fn live_file_ids(&self) -> HashSet<u64> {
        self.levels.iter().flatten().map(|f| f.id).collect()
    }

    /// Ids of every commit log referenced by a live CL-SSTable.
    pub fn live_backing_logs(&self) -> HashSet<u64> {
        self.levels.iter().flatten().filter_map(|f| f.backing_log_id).collect()
    }

    /// Names of every on-disk file this version references: table files, CL index
    /// files and the commit logs backing them. Used by garbage collection and by
    /// the disk-consistency diagnostics.
    pub fn referenced_file_names(&self) -> BTreeSet<String> {
        let mut names = BTreeSet::new();
        for file in self.levels.iter().flatten() {
            match file.kind {
                TableKind::Block => {
                    names.insert(triad_sstable::sst_file_name(file.id));
                }
                TableKind::CommitLogIndex => {
                    names.insert(triad_sstable::cl_index_file_name(file.id));
                }
            }
            if let Some(log_id) = file.backing_log_id {
                names.insert(triad_wal::log_file_name(log_id));
            }
        }
        names
    }

    /// Checks the structural invariants of the version (levels ≥ 1 sorted and
    /// non-overlapping). Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<()> {
        for (level, files) in self.levels.iter().enumerate().skip(1) {
            for pair in files.windows(2) {
                if pair[0].largest.user_key >= pair[1].smallest.user_key {
                    return Err(Error::corruption(format!(
                        "level {level} files {} and {} overlap",
                        pair[0].id, pair[1].id
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_common::types::ValueKind;

    fn file(id: u64, level: u32, smallest: &str, largest: &str) -> FileMetadata {
        let mut hll = HyperLogLog::new();
        hll.add(smallest.as_bytes());
        hll.add(largest.as_bytes());
        FileMetadata {
            id,
            level,
            kind: TableKind::Block,
            size: 1_000 + id,
            num_entries: 10,
            smallest: InternalKey::new(smallest.as_bytes().to_vec(), 100, ValueKind::Put),
            largest: InternalKey::new(largest.as_bytes().to_vec(), 1, ValueKind::Put),
            hll,
            backing_log_id: None,
        }
    }

    #[test]
    fn file_metadata_round_trip() {
        let mut original = file(7, 2, "aaa", "mmm");
        original.backing_log_id = Some(42);
        original.kind = TableKind::CommitLogIndex;
        let mut bytes = Vec::new();
        original.encode(&mut bytes);
        let (decoded, consumed) = FileMetadata::decode(&bytes).unwrap();
        assert_eq!(decoded, original);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn version_edit_round_trip() {
        let edit = VersionEdit {
            added: vec![file(3, 0, "a", "z"), file(4, 1, "b", "c")],
            deleted: vec![(0, 1), (1, 2)],
            next_file_number: Some(5),
            last_seqno: Some(999),
            log_number: Some(7),
        };
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
        assert!(!edit.is_empty());
        assert!(VersionEdit::default().is_empty());
    }

    #[test]
    fn version_edit_decode_rejects_corruption() {
        let edit = VersionEdit { added: vec![file(1, 0, "a", "b")], ..Default::default() };
        let bytes = edit.encode();
        assert!(VersionEdit::decode(&bytes[..bytes.len() - 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(9);
        assert!(VersionEdit::decode(&trailing).is_err());
    }

    #[test]
    fn apply_adds_and_removes_files() {
        let version = Version::empty(3);
        let edit = VersionEdit {
            added: vec![
                file(1, 0, "a", "m"),
                file(2, 0, "c", "z"),
                file(3, 1, "a", "f"),
                file(4, 1, "g", "z"),
            ],
            ..Default::default()
        };
        let next = version.apply(&edit).unwrap();
        assert_eq!(next.num_files(0), 2);
        assert_eq!(next.num_files(1), 2);
        assert_eq!(next.total_files(), 4);
        // L0 is newest-first.
        assert_eq!(next.levels[0][0].id, 2);
        // L1 is sorted by smallest key.
        assert_eq!(next.levels[1][0].id, 3);
        next.check_invariants().unwrap();

        let removal = VersionEdit { deleted: vec![(0, 1), (1, 4)], ..Default::default() };
        let after = next.apply(&removal).unwrap();
        assert_eq!(after.num_files(0), 1);
        assert_eq!(after.num_files(1), 1);
        assert_eq!(after.deepest_populated_level(), Some(1));
    }

    #[test]
    fn apply_rejects_bad_edits() {
        let version = Version::empty(2);
        let unknown_delete = VersionEdit { deleted: vec![(0, 99)], ..Default::default() };
        assert!(version.apply(&unknown_delete).is_err());

        let with_file = version
            .apply(&VersionEdit { added: vec![file(1, 0, "a", "b")], ..Default::default() })
            .unwrap();
        let duplicate = VersionEdit { added: vec![file(1, 1, "c", "d")], ..Default::default() };
        assert!(with_file.apply(&duplicate).is_err());
    }

    #[test]
    fn lookup_consults_all_overlapping_l0_but_one_deeper_file() {
        let version = Version::empty(3)
            .apply(&VersionEdit {
                added: vec![
                    file(1, 0, "a", "m"),
                    file(2, 0, "k", "z"),
                    file(3, 1, "a", "f"),
                    file(4, 1, "g", "p"),
                    file(5, 1, "q", "z"),
                ],
                ..Default::default()
            })
            .unwrap();
        // "l" falls in both L0 files but only one L1 file.
        let l0 = version.files_for_key(0, b"l");
        assert_eq!(l0.len(), 2);
        assert!(l0[0].id > l0[1].id, "newest L0 file first");
        let l1 = version.files_for_key(1, b"l");
        assert_eq!(l1.len(), 1);
        assert_eq!(l1[0].id, 4);
        // A key outside every range.
        assert!(version.files_for_key(1, b"zz").is_empty());
        assert!(version.files_for_key(2, b"l").is_empty());
    }

    #[test]
    fn overlapping_files_matches_ranges() {
        let version = Version::empty(2)
            .apply(&VersionEdit {
                added: vec![file(1, 1, "a", "f"), file(2, 1, "g", "p"), file(3, 1, "q", "z")],
                ..Default::default()
            })
            .unwrap();
        let overlap = version.overlapping_files(1, b"e", b"h");
        let ids: Vec<u64> = overlap.iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(version.overlapping_files(1, b"zz", b"zzz").is_empty());
        assert_eq!(version.overlapping_files(1, b"a", b"z").len(), 3);
    }

    #[test]
    fn live_sets_track_files_and_backing_logs() {
        let mut cl_file = file(9, 0, "a", "b");
        cl_file.kind = TableKind::CommitLogIndex;
        cl_file.backing_log_id = Some(77);
        let version = Version::empty(2)
            .apply(&VersionEdit {
                added: vec![file(1, 1, "a", "b"), cl_file],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(version.live_file_ids(), HashSet::from([1, 9]));
        assert_eq!(version.live_backing_logs(), HashSet::from([77]));
        assert_eq!(
            version.referenced_file_names(),
            BTreeSet::from([
                "000001.sst".to_string(),
                "000009.clidx".to_string(),
                "000077.log".to_string(),
            ])
        );
    }

    #[test]
    fn invariant_check_detects_overlap() {
        // Build a bad version by hand: two overlapping files on L1.
        let version = Version {
            levels: vec![
                vec![],
                vec![Arc::new(file(1, 1, "a", "m")), Arc::new(file(2, 1, "k", "z"))],
            ],
        };
        assert!(version.check_invariants().is_err());
    }

    #[test]
    fn level_sizes_sum_file_sizes() {
        let version = Version::empty(2)
            .apply(&VersionEdit {
                added: vec![file(1, 1, "a", "b"), file(2, 1, "c", "d")],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(version.level_size(1), 1_001 + 1_002);
        assert_eq!(version.level_size(0), 0);
        assert_eq!(version.level_size(9), 0);
    }
}
