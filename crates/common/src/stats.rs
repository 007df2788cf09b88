//! Atomic statistics registry.
//!
//! The TRIAD evaluation is framed in terms of a handful of I/O efficiency metrics:
//! bytes flushed, bytes compacted, bytes appended to the commit log, write
//! amplification, read amplification and the share of wall-clock time spent in
//! background work. Every component of the engine increments counters in a shared
//! [`Stats`] instance; the benchmark harness snapshots it before and after a run and
//! derives the figures reported in the paper.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::hist::LatencyHistogram;

/// One in this many commit groups is wall-clock timed for the sampled
/// `wal_append_us` / `wal_sync_wait_us` counters (see [`Stats::sample_timing`]).
pub const TIMING_SAMPLE_EVERY: u64 = 16;

/// Shared, thread-safe statistics registry.
///
/// All counters are monotonically increasing; derive rates or deltas by snapshotting
/// with [`Stats::snapshot`] and subtracting.
#[derive(Debug, Default)]
pub struct Stats {
    // Logical (user-issued) traffic.
    user_writes: AtomicU64,
    user_deletes: AtomicU64,
    user_reads: AtomicU64,
    user_read_hits: AtomicU64,
    user_bytes_written: AtomicU64,

    // Commit log traffic.
    wal_bytes_written: AtomicU64,
    wal_appends: AtomicU64,
    wal_syncs: AtomicU64,
    wal_rotations: AtomicU64,

    // Group-commit pipeline.
    write_groups: AtomicU64,
    write_group_batches: AtomicU64,
    write_group_max_size: AtomicU64,
    wal_syncs_amortized: AtomicU64,

    // Pipelined commit (append / sync stage decoupling).
    wal_syncs_overlapped: AtomicU64,
    wal_pipeline_max_depth: AtomicU64,
    wal_append_us: AtomicU64,
    wal_sync_wait_us: AtomicU64,
    /// Round-robin tick deciding which commit groups get timed; not a metric
    /// itself and deliberately absent from [`StatSnapshot`].
    timing_tick: AtomicU64,

    // Flushing.
    flush_count: AtomicU64,
    small_flush_skips: AtomicU64,
    bytes_flushed: AtomicU64,
    logical_bytes_flushed: AtomicU64,
    entries_flushed: AtomicU64,
    hot_entries_retained: AtomicU64,
    flush_micros: AtomicU64,

    // Compaction.
    compaction_count: AtomicU64,
    compactions_deferred: AtomicU64,
    bytes_compacted_read: AtomicU64,
    bytes_compacted_written: AtomicU64,
    entries_compacted: AtomicU64,
    entries_dropped: AtomicU64,
    compaction_micros: AtomicU64,

    // Read path.
    memtable_probes: AtomicU64,
    table_probes: AtomicU64,
    block_reads: AtomicU64,
    bloom_negatives: AtomicU64,
    snapshots_created: AtomicU64,
    table_cache_hits: AtomicU64,
    table_cache_misses: AtomicU64,
    cl_log_bulk_reads: AtomicU64,

    // The shared block cache (one cache across all keyspace shards; each
    // probe charges the stats registry of the shard that issued it, so the
    // per-shard counters still sum to the cache-wide totals under `merge`).
    block_cache_hits: AtomicU64,
    block_cache_misses: AtomicU64,
    block_cache_evictions: AtomicU64,
    block_cache_inserted_bytes: AtomicU64,

    // Garbage collection of obsolete files.
    gc_files_deleted: AtomicU64,
    gc_logs_deleted: AtomicU64,
    gc_delete_failures: AtomicU64,

    // Crash recovery.
    recovery_torn_batches: AtomicU64,

    // Checkpoints and replication.
    checkpoints_created: AtomicU64,
    checkpoint_files_linked: AtomicU64,
    checkpoint_files_copied: AtomicU64,
    replica_records_applied: AtomicU64,

    // Read-path latency distributions (nanoseconds). Cumulative histograms,
    // not counters: they are read through [`Stats::get_latency`] /
    // [`Stats::scan_latency`] and deliberately absent from [`StatSnapshot`],
    // which stays a `Copy` bundle of scalars.
    get_latency: LatencyHistogram,
    scan_latency: LatencyHistogram,
}

macro_rules! counter_methods {
    ($($(#[$doc:meta])* $name:ident => $add:ident, $get:ident;)*) => {
        $(
            $(#[$doc])*
            pub fn $add(&self, delta: u64) {
                self.$name.fetch_add(delta, Ordering::Relaxed);
            }

            #[doc = concat!("Returns the current value of `", stringify!($name), "`.")]
            pub fn $get(&self) -> u64 {
                self.$name.load(Ordering::Relaxed)
            }
        )*
    };
}

impl Stats {
    /// Creates a zeroed statistics registry.
    pub fn new() -> Self {
        Self::default()
    }

    counter_methods! {
        /// Records user-issued put operations.
        user_writes => add_user_writes, user_writes;
        /// Records user-issued delete operations.
        user_deletes => add_user_deletes, user_deletes;
        /// Records user-issued read operations.
        user_reads => add_user_reads, user_reads;
        /// Records reads that found a live value.
        user_read_hits => add_user_read_hits, user_read_hits;
        /// Records logical bytes written by the application (key + value sizes).
        user_bytes_written => add_user_bytes_written, user_bytes_written;
        /// Records bytes appended to the commit log.
        wal_bytes_written => add_wal_bytes_written, wal_bytes_written;
        /// Records commit log append operations.
        wal_appends => add_wal_appends, wal_appends;
        /// Records commit log fsync operations.
        wal_syncs => add_wal_syncs, wal_syncs;
        /// Records commit log rotations (new log installed).
        wal_rotations => add_wal_rotations, wal_rotations;
        /// Records commit groups committed by the group-commit write pipeline (one
        /// leader-driven WAL append + flush/sync per group).
        write_groups => add_write_groups, write_groups;
        /// Records write batches that were carried by a commit group (equals the
        /// number of acknowledged `write` calls on the grouped pipeline).
        write_group_batches => add_write_group_batches, write_group_batches;
        /// Records fsyncs *avoided* by group commit: for a synced group of `k`
        /// batches, `k - 1` batches became durable without their own fsync.
        wal_syncs_amortized => add_wal_syncs_amortized, wal_syncs_amortized;
        /// Records commit groups that required durability but found the watermark
        /// already past their end offset — another in-flight group's fsync covered
        /// them while they were appending or inserting. Strictly positive only
        /// when the pipelined commit actually overlapped an fsync with later work.
        wal_syncs_overlapped => add_wal_syncs_overlapped, wal_syncs_overlapped;
        /// Records *sampled* microseconds spent inside the append stage of the
        /// pipelined commit (drain + encode + buffered append, under the append
        /// lock). One in [`TIMING_SAMPLE_EVERY`] groups is timed, so this is an
        /// observability signal, not a total.
        wal_append_us => add_wal_append_us, wal_append_us;
        /// Records *sampled* microseconds a commit group spent waiting for (or
        /// issuing) the fsync that made it durable — the log-induced stall the
        /// pipeline hides behind the next group's append. Same sampling as
        /// `wal_append_us`.
        wal_sync_wait_us => add_wal_sync_wait_us, wal_sync_wait_us;
        /// Records completed flushes of the memory component.
        flush_count => add_flush_count, flush_count;
        /// Records flushes avoided by the TRIAD-MEM small-memtable rule.
        small_flush_skips => add_small_flush_skips, small_flush_skips;
        /// Records bytes physically written to L0 by flushes (for CL-SSTables this is
        /// only the index, which is the point of TRIAD-LOG).
        bytes_flushed => add_bytes_flushed, bytes_flushed;
        /// Records the logical bytes installed at L0 by flushes. For regular flushes
        /// this equals `bytes_flushed`; for CL-SSTables it also counts the key/value
        /// data the index references in the sealed commit log. Write amplification is
        /// computed against this counter, matching how the paper reports WA for TRIAD.
        logical_bytes_flushed => add_logical_bytes_flushed, logical_bytes_flushed;
        /// Records entries written to L0 by flushes.
        entries_flushed => add_entries_flushed, entries_flushed;
        /// Records hot entries retained in memory by TRIAD-MEM instead of being flushed.
        hot_entries_retained => add_hot_entries_retained, hot_entries_retained;
        /// Records microseconds spent inside flush operations.
        flush_micros => add_flush_micros, flush_micros;
        /// Records completed compactions.
        compaction_count => add_compaction_count, compaction_count;
        /// Records compactions deferred by TRIAD-DISK.
        compactions_deferred => add_compactions_deferred, compactions_deferred;
        /// Records bytes read by compactions.
        bytes_compacted_read => add_bytes_compacted_read, bytes_compacted_read;
        /// Records bytes written by compactions.
        bytes_compacted_written => add_bytes_compacted_written, bytes_compacted_written;
        /// Records entries processed by compactions.
        entries_compacted => add_entries_compacted, entries_compacted;
        /// Records obsolete entries discarded by compactions.
        entries_dropped => add_entries_dropped, entries_dropped;
        /// Records microseconds spent inside compaction operations.
        compaction_micros => add_compaction_micros, compaction_micros;
        /// Records memtable probes performed by reads.
        memtable_probes => add_memtable_probes, memtable_probes;
        /// Records SSTable probes performed by reads (the unit of read amplification).
        table_probes => add_table_probes, table_probes;
        /// Records data-block reads performed by table probes.
        block_reads => add_block_reads, block_reads;
        /// Records table probes skipped thanks to a bloom-filter negative.
        bloom_negatives => add_bloom_negatives, bloom_negatives;
        /// Records MVCC snapshots opened, by `Db::snapshot` and by the implicit
        /// snapshot every live scan takes.
        snapshots_created => add_snapshots_created, snapshots_created;
        /// Records table-cache probes that found the table handle already open.
        table_cache_hits => add_table_cache_hits, table_cache_hits;
        /// Records table-cache probes that had to open the table from disk.
        table_cache_misses => add_table_cache_misses, table_cache_misses;
        /// Records whole-file reads of a CL-SSTable's backing commit log (bulk
        /// iteration for compaction; scans resolve values with positioned reads).
        cl_log_bulk_reads => add_cl_log_bulk_reads, cl_log_bulk_reads;
        /// Records block-cache probes served from a cached decoded block
        /// (including probes that joined an in-flight single-flight load).
        block_cache_hits => add_block_cache_hits, block_cache_hits;
        /// Records block-cache probes that had to read the block from disk.
        block_cache_misses => add_block_cache_misses, block_cache_misses;
        /// Records blocks evicted from the cache to stay under the byte budget.
        block_cache_evictions => add_block_cache_evictions, block_cache_evictions;
        /// Records decoded bytes inserted into the block cache.
        block_cache_inserted_bytes => add_block_cache_inserted_bytes, block_cache_inserted_bytes;
        /// Records obsolete table files (SSTables and CL indexes) physically deleted.
        gc_files_deleted => add_gc_files_deleted, gc_files_deleted;
        /// Records obsolete commit logs physically deleted.
        gc_logs_deleted => add_gc_logs_deleted, gc_logs_deleted;
        /// Records failed deletions of obsolete files (e.g. permission errors); the
        /// file stays queued and the next GC pass retries, so a non-zero value means
        /// disk space is leaking observably rather than silently.
        gc_delete_failures => add_gc_delete_failures, gc_delete_failures;
        /// Records cross-shard batches crash recovery found partially durable and
        /// dropped wholesale (torn-batch detection over the shards' stray logs).
        recovery_torn_batches => add_recovery_torn_batches, recovery_torn_batches;
        /// Records crash-consistent checkpoints completed via `Db::checkpoint`.
        checkpoints_created => add_checkpoints_created, checkpoints_created;
        /// Records checkpoint files captured by hard link (shared storage with the
        /// primary's immutable files).
        checkpoint_files_linked => add_checkpoint_files_linked, checkpoint_files_linked;
        /// Records checkpoint files captured by byte copy — log prefixes, manifests,
        /// and any file whose hard link failed (e.g. a cross-filesystem target).
        checkpoint_files_copied => add_checkpoint_files_copied, checkpoint_files_copied;
        /// Records shipped WAL records a replica applied through its local engine.
        replica_records_applied => add_replica_records_applied, replica_records_applied;
    }

    /// Records the size (in batches) of one commit group, keeping the running
    /// maximum. A high-water mark rather than a sum, so it gets a dedicated
    /// `fetch_max` instead of the additive counter macro.
    pub fn record_write_group_size(&self, batches: u64) {
        self.write_group_max_size.fetch_max(batches, Ordering::Relaxed);
    }

    /// Returns the largest commit group observed so far, in batches.
    pub fn write_group_max_size(&self) -> u64 {
        self.write_group_max_size.load(Ordering::Relaxed)
    }

    /// Records the number of commit groups simultaneously in flight (appended
    /// but not yet complete — still syncing, inserting or registering their
    /// publication), keeping the running maximum. Depth > 1 is the direct
    /// evidence that group N+1 appended while group N was still in flight.
    pub fn record_pipeline_depth(&self, depth: u64) {
        self.wal_pipeline_max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Returns the deepest commit pipeline observed so far, in groups.
    pub fn wal_pipeline_max_depth(&self) -> u64 {
        self.wal_pipeline_max_depth.load(Ordering::Relaxed)
    }

    /// Records one point-lookup latency, in nanoseconds. Used by the engine's
    /// `Db::get` and snapshot reads; recording is one relaxed `fetch_add`.
    pub fn record_get_latency_ns(&self, nanos: u64) {
        self.get_latency.record(nanos);
    }

    /// The cumulative point-lookup latency histogram (nanoseconds).
    pub fn get_latency(&self) -> &LatencyHistogram {
        &self.get_latency
    }

    /// Records one scan latency, in nanoseconds: the engine measures an
    /// iterator's whole lifetime, construction (tree capture) through drop.
    pub fn record_scan_latency_ns(&self, nanos: u64) {
        self.scan_latency.record(nanos);
    }

    /// The cumulative scan latency histogram (nanoseconds).
    pub fn scan_latency(&self) -> &LatencyHistogram {
        &self.scan_latency
    }

    /// Returns `true` for one in [`TIMING_SAMPLE_EVERY`] calls; the write path
    /// uses this to decide whether to time a commit group, keeping clock reads
    /// off the common path.
    pub fn sample_timing(&self) -> bool {
        self.timing_tick.fetch_add(1, Ordering::Relaxed) % TIMING_SAMPLE_EVERY == 0
    }

    /// Convenience helper to record time spent flushing.
    pub fn add_flush_duration(&self, elapsed: Duration) {
        self.add_flush_micros(elapsed.as_micros() as u64);
    }

    /// Convenience helper to record time spent compacting.
    pub fn add_compaction_duration(&self, elapsed: Duration) {
        self.add_compaction_micros(elapsed.as_micros() as u64);
    }

    /// Folds another registry into this one: additive counters sum, the
    /// high-water marks (`write_group_max_size`, `wal_pipeline_max_depth`)
    /// take the maximum, and the cumulative latency histograms merge bucket
    /// by bucket. The sharded `Db` façade uses this to aggregate per-shard
    /// engine stats into one database-wide view; `other` keeps recording
    /// independently and is not modified.
    pub fn absorb(&self, other: &Stats) {
        let snap = other.snapshot();
        macro_rules! fold {
            ($($field:ident => $add:ident),* $(,)?) => {
                $(self.$add(snap.$field);)*
            };
        }
        fold!(
            user_writes => add_user_writes,
            user_deletes => add_user_deletes,
            user_reads => add_user_reads,
            user_read_hits => add_user_read_hits,
            user_bytes_written => add_user_bytes_written,
            wal_bytes_written => add_wal_bytes_written,
            wal_appends => add_wal_appends,
            wal_syncs => add_wal_syncs,
            wal_rotations => add_wal_rotations,
            write_groups => add_write_groups,
            write_group_batches => add_write_group_batches,
            wal_syncs_amortized => add_wal_syncs_amortized,
            wal_syncs_overlapped => add_wal_syncs_overlapped,
            wal_append_us => add_wal_append_us,
            wal_sync_wait_us => add_wal_sync_wait_us,
            flush_count => add_flush_count,
            small_flush_skips => add_small_flush_skips,
            bytes_flushed => add_bytes_flushed,
            logical_bytes_flushed => add_logical_bytes_flushed,
            entries_flushed => add_entries_flushed,
            hot_entries_retained => add_hot_entries_retained,
            flush_micros => add_flush_micros,
            compaction_count => add_compaction_count,
            compactions_deferred => add_compactions_deferred,
            bytes_compacted_read => add_bytes_compacted_read,
            bytes_compacted_written => add_bytes_compacted_written,
            entries_compacted => add_entries_compacted,
            entries_dropped => add_entries_dropped,
            compaction_micros => add_compaction_micros,
            memtable_probes => add_memtable_probes,
            table_probes => add_table_probes,
            block_reads => add_block_reads,
            bloom_negatives => add_bloom_negatives,
            snapshots_created => add_snapshots_created,
            table_cache_hits => add_table_cache_hits,
            table_cache_misses => add_table_cache_misses,
            cl_log_bulk_reads => add_cl_log_bulk_reads,
            block_cache_hits => add_block_cache_hits,
            block_cache_misses => add_block_cache_misses,
            block_cache_evictions => add_block_cache_evictions,
            block_cache_inserted_bytes => add_block_cache_inserted_bytes,
            gc_files_deleted => add_gc_files_deleted,
            gc_logs_deleted => add_gc_logs_deleted,
            gc_delete_failures => add_gc_delete_failures,
            recovery_torn_batches => add_recovery_torn_batches,
            checkpoints_created => add_checkpoints_created,
            checkpoint_files_linked => add_checkpoint_files_linked,
            checkpoint_files_copied => add_checkpoint_files_copied,
            replica_records_applied => add_replica_records_applied,
        );
        self.record_write_group_size(snap.write_group_max_size);
        self.record_pipeline_depth(snap.wal_pipeline_max_depth);
        self.get_latency.merge_from(other.get_latency());
        self.scan_latency.merge_from(other.scan_latency());
    }

    /// Takes a point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatSnapshot {
        StatSnapshot {
            user_writes: self.user_writes(),
            user_deletes: self.user_deletes(),
            user_reads: self.user_reads(),
            user_read_hits: self.user_read_hits(),
            user_bytes_written: self.user_bytes_written(),
            wal_bytes_written: self.wal_bytes_written(),
            wal_appends: self.wal_appends(),
            wal_syncs: self.wal_syncs(),
            wal_rotations: self.wal_rotations(),
            write_groups: self.write_groups(),
            write_group_batches: self.write_group_batches(),
            write_group_max_size: self.write_group_max_size(),
            wal_syncs_amortized: self.wal_syncs_amortized(),
            wal_syncs_overlapped: self.wal_syncs_overlapped(),
            wal_pipeline_max_depth: self.wal_pipeline_max_depth(),
            wal_append_us: self.wal_append_us(),
            wal_sync_wait_us: self.wal_sync_wait_us(),
            flush_count: self.flush_count(),
            small_flush_skips: self.small_flush_skips(),
            bytes_flushed: self.bytes_flushed(),
            logical_bytes_flushed: self.logical_bytes_flushed(),
            entries_flushed: self.entries_flushed(),
            hot_entries_retained: self.hot_entries_retained(),
            flush_micros: self.flush_micros(),
            compaction_count: self.compaction_count(),
            compactions_deferred: self.compactions_deferred(),
            bytes_compacted_read: self.bytes_compacted_read(),
            bytes_compacted_written: self.bytes_compacted_written(),
            entries_compacted: self.entries_compacted(),
            entries_dropped: self.entries_dropped(),
            compaction_micros: self.compaction_micros(),
            memtable_probes: self.memtable_probes(),
            table_probes: self.table_probes(),
            block_reads: self.block_reads(),
            bloom_negatives: self.bloom_negatives(),
            snapshots_created: self.snapshots_created(),
            table_cache_hits: self.table_cache_hits(),
            table_cache_misses: self.table_cache_misses(),
            cl_log_bulk_reads: self.cl_log_bulk_reads(),
            block_cache_hits: self.block_cache_hits(),
            block_cache_misses: self.block_cache_misses(),
            block_cache_evictions: self.block_cache_evictions(),
            block_cache_inserted_bytes: self.block_cache_inserted_bytes(),
            gc_files_deleted: self.gc_files_deleted(),
            gc_logs_deleted: self.gc_logs_deleted(),
            gc_delete_failures: self.gc_delete_failures(),
            recovery_torn_batches: self.recovery_torn_batches(),
            checkpoints_created: self.checkpoints_created(),
            checkpoint_files_linked: self.checkpoint_files_linked(),
            checkpoint_files_copied: self.checkpoint_files_copied(),
            replica_records_applied: self.replica_records_applied(),
        }
    }
}

/// A point-in-time copy of the [`Stats`] counters, with derived-metric helpers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // Field names mirror the counters documented on `Stats`.
pub struct StatSnapshot {
    pub user_writes: u64,
    pub user_deletes: u64,
    pub user_reads: u64,
    pub user_read_hits: u64,
    pub user_bytes_written: u64,
    pub wal_bytes_written: u64,
    pub wal_appends: u64,
    pub wal_syncs: u64,
    pub wal_rotations: u64,
    pub write_groups: u64,
    pub write_group_batches: u64,
    /// Largest commit group observed, in batches — a high-water mark, not a sum.
    pub write_group_max_size: u64,
    pub wal_syncs_amortized: u64,
    pub wal_syncs_overlapped: u64,
    /// Deepest commit pipeline observed, in groups — a high-water mark, not a sum.
    pub wal_pipeline_max_depth: u64,
    /// Sampled microseconds in the append stage (1 in [`TIMING_SAMPLE_EVERY`] groups).
    pub wal_append_us: u64,
    /// Sampled microseconds waiting on group durability (same sampling).
    pub wal_sync_wait_us: u64,
    pub flush_count: u64,
    pub small_flush_skips: u64,
    pub bytes_flushed: u64,
    pub logical_bytes_flushed: u64,
    pub entries_flushed: u64,
    pub hot_entries_retained: u64,
    pub flush_micros: u64,
    pub compaction_count: u64,
    pub compactions_deferred: u64,
    pub bytes_compacted_read: u64,
    pub bytes_compacted_written: u64,
    pub entries_compacted: u64,
    pub entries_dropped: u64,
    pub compaction_micros: u64,
    pub memtable_probes: u64,
    pub table_probes: u64,
    pub block_reads: u64,
    pub bloom_negatives: u64,
    pub snapshots_created: u64,
    pub table_cache_hits: u64,
    pub table_cache_misses: u64,
    pub cl_log_bulk_reads: u64,
    pub block_cache_hits: u64,
    pub block_cache_misses: u64,
    pub block_cache_evictions: u64,
    pub block_cache_inserted_bytes: u64,
    pub gc_files_deleted: u64,
    pub gc_logs_deleted: u64,
    pub gc_delete_failures: u64,
    pub recovery_torn_batches: u64,
    pub checkpoints_created: u64,
    pub checkpoint_files_linked: u64,
    pub checkpoint_files_copied: u64,
    pub replica_records_applied: u64,
}

impl StatSnapshot {
    /// Computes the delta between this snapshot and an earlier one.
    ///
    /// Every counter is subtracted except `write_group_max_size` and
    /// `wal_pipeline_max_depth`, which are high-water marks: the delta carries the
    /// later snapshot's maxima verbatim.
    pub fn delta_since(&self, earlier: &StatSnapshot) -> StatSnapshot {
        macro_rules! sub {
            ($($field:ident),* $(,)?) => {
                StatSnapshot {
                    write_group_max_size: self.write_group_max_size,
                    wal_pipeline_max_depth: self.wal_pipeline_max_depth,
                    $($field: self.$field.saturating_sub(earlier.$field)),*
                }
            };
        }
        sub!(
            user_writes,
            user_deletes,
            user_reads,
            user_read_hits,
            user_bytes_written,
            wal_bytes_written,
            wal_appends,
            wal_syncs,
            wal_rotations,
            write_groups,
            write_group_batches,
            wal_syncs_amortized,
            wal_syncs_overlapped,
            wal_append_us,
            wal_sync_wait_us,
            flush_count,
            small_flush_skips,
            bytes_flushed,
            logical_bytes_flushed,
            entries_flushed,
            hot_entries_retained,
            flush_micros,
            compaction_count,
            compactions_deferred,
            bytes_compacted_read,
            bytes_compacted_written,
            entries_compacted,
            entries_dropped,
            compaction_micros,
            memtable_probes,
            table_probes,
            block_reads,
            bloom_negatives,
            snapshots_created,
            table_cache_hits,
            table_cache_misses,
            cl_log_bulk_reads,
            block_cache_hits,
            block_cache_misses,
            block_cache_evictions,
            block_cache_inserted_bytes,
            gc_files_deleted,
            gc_logs_deleted,
            gc_delete_failures,
            recovery_torn_batches,
            checkpoints_created,
            checkpoint_files_linked,
            checkpoint_files_copied,
            replica_records_applied,
        )
    }

    /// Combines two snapshots taken from different engine instances (one per
    /// shard): every additive counter sums, while the high-water marks
    /// (`write_group_max_size`, `wal_pipeline_max_depth`) take the maximum —
    /// the deepest pipeline of any shard, not a meaningless sum of maxima.
    pub fn merge(&self, other: &StatSnapshot) -> StatSnapshot {
        macro_rules! add {
            ($($field:ident),* $(,)?) => {
                StatSnapshot {
                    write_group_max_size: self.write_group_max_size.max(other.write_group_max_size),
                    wal_pipeline_max_depth: self
                        .wal_pipeline_max_depth
                        .max(other.wal_pipeline_max_depth),
                    $($field: self.$field.saturating_add(other.$field)),*
                }
            };
        }
        add!(
            user_writes,
            user_deletes,
            user_reads,
            user_read_hits,
            user_bytes_written,
            wal_bytes_written,
            wal_appends,
            wal_syncs,
            wal_rotations,
            write_groups,
            write_group_batches,
            wal_syncs_amortized,
            wal_syncs_overlapped,
            wal_append_us,
            wal_sync_wait_us,
            flush_count,
            small_flush_skips,
            bytes_flushed,
            logical_bytes_flushed,
            entries_flushed,
            hot_entries_retained,
            flush_micros,
            compaction_count,
            compactions_deferred,
            bytes_compacted_read,
            bytes_compacted_written,
            entries_compacted,
            entries_dropped,
            compaction_micros,
            memtable_probes,
            table_probes,
            block_reads,
            bloom_negatives,
            snapshots_created,
            table_cache_hits,
            table_cache_misses,
            cl_log_bulk_reads,
            block_cache_hits,
            block_cache_misses,
            block_cache_evictions,
            block_cache_inserted_bytes,
            gc_files_deleted,
            gc_logs_deleted,
            gc_delete_failures,
            recovery_torn_batches,
            checkpoints_created,
            checkpoint_files_linked,
            checkpoint_files_copied,
            replica_records_applied,
        )
    }

    /// System-wide write amplification as defined in the paper:
    /// `(bytes_flushed + bytes_compacted) / bytes_flushed`.
    ///
    /// The flushed term uses the *logical* flush volume (which, for TRIAD-LOG
    /// CL-SSTables, includes the commit-log data the flushed index references), so
    /// the metric stays comparable between the baseline and TRIAD — the same
    /// convention the paper uses when reporting TRIAD's WA. Returns 1.0 when nothing
    /// has been flushed yet (no amplification observed).
    pub fn write_amplification(&self) -> f64 {
        let flushed = if self.logical_bytes_flushed > 0 {
            self.logical_bytes_flushed
        } else {
            self.bytes_flushed
        };
        if flushed == 0 {
            return 1.0;
        }
        (flushed + self.bytes_compacted_written) as f64 / flushed as f64
    }

    /// Write amplification measured against the logical bytes the user wrote:
    /// `(wal + flushed + compacted) / user_bytes`. Useful as a secondary view.
    pub fn device_write_amplification(&self) -> f64 {
        if self.user_bytes_written == 0 {
            return 0.0;
        }
        (self.wal_bytes_written + self.bytes_flushed + self.bytes_compacted_written) as f64
            / self.user_bytes_written as f64
    }

    /// Average number of write batches per commit group; 1.0 means group commit
    /// never found a second waiting writer (e.g. a single-threaded workload).
    pub fn avg_write_group_batches(&self) -> f64 {
        if self.write_groups == 0 {
            return 0.0;
        }
        self.write_group_batches as f64 / self.write_groups as f64
    }

    /// Fsyncs issued per acknowledged grouped write batch. Under a concurrent
    /// synced workload group commit drives this strictly below 1 — one fsync
    /// covers every batch in the group.
    pub fn fsyncs_per_grouped_batch(&self) -> f64 {
        if self.write_group_batches == 0 {
            return 0.0;
        }
        self.wal_syncs as f64 / self.write_group_batches as f64
    }

    /// Average number of on-disk table probes per read — the paper's read amplification.
    pub fn read_amplification(&self) -> f64 {
        if self.user_reads == 0 {
            return 0.0;
        }
        self.table_probes as f64 / self.user_reads as f64
    }

    /// Fraction of block-cache probes served from memory,
    /// `hits / (hits + misses)`. Returns 0.0 when the cache saw no probes
    /// (disabled, or no table read ever reached a data block).
    pub fn block_cache_hit_rate(&self) -> f64 {
        let total = self.block_cache_hits + self.block_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.block_cache_hits as f64 / total as f64
    }

    /// Total bytes written to disk by background work (flush + compaction).
    pub fn background_bytes_written(&self) -> u64 {
        self.bytes_flushed + self.bytes_compacted_written
    }

    /// Total time spent in background work.
    pub fn background_time(&self) -> Duration {
        Duration::from_micros(self.flush_micros + self.compaction_micros)
    }

    /// Fraction of `wall_clock` spent in background work (may exceed 1.0 when several
    /// background threads run in parallel).
    pub fn background_time_fraction(&self, wall_clock: Duration) -> f64 {
        if wall_clock.is_zero() {
            return 0.0;
        }
        self.background_time().as_secs_f64() / wall_clock.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counters_accumulate() {
        let stats = Stats::new();
        stats.add_user_writes(3);
        stats.add_user_writes(2);
        stats.add_bytes_flushed(1024);
        assert_eq!(stats.user_writes(), 5);
        assert_eq!(stats.bytes_flushed(), 1024);
    }

    #[test]
    fn snapshot_and_delta() {
        let stats = Stats::new();
        stats.add_bytes_flushed(100);
        let before = stats.snapshot();
        stats.add_bytes_flushed(50);
        stats.add_bytes_compacted_written(200);
        let after = stats.snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.bytes_flushed, 50);
        assert_eq!(delta.bytes_compacted_written, 200);
        assert_eq!(delta.user_writes, 0);
    }

    #[test]
    fn write_amplification_matches_paper_definition() {
        let snap =
            StatSnapshot { bytes_flushed: 10, bytes_compacted_written: 30, ..Default::default() };
        assert!((snap.write_amplification() - 4.0).abs() < 1e-9);
        let empty = StatSnapshot::default();
        assert_eq!(empty.write_amplification(), 1.0);
        // With TRIAD-LOG the logical flush volume (index + referenced log data) is the
        // denominator, not the tiny index alone.
        let cl = StatSnapshot {
            bytes_flushed: 10,
            logical_bytes_flushed: 100,
            bytes_compacted_written: 100,
            ..Default::default()
        };
        assert!((cl.write_amplification() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn read_amplification_is_probes_per_read() {
        let snap = StatSnapshot { user_reads: 4, table_probes: 14, ..Default::default() };
        assert!((snap.read_amplification() - 3.5).abs() < 1e-9);
        assert_eq!(StatSnapshot::default().read_amplification(), 0.0);
    }

    #[test]
    fn group_commit_counters_and_derived_metrics() {
        let stats = Stats::new();
        stats.add_write_groups(2);
        stats.add_write_group_batches(10);
        stats.add_wal_syncs(2);
        stats.add_wal_syncs_amortized(8);
        stats.record_write_group_size(3);
        stats.record_write_group_size(7);
        stats.record_write_group_size(5);
        assert_eq!(stats.write_group_max_size(), 7, "high-water mark keeps the max");

        let snap = stats.snapshot();
        assert_eq!(snap.write_groups, 2);
        assert_eq!(snap.write_group_batches, 10);
        assert_eq!(snap.write_group_max_size, 7);
        assert_eq!(snap.wal_syncs_amortized, 8);
        assert!((snap.avg_write_group_batches() - 5.0).abs() < 1e-9);
        assert!((snap.fsyncs_per_grouped_batch() - 0.2).abs() < 1e-9);
        assert_eq!(StatSnapshot::default().avg_write_group_batches(), 0.0);
        assert_eq!(StatSnapshot::default().fsyncs_per_grouped_batch(), 0.0);

        // The delta subtracts counters but carries the high-water mark verbatim.
        stats.add_write_groups(1);
        stats.add_write_group_batches(1);
        let delta = stats.snapshot().delta_since(&snap);
        assert_eq!(delta.write_groups, 1);
        assert_eq!(delta.write_group_batches, 1);
        assert_eq!(delta.write_group_max_size, 7);
    }

    #[test]
    fn pipelined_commit_counters() {
        let stats = Stats::new();
        stats.add_wal_syncs_overlapped(3);
        stats.add_wal_append_us(120);
        stats.add_wal_sync_wait_us(900);
        stats.record_pipeline_depth(2);
        stats.record_pipeline_depth(5);
        stats.record_pipeline_depth(1);
        assert_eq!(stats.wal_pipeline_max_depth(), 5, "depth is a high-water mark");

        let snap = stats.snapshot();
        assert_eq!(snap.wal_syncs_overlapped, 3);
        assert_eq!(snap.wal_append_us, 120);
        assert_eq!(snap.wal_sync_wait_us, 900);
        assert_eq!(snap.wal_pipeline_max_depth, 5);

        // Deltas subtract the additive counters but carry the depth mark verbatim.
        stats.add_wal_syncs_overlapped(1);
        let delta = stats.snapshot().delta_since(&snap);
        assert_eq!(delta.wal_syncs_overlapped, 1);
        assert_eq!(delta.wal_append_us, 0);
        assert_eq!(delta.wal_pipeline_max_depth, 5);

        // The sampling tick fires exactly once per TIMING_SAMPLE_EVERY calls.
        let fresh = Stats::new();
        let sampled = (0..TIMING_SAMPLE_EVERY * 4).filter(|_| fresh.sample_timing()).count();
        assert_eq!(sampled, 4);
    }

    #[test]
    fn background_time_fraction() {
        let snap = StatSnapshot {
            flush_micros: 500_000,
            compaction_micros: 500_000,
            ..Default::default()
        };
        let frac = snap.background_time_fraction(Duration::from_secs(2));
        assert!((frac - 0.5).abs() < 1e-9);
        assert_eq!(snap.background_time(), Duration::from_secs(1));
        assert_eq!(snap.background_time_fraction(Duration::ZERO), 0.0);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let stats = Arc::new(Stats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let stats = Arc::clone(&stats);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    stats.add_table_probes(1);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("thread completes");
        }
        assert_eq!(stats.table_probes(), 80_000);
    }

    #[test]
    fn read_latency_histograms_accumulate_independently() {
        let stats = Stats::new();
        assert_eq!(stats.get_latency().count(), 0);
        assert_eq!(stats.scan_latency().count(), 0);
        for nanos in [500, 1_200, 90_000] {
            stats.record_get_latency_ns(nanos);
        }
        stats.record_scan_latency_ns(2_000_000);
        assert_eq!(stats.get_latency().count(), 3);
        assert_eq!(stats.scan_latency().count(), 1);
        assert_eq!(stats.get_latency().max(), 90_000);
        assert!(stats.scan_latency().percentile(50.0) > 1_000_000);
        // The histograms are cumulative and not part of the Copy snapshot.
        let _snap: StatSnapshot = stats.snapshot();
        assert_eq!(stats.get_latency().count(), 3);
    }

    #[test]
    fn merge_sums_counters_and_maxes_high_water_marks() {
        let a = StatSnapshot {
            user_writes: 10,
            wal_syncs: 3,
            write_group_max_size: 7,
            wal_pipeline_max_depth: 2,
            ..Default::default()
        };
        let b = StatSnapshot {
            user_writes: 5,
            wal_syncs: 4,
            write_group_max_size: 4,
            wal_pipeline_max_depth: 6,
            ..Default::default()
        };
        let merged = a.merge(&b);
        assert_eq!(merged.user_writes, 15);
        assert_eq!(merged.wal_syncs, 7);
        assert_eq!(merged.write_group_max_size, 7, "HWMs take the max, not the sum");
        assert_eq!(merged.wal_pipeline_max_depth, 6);
        // Merge with the identity element is the identity.
        assert_eq!(a.merge(&StatSnapshot::default()), a);
    }

    #[test]
    fn absorb_folds_counters_marks_and_histograms() {
        let total = Stats::new();
        total.add_user_writes(1);
        total.record_write_group_size(2);
        total.record_get_latency_ns(100);

        let shard = Stats::new();
        shard.add_user_writes(41);
        shard.add_wal_syncs(9);
        shard.record_write_group_size(5);
        shard.record_pipeline_depth(3);
        shard.record_get_latency_ns(1_000_000);
        shard.record_scan_latency_ns(50_000);

        total.absorb(&shard);
        assert_eq!(total.user_writes(), 42);
        assert_eq!(total.wal_syncs(), 9);
        assert_eq!(total.write_group_max_size(), 5);
        assert_eq!(total.wal_pipeline_max_depth(), 3);
        assert_eq!(total.get_latency().count(), 2);
        assert_eq!(total.get_latency().max(), 1_000_000);
        assert_eq!(total.scan_latency().count(), 1);
        // The source registry is untouched and keeps recording.
        assert_eq!(shard.user_writes(), 41);
    }

    #[test]
    fn device_write_amplification() {
        let snap = StatSnapshot {
            user_bytes_written: 100,
            wal_bytes_written: 100,
            bytes_flushed: 100,
            bytes_compacted_written: 300,
            ..Default::default()
        };
        assert!((snap.device_write_amplification() - 5.0).abs() < 1e-9);
        assert_eq!(StatSnapshot::default().device_write_amplification(), 0.0);
    }
}
