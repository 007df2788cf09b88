//! Turns what a run measured into named metrics.

use triad_core::StatSnapshot;

use crate::gen::{OpKind, PUT_BYTES};
use crate::latency::Samples;
use crate::workload::Workload;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value; `None` when the run has too few samples to report it.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value is computed from.
    pub samples: u64,
}

/// Equal windows the measured phase is split into. The gated throughput and
/// latencies are medians over the windows, so one slow stretch of a shared
/// host does not set a run's value, while background stalls that recur in
/// every window still do.
pub const WINDOWS: usize = 3;

/// What the clients measured in the timed phase, summed over clients.
#[derive(Debug, Default)]
pub struct Counts {
    /// Latencies by window, then by [`OpKind::slot`].
    pub latency: [[Samples; 3]; WINDOWS],
    /// Measured operations by kind.
    pub attempted: [u64; 3],
    /// Measured operations that returned an error, by kind.
    pub failed: [u64; 3],
    /// Oracle mismatches, warm-up included.
    pub mismatches: u64,
    /// The first mismatch, if any.
    pub first_mismatch: Option<String>,
    /// Measured operations completed with tracing off and on.
    pub ops_by_mode: [u64; 2],
    /// Pairs returned by measured scans.
    pub scan_pairs: u64,
    /// Each measured scan's `scan_range` call.
    pub scan_capture: Samples,
    /// Each measured scan's iteration (pulling pairs, then the drop).
    pub scan_iterate: Samples,
    /// Puts slower than 1 ms.
    pub stalls: u64,
    /// Warm-up operations issued and failed (checked, not measured).
    pub warm_up: [u64; 2],
}

impl Counts {
    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: Counts) {
        for (our_window, their_window) in self.latency.iter_mut().zip(other.latency) {
            for (ours, theirs) in our_window.iter_mut().zip(their_window) {
                ours.absorb(theirs);
            }
        }
        for slot in 0..3 {
            self.attempted[slot] += other.attempted[slot];
            self.failed[slot] += other.failed[slot];
        }
        self.mismatches += other.mismatches;
        self.first_mismatch = self.first_mismatch.take().or(other.first_mismatch);
        self.ops_by_mode[0] += other.ops_by_mode[0];
        self.ops_by_mode[1] += other.ops_by_mode[1];
        self.scan_pairs += other.scan_pairs;
        self.scan_capture.absorb(other.scan_capture);
        self.scan_iterate.absorb(other.scan_iterate);
        self.stalls += other.stalls;
        self.warm_up[0] += other.warm_up[0];
        self.warm_up[1] += other.warm_up[1];
    }

    /// Measured operations of every kind.
    pub fn measured_ops(&self) -> u64 {
        self.attempted.iter().sum()
    }

    /// The `q`-quantile of `kind` in each window, then their median; `None`
    /// if any window has too few samples.
    fn windowed_percentile_us(&mut self, kind: OpKind, q: f64) -> Option<f64> {
        let per_window = self
            .latency
            .iter_mut()
            .map(|window| window[kind.slot()].percentile_us(q))
            .collect::<Option<Vec<f64>>>()?;
        Some(median(&per_window))
    }

    /// The `q`-quantile of `kind` over the whole measured phase.
    fn whole_percentile_us(&self, kind: OpKind, q: f64) -> Option<f64> {
        let mut all = Samples::default();
        for window in &self.latency {
            all.absorb(window[kind.slot()].clone());
        }
        all.percentile_us(q)
    }

    /// The median over windows of the operations started per second.
    fn windowed_kops(&self, window_s: f64) -> f64 {
        let per_window: Vec<f64> = self
            .latency
            .iter()
            .map(|window| window.iter().map(|s| s.len()).sum::<usize>() as f64 / window_s / 1e3)
            .collect();
        median(&per_window)
    }
}

/// Everything a run measured, from which the metrics are computed.
#[derive(Debug)]
pub struct Measured<'a> {
    /// The workload run.
    pub workload: &'a Workload,
    /// The clients' measurements.
    pub counts: Counts,
    /// Length of the measured phase.
    pub elapsed_s: f64,
    /// Length of each of its [`WINDOWS`].
    pub window_s: f64,
    /// Length of the drain.
    pub drain_s: f64,
    /// Process CPU time during the measured window.
    pub cpu_s: f64,
    /// Engine-stat delta over the measured window.
    pub timed: StatSnapshot,
    /// Engine-stat delta over the measured window plus the drain.
    pub with_drain: StatSnapshot,
    /// `wchar` growth over the measured window plus the drain.
    pub io_bytes: u64,
    /// Size of the database directory after the drain.
    pub disk_bytes: u64,
    /// User bytes of the keys that exist after the timed phase.
    pub live_bytes: u64,
    /// Peak resident set size of the process.
    pub peak_rss_kib: u64,
    /// Each set-up's time.
    pub setup_s: Vec<f64>,
    /// Each reopen's time.
    pub recovery_s: Vec<f64>,
    /// WAL bytes each write tail appended (what each reopen replays).
    pub replayed_bytes: Vec<f64>,
    /// Mean L0 and total file counts over the stat samples (traced runs).
    pub mean_files: (f64, f64),
    /// 1 − traced / untraced throughput (traced runs).
    pub trace_overhead: f64,
    /// Operations attempted and failed in every phase.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Cores available to the process.
    pub cores: usize,
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The median of `values` (which must not be empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Every metric: end-to-end first, then per-layer.
pub fn collect(m: &mut Measured<'_>) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name, value: Option<f64>, unit, samples: u64| {
        out.push(Metric { name, value, unit, samples })
    };
    let c = &mut m.counts;
    let ops = c.measured_ops();
    let attempted = c.attempted;
    let n = |kind: OpKind| attempted[kind.slot()];
    let (puts, scans) = (n(OpKind::Put), n(OpKind::Scan));
    let read_kind = if m.workload.scan_pct() > 0 { OpKind::Scan } else { OpKind::Get };
    let reads = n(read_kind);
    // End to end: throughput and latencies are medians over the windows.
    push("throughput_kops", Some(c.windowed_kops(m.window_s)), "kops", ops);
    push("read_p50_us", c.windowed_percentile_us(read_kind, 0.5), "us", reads);
    push("read_p99_us", c.windowed_percentile_us(read_kind, 0.99), "us", reads);
    push("put_p50_us", c.windowed_percentile_us(OpKind::Put, 0.5), "us", puts);
    push("put_p99_us", c.windowed_percentile_us(OpKind::Put, 0.99), "us", puts);
    push("peak_rss_mib", Some(m.peak_rss_kib as f64 / 1024.0), "MiB", 1);
    push("setup_s", Some(median(&m.setup_s)), "s", m.setup_s.len() as u64);
    push("recovery_s", Some(median(&m.recovery_s)), "s", m.recovery_s.len() as u64);
    // By operation kind, over the whole measured phase (reported, not gated).
    let gets = n(OpKind::Get);
    let pct = |kind: OpKind, q: f64| c.whole_percentile_us(kind, q);
    push("get_p50_us", pct(OpKind::Get, 0.5), "us", gets);
    push("get_p99_us", pct(OpKind::Get, 0.99), "us", gets);
    push("scan_p50_us", pct(OpKind::Scan, 0.5), "us", scans);
    push("scan_p99_us", pct(OpKind::Scan, 0.99), "us", scans);
    push("put_p999_us", pct(OpKind::Put, 0.999), "us", puts);
    push("io_write_amp", Some(ratio(m.io_bytes, puts * PUT_BYTES)), "x", puts);
    push("failed_op_frac", Some(ratio(m.failed, m.attempted)), "fraction", m.attempted);

    // Per layer. Read and commit paths over the measured window; flush,
    // compaction and GC over the window plus the drain.
    let (t, b) = (&m.timed, &m.with_drain);
    let engine_gets = t.user_reads;
    let count = |v: u64| Some(v as f64);
    push(
        "committer.batches_per_group",
        Some(ratio(t.write_group_batches, t.write_groups)),
        "batches",
        t.write_groups,
    );
    push("committer.groups", count(t.write_groups), "count", 1);
    let engine_puts = t.user_writes;
    push("durability.fsyncs_per_put", Some(ratio(t.wal_syncs, engine_puts)), "fsyncs", engine_puts);
    push("durability.overlapped_syncs", count(t.wal_syncs_overlapped), "count", 1);
    push("durability.sync_wait_us_sampled", count(t.wal_sync_wait_us), "us", 1);
    push(
        "wal.bytes_per_user_byte",
        Some(ratio(t.wal_bytes_written, t.user_bytes_written)),
        "x",
        engine_puts,
    );
    push("wal.appends_per_put", Some(ratio(t.wal_appends, engine_puts)), "appends", engine_puts);
    push("wal.append_us_sampled", count(t.wal_append_us), "us", 1);
    push("wal.rotations", count(b.wal_rotations), "count", 1);
    push(
        "memtable.probes_per_get",
        Some(ratio(t.memtable_probes, engine_gets)),
        "probes",
        engine_gets,
    );
    push("memtable.hot_entries_retained", count(b.hot_entries_retained), "count", 1);
    push("memtable.small_flush_skips", count(b.small_flush_skips), "count", 1);
    push("flush.count", count(b.flush_count), "count", 1);
    push("flush.bytes", count(b.bytes_flushed), "bytes", 1);
    push("flush.logical_bytes", count(b.logical_bytes_flushed), "bytes", 1);
    push("flush.busy_s", Some(b.flush_micros as f64 / 1e6), "s", 1);
    push("compaction.count", count(b.compaction_count), "count", 1);
    push("compaction.deferred", count(b.compactions_deferred), "count", 1);
    push("compaction.bytes_read", count(b.bytes_compacted_read), "bytes", 1);
    push("compaction.bytes_written", count(b.bytes_compacted_written), "bytes", 1);
    push("compaction.busy_s", Some(b.compaction_micros as f64 / 1e6), "s", 1);
    push("compaction.entries_dropped", count(b.entries_dropped), "count", 1);
    let busy_s = (b.flush_micros + b.compaction_micros) as f64 / 1e6;
    let core_s = (m.elapsed_s + m.drain_s) * m.cores as f64;
    push("background.busy_fraction", Some(busy_s / core_s), "fraction", 1);
    push("drain_s", Some(m.drain_s), "s", 1);
    push("commit.puts_over_1ms", count(c.stalls), "count", puts);
    push(
        "read.table_probes_per_get",
        Some(ratio(t.table_probes, engine_gets)),
        "probes",
        engine_gets,
    );
    push(
        "read.bloom_negatives_per_probe",
        Some(ratio(t.bloom_negatives, t.table_probes)),
        "fraction",
        t.table_probes,
    );
    push(
        "read.block_reads_per_get",
        Some(ratio(t.block_reads, engine_gets)),
        "blocks",
        engine_gets,
    );
    let tables = t.table_cache_hits + t.table_cache_misses;
    push("table_cache.hit_rate", Some(ratio(t.table_cache_hits, tables)), "fraction", tables);
    push("version.l0_files", Some(m.mean_files.0), "files", 1);
    push("version.files_total", Some(m.mean_files.1), "files", 1);
    let blocks = t.block_cache_hits + t.block_cache_misses;
    push("block_cache.hit_rate", Some(ratio(t.block_cache_hits, blocks)), "fraction", blocks);
    push("block_cache.evictions", count(t.block_cache_evictions), "count", 1);
    push("block_cache.inserted_bytes", count(t.block_cache_inserted_bytes), "bytes", 1);
    for (samples, p50, p99) in [
        (&mut c.scan_capture, "scan.capture_us.p50", "scan.capture_us.p99"),
        (&mut c.scan_iterate, "scan.iterate_us.p50", "scan.iterate_us.p99"),
    ] {
        // Zero, not missing, on workloads without scans.
        push(p50, Some(samples.percentile_us(0.5).unwrap_or(0.0)), "us", scans);
        push(p99, Some(samples.percentile_us(0.99).unwrap_or(0.0)), "us", scans);
    }
    push("scan.pairs_per_scan", Some(ratio(c.scan_pairs, scans)), "pairs", scans);
    push("scan.block_reads_per_scan", Some(ratio(t.block_reads, scans)), "blocks", scans);
    push("gc.files_deleted", count(b.gc_files_deleted), "count", 1);
    push("gc.logs_deleted", count(b.gc_logs_deleted), "count", 1);
    push("version.disk_bytes_per_live_byte", Some(ratio(m.disk_bytes, m.live_bytes)), "x", 1);
    push("space.disk_mib", Some(m.disk_bytes as f64 / (1u64 << 20) as f64), "MiB", 1);
    let reopens = m.replayed_bytes.len() as u64;
    push("recovery.replayed_bytes", Some(median(&m.replayed_bytes)), "bytes", reopens);
    push("process.cpu_s_per_kop", Some(m.cpu_s / (ops as f64 / 1e3)), "s", ops);
    push("trace.overhead_frac", Some(m.trace_overhead), "fraction", c.ops_by_mode[1]);
    out
}
