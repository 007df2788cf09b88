//! One run of one workload, in phases: set-up (repeated, timed), timed
//! closed-loop phase, drain, write tail + close + timed reopen (repeated),
//! and verification of every key against the oracle.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use triad_core::{Db, StatSnapshot, WriteBatch, WriteOptions};

use crate::gen::{
    fill_value, key_of, mix64, stream_checksum, OpKind, OpStream, CLIENTS, PUT_BYTES, VALUE_LEN,
};
use crate::json::Json;
use crate::metrics::{self, Counts, Measured, Metric, WINDOWS};
use crate::oracle::{sorted_keys, Oracle};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::{Workload, MEMTABLE_BYTES, SHARDS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Write-tail + reopen cycles per run; `recovery_s` is their median.
const REOPENS: usize = 9;
/// Puts per set-up batch.
const LOAD_BATCH: usize = 64;
/// Puts per write-tail batch.
const TAIL_BATCH: usize = 8;
/// Step between consecutive write-tail key indices; coprime with every key
/// count, so one tail never writes a key twice.
const TAIL_STRIDE: u64 = 7919;
/// Time the clients run before measuring starts, so caches fill first.
const WARM_UP: Duration = Duration::from_secs(1);
/// Operations per client the stream checksum covers.
const CHECKSUM_OPS: usize = 10_000;
/// How often the traced run samples engine stats.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// How long tracing stays on, then off, in the traced run.
const TRACE_SLICE: Duration = Duration::from_millis(250);
/// A put slower than this counts as a foreground stall.
const STALL_NS: u64 = 1_000_000;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether to record spans and engine-stat samples.
    pub trace: bool,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every oracle or cross-check failure; empty when the run is correct.
    pub problems: Vec<String>,
    /// Operations attempted (timed phase, write tails and verification).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Every metric the run computed.
    pub metrics: Vec<Metric>,
    /// The run configuration.
    pub config: Json,
    /// Each set-up and reopen time behind the reported medians.
    pub repeats: Json,
    /// Spans, phases and the engine-stat timeline (traced runs only).
    pub trace: Option<Json>,
}

impl Outcome {
    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Removes the run's data directory however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn err(context: &str) -> impl Fn(triad_core::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Process and engine counters at the start of the measured window.
struct Before {
    io: u64,
    cpu: f64,
    stats: StatSnapshot,
}

impl Before {
    fn take(db: &Db) -> Result<Before, String> {
        Ok(Before {
            io: sys::wchar().map_err(|e| format!("reading /proc/self/io: {e}"))?,
            cpu: sys::cpu_seconds().map_err(|e| format!("reading CPU time: {e}"))?,
            stats: db.stats(),
        })
    }
}

/// What one client did during the timed phase.
struct ClientRun {
    oracle: Oracle,
    tracer: Tracer,
    counts: Counts,
    finished: Instant,
}

/// Runs `workload` under `args`, keeping its data under `data_root`.
pub fn run(workload: &Workload, args: RunArgs, data_root: &Path) -> Result<Outcome, String> {
    let root = data_root.join(format!("{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
    let root = DataDir(root);
    let options = workload.options();
    let mut synced = true;
    let epoch = Instant::now();
    let mut phases = Tracer::new(CLIENTS, epoch);
    let mut problems = Vec::new();

    // Set-up, several times; the last database is the one measured.
    let mut setup_s = Vec::new();
    let mut db = None;
    let mut dir = PathBuf::new();
    for k in 0..SETUPS {
        dir = root.0.join(format!("db{k}"));
        // Write back what earlier runs and set-ups left dirty, so their
        // writeback does not land in this set-up's fsyncs.
        synced &= sys::sync();
        let started = Instant::now();
        let opened = Db::open(&dir, options.clone()).map_err(err("open"))?;
        phases.leaf(0, "phase.open", started, Instant::now());
        let load_started = Instant::now();
        load(&opened, workload)?;
        opened.flush().map_err(err("set-up flush"))?;
        opened.wait_for_compactions().map_err(err("set-up compaction"))?;
        phases.leaf(0, "phase.load", load_started, Instant::now());
        setup_s.push(started.elapsed().as_secs_f64());
        // Earlier copies are only closed: deleting them here would leave the
        // file system reclaiming space under the next set-up and the timed
        // phase. The data directory is removed when the run ends.
        if k + 1 < SETUPS {
            opened.close().map_err(err("set-up close"))?;
            drop(opened);
        } else {
            db = Some(opened);
        }
    }
    let mut db = db.expect("SETUPS is at least 1");
    // Likewise for the set-up copies: their writeback would otherwise start
    // (after the kernel's dirty-expiry delay) in the middle of the timed phase.
    synced &= sys::sync();

    // Timed phase.
    let sorted = sorted_keys(workload);
    let streams = workload.streams(args.seed);
    let checksum = stream_checksum(&streams, CHECKSUM_OPS);
    // The engine is idle here (set-up ended with a drain), so this and the
    // post-drain counters bound every byte written in between.
    let idle = Before::take(&db)?;
    let tracing = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let started = Instant::now() + WARM_UP;
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let (clients, sampler, before) = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let oracle = Oracle::new(c as u64, workload, sorted.clone());
                let tracer = Tracer::new(c as u64, epoch);
                let (db, tracing) = (&db, &tracing);
                let window = (started, deadline);
                s.spawn(move || client(db, workload, stream, oracle, tracer, window, tracing))
            })
            .collect();
        std::thread::sleep(started.saturating_duration_since(Instant::now()));
        let before = Before::take(&db);
        let sampler = args.trace.then(|| s.spawn(|| sample(&db, &stop, &tracing, started)));
        let clients: Vec<ClientRun> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        stop.store(true, Ordering::Relaxed);
        (clients, sampler.map(|h| h.join().expect("sampler thread panicked")), before)
    });
    let before = before?;
    let finished = clients.iter().map(|c| c.finished).max().unwrap_or(started);
    let cpu_s = sys::cpu_seconds().map_err(|e| format!("reading CPU time: {e}"))? - before.cpu;
    let stats_timed = db.stats().delta_since(&before.stats);
    phases.leaf(0, "phase.timed", started, finished);

    // Drain: everything the timed phase deferred is paid for here.
    let drain_started = Instant::now();
    db.flush().map_err(err("drain flush"))?;
    db.wait_for_compactions().map_err(err("drain compaction"))?;
    let drain_s = drain_started.elapsed().as_secs_f64();
    phases.leaf(0, "phase.drain", drain_started, Instant::now());
    let io_after = sys::wchar().map_err(|e| format!("reading /proc/self/io: {e}"))?;
    let io_bytes = io_after - before.io;
    let stats_drained = db.stats();
    let stats_all = stats_drained.delta_since(&before.stats);
    // Cross-check over the idle-to-idle window, which no background job
    // straddles: the process wrote at least what the engine says it wrote.
    let engine = stats_drained.delta_since(&idle.stats);
    let engine_bytes =
        engine.wal_bytes_written + engine.bytes_flushed + engine.bytes_compacted_written;
    let process_bytes = io_after - idle.io;
    if process_bytes < engine_bytes {
        problems.push(format!(
            "cross-check: wchar grew by {process_bytes} bytes, less than the {engine_bytes} \
             bytes the engine reports writing"
        ));
    }
    let disk_bytes = sys::dir_bytes(&dir).map_err(|e| format!("walking the database: {e}"))?;

    let mut counts = Counts::default();
    let mut spans = Tracer::new(CLIENTS + 1, epoch);
    let mut oracles = Vec::new();
    for c in clients {
        counts.absorb(c.counts);
        spans.absorb(c.tracer);
        oracles.push(c.oracle);
    }
    let mut attempted = counts.measured_ops() + counts.warm_up[0];
    let mut failed = counts.failed.iter().sum::<u64>() + counts.warm_up[1];
    if let Some(first) = counts.first_mismatch.take() {
        problems.push(format!("oracle: {} mismatched reads, first: {first}", counts.mismatches));
    }
    let live_bytes = oracles.iter().map(|o| o.live_keys()).sum::<u64>() * PUT_BYTES;

    // Write tail, close without a flush, timed reopen; several times.
    let mut recovery_s = Vec::new();
    let mut replayed_bytes = Vec::new();
    let mut cursor = mix64(args.seed ^ 0x7461_696C) % workload.keys;
    for _ in 0..REOPENS {
        let tail_started = Instant::now();
        let before = db.stats();
        let (tail_attempted, tail_failed) = write_tail(&db, workload, &mut oracles, &mut cursor);
        attempted += tail_attempted;
        failed += tail_failed;
        replayed_bytes.push((db.stats().wal_bytes_written - before.wal_bytes_written) as f64);
        phases.leaf(0, "phase.tail", tail_started, Instant::now());
        let close_started = Instant::now();
        db.close().map_err(err("close"))?;
        drop(db);
        phases.leaf(0, "phase.close", close_started, Instant::now());
        // The open replays the tail into tables and fsyncs them; without this
        // those fsyncs would also wait on the drain's unrelated dirty pages.
        synced &= sys::sync();
        let reopen_started = Instant::now();
        db = Db::open(&dir, options.clone()).map_err(err("reopen"))?;
        recovery_s.push(reopen_started.elapsed().as_secs_f64());
        phases.leaf(0, "phase.reopen", reopen_started, Instant::now());
    }

    // Verify every key of the key space against the oracle.
    let verify_started = Instant::now();
    let verified = verify(&db, &oracles);
    phases.leaf(0, "phase.verify", verify_started, Instant::now());
    attempted += verified.attempted;
    failed += verified.failed;
    if let Some(first) = verified.first_mismatch {
        problems.push(format!(
            "verify after reopen: {} mismatches, first: {first}",
            verified.mismatches
        ));
    }
    db.close().map_err(err("final close"))?;
    drop(db);

    let (mean_files, trace_overhead) = match &sampler {
        Some(sampled) => {
            (sampled.mean_files, sampled.overhead(started, finished, counts.ops_by_mode))
        }
        None => ((0.0, 0.0), 0.0),
    };
    let repeats = Json::obj([
        ("setup_s", Json::Arr(setup_s.iter().map(|&v| Json::Num(v)).collect())),
        ("recovery_s", Json::Arr(recovery_s.iter().map(|&v| Json::Num(v)).collect())),
    ]);
    let metrics = metrics::collect(&mut Measured {
        workload,
        counts,
        elapsed_s: finished.duration_since(started).as_secs_f64(),
        window_s: args.seconds / WINDOWS as f64,
        drain_s,
        cpu_s,
        timed: stats_timed,
        with_drain: stats_all,
        io_bytes,
        disk_bytes,
        live_bytes,
        peak_rss_kib: sys::peak_rss_kib().map_err(|e| format!("reading VmHWM: {e}"))?,
        setup_s,
        recovery_s,
        replayed_bytes,
        mean_files,
        trace_overhead,
        attempted,
        failed,
        cores: sys::parallelism(),
    });

    let config = Json::obj(
        [
            ("workload", Json::str(workload.name)),
            ("seed", Json::Int(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("stream_checksum", Json::str(format!("{checksum:016x}"))),
            ("available_parallelism", Json::Int(sys::parallelism() as u64)),
            ("kernel", Json::str(sys::kernel())),
            ("git_revision", Json::str(sys::git_revision())),
            ("sync_between_phases", Json::Bool(synced)),
        ]
        .into_iter()
        .chain(workload.pinned_config().into_iter().map(|(k, v)| (k, Json::Str(v)))),
    );
    let trace = args.trace.then(|| {
        let timeline = sampler.map_or(Json::Null, |sampled| Json::Arr(sampled.points));
        Json::obj([
            ("phases", phases.into_json()),
            ("spans", spans.into_json()),
            ("stats_timeline", timeline),
        ])
    });
    Ok(Outcome { problems, attempted, failed, metrics, config, repeats, trace })
}

/// Writes every prepopulated key at version 1 in batches, one loader thread
/// per stripe.
fn load(db: &Db, workload: &Workload) -> Result<(), String> {
    std::thread::scope(|s| {
        let loaders: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut value = [0u8; VALUE_LEN];
                    let mut batch = WriteBatch::new();
                    let stripe = (client..workload.keys).step_by(CLIENTS as usize);
                    for index in stripe.filter(|&i| workload.prepopulate.contains(i)) {
                        fill_value(index, 1, &mut value);
                        batch.put(key_of(index).to_vec(), value.to_vec());
                        if batch.len() == LOAD_BATCH {
                            let full = std::mem::take(&mut batch);
                            db.write(full, WriteOptions::default()).map_err(err("set-up write"))?;
                        }
                    }
                    if !batch.is_empty() {
                        db.write(batch, WriteOptions::default()).map_err(err("set-up write"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        loaders.into_iter().try_for_each(|h| h.join().expect("loader thread panicked"))
    })
}

/// One closed-loop client: issues its stream until `deadline` and checks
/// every operation; operations that start before `measured` (the warm-up) are
/// checked but not measured.
fn client(
    db: &Db,
    workload: &Workload,
    mut stream: OpStream,
    oracle: Oracle,
    tracer: Tracer,
    (measured, deadline): (Instant, Instant),
    tracing: &AtomicBool,
) -> ClientRun {
    let mut run = ClientRun { oracle, tracer, counts: Counts::default(), finished: Instant::now() };
    let c = &mut run.counts;
    let window_s = (deadline - measured).as_secs_f64() / WINDOWS as f64;
    let mut value = [0u8; VALUE_LEN];
    let mut pairs = Vec::with_capacity(workload.scan_len);
    loop {
        let op = stream.next_op();
        let traced = tracing.load(Ordering::Relaxed);
        let start = Instant::now();
        if start >= deadline {
            run.finished = start;
            return run;
        }
        let key = key_of(op.index);
        let mut captured = start;
        let outcome = match op.kind {
            OpKind::Get => db.get(key).map(|got| run.oracle.check_get(op.index, got.as_deref())),
            OpKind::Put => {
                let version = run.oracle.advance(op.index);
                fill_value(op.index, version, &mut value);
                let result = db.put(key, value);
                if result.is_err() {
                    run.oracle.mark_uncertain(op.index);
                }
                result.map(Ok)
            }
            OpKind::Scan => {
                pairs.clear();
                scan(db, &key, workload.scan_len, &mut pairs, &mut captured)
                    .map(|()| run.oracle.check_scan(op.index, workload.scan_len, &pairs))
            }
        };
        let end = Instant::now();
        if start < measured {
            c.warm_up[0] += 1;
            match outcome {
                Ok(Err(mismatch)) => {
                    c.mismatches += 1;
                    c.first_mismatch.get_or_insert(mismatch);
                }
                Err(_) => c.warm_up[1] += 1,
                Ok(Ok(())) => {}
            }
            continue;
        }
        let ns = end.duration_since(start).as_nanos() as u64;
        let slot = op.kind.slot();
        let window = ((start - measured).as_secs_f64() / window_s) as usize;
        let latency = &mut c.latency[window.min(WINDOWS - 1)][slot];
        c.attempted[slot] += 1;
        match outcome {
            Ok(check) => {
                latency.record(ns);
                if let Err(mismatch) = check {
                    c.mismatches += 1;
                    c.first_mismatch.get_or_insert(mismatch);
                }
            }
            Err(_) => {
                c.failed[slot] += 1;
                latency.record_failure();
            }
        }
        if op.kind == OpKind::Put && ns > STALL_NS {
            c.stalls += 1;
        }
        if op.kind == OpKind::Scan {
            c.scan_pairs += pairs.len() as u64;
            c.scan_capture.record(captured.duration_since(start).as_nanos() as u64);
            c.scan_iterate.record(end.duration_since(captured).as_nanos() as u64);
        }
        c.ops_by_mode[usize::from(traced)] += 1;
        if traced {
            let name = op.kind.name();
            if op.kind == OpKind::Scan {
                let id = run.tracer.next_id();
                run.tracer.leaf(id, "scan.capture", start, captured);
                run.tracer.leaf(id, "scan.iterate", captured, end);
                let children = end.duration_since(start).as_nanos() as u64;
                run.tracer.record(id, 0, name, start, end, children);
            } else {
                run.tracer.leaf(0, name, start, end);
            }
        }
    }
}

/// A scan of at most `len` pairs from `start`; `captured` is set when
/// `scan_range` returns (the capture), the rest is iteration.
fn scan(
    db: &Db,
    start: &[u8],
    len: usize,
    pairs: &mut Vec<(Vec<u8>, Vec<u8>)>,
    captured: &mut Instant,
) -> triad_core::Result<()> {
    let iter = db.scan_range(Some(start), None);
    *captured = Instant::now();
    for pair in iter?.take(len) {
        pairs.push(pair?);
    }
    Ok(())
}

/// Writes one tail: about three quarters of one memtable per shard, in small
/// batches, so it stays in the commit logs for the reopen to replay.
fn write_tail(
    db: &Db,
    workload: &Workload,
    oracles: &mut [Oracle],
    cursor: &mut u64,
) -> (u64, u64) {
    let puts = (SHARDS * MEMTABLE_BYTES) as u64 * 3 / 4 / PUT_BYTES;
    let (mut attempted, mut failed) = (0, 0);
    let mut value = [0u8; VALUE_LEN];
    let mut indices = Vec::with_capacity(TAIL_BATCH);
    for _ in 0..puts.div_ceil(TAIL_BATCH as u64) {
        let mut batch = WriteBatch::new();
        indices.clear();
        for _ in 0..TAIL_BATCH {
            let index = *cursor;
            *cursor = (*cursor + TAIL_STRIDE) % workload.keys;
            let version = oracles[(index % CLIENTS) as usize].advance(index);
            fill_value(index, version, &mut value);
            batch.put(key_of(index).to_vec(), value.to_vec());
            indices.push(index);
        }
        attempted += TAIL_BATCH as u64;
        if db.write(batch, WriteOptions::default()).is_err() {
            failed += TAIL_BATCH as u64;
            for &index in &indices {
                oracles[(index % CLIENTS) as usize].mark_uncertain(index);
            }
        }
    }
    (attempted, failed)
}

/// The result of checking every key after the reopen.
struct Verified {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    first_mismatch: Option<String>,
}

/// Reads every key of the key space (one thread per stripe) and checks it
/// against the oracle.
fn verify(db: &Db, oracles: &[Oracle]) -> Verified {
    let parts: Vec<Verified> = std::thread::scope(|s| {
        let handles: Vec<_> = oracles
            .iter()
            .map(|oracle| {
                s.spawn(move || {
                    let mut v =
                        Verified { attempted: 0, failed: 0, mismatches: 0, first_mismatch: None };
                    for index in oracle.stripe() {
                        v.attempted += 1;
                        match db.get(key_of(index)) {
                            Ok(got) => {
                                if let Err(mismatch) = oracle.check_get(index, got.as_deref()) {
                                    v.mismatches += 1;
                                    v.first_mismatch.get_or_insert(mismatch);
                                }
                            }
                            Err(_) => v.failed += 1,
                        }
                    }
                    v
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("verify thread panicked")).collect()
    });
    parts.into_iter().fold(
        Verified { attempted: 0, failed: 0, mismatches: 0, first_mismatch: None },
        |mut acc, part| {
            acc.attempted += part.attempted;
            acc.failed += part.failed;
            acc.mismatches += part.mismatches;
            acc.first_mismatch = acc.first_mismatch.or(part.first_mismatch);
            acc
        },
    )
}

/// What the traced run's sampler thread collected.
struct Sampled {
    points: Vec<Json>,
    /// Mean L0 and total file counts over the samples.
    mean_files: (f64, f64),
    /// When tracing was switched; it starts off and alternates.
    toggles: Vec<Instant>,
}

impl Sampled {
    /// 1 − traced / untraced throughput over `[from, to]`, given the
    /// operations completed with tracing off and on.
    fn overhead(&self, from: Instant, to: Instant, ops_by_mode: [u64; 2]) -> f64 {
        let mut seconds = [0.0; 2];
        let mut at = from;
        let mut on = false;
        for &toggle in self.toggles.iter().chain(std::iter::once(&to)) {
            let until = toggle.min(to);
            if until > at {
                seconds[usize::from(on)] += until.duration_since(at).as_secs_f64();
                at = until;
            }
            on = !on;
        }
        let rate = |mode: usize| ops_by_mode[mode] as f64 / seconds[mode];
        if seconds[0] > 0.0 && seconds[1] > 0.0 && ops_by_mode[0] > 0 {
            1.0 - rate(1) / rate(0)
        } else {
            0.0
        }
    }
}

/// Samples engine stats on a fixed interval and alternates tracing on and
/// off, until `stop` is set.
fn sample(db: &Db, stop: &AtomicBool, tracing: &AtomicBool, started: Instant) -> Sampled {
    let mut sampled = Sampled { points: Vec::new(), mean_files: (0.0, 0.0), toggles: Vec::new() };
    let (mut l0_sum, mut files_sum) = (0.0, 0.0);
    let mut next_sample = started + SAMPLE_EVERY;
    let mut next_toggle = started + TRACE_SLICE;
    'run: loop {
        let due = next_sample.min(next_toggle);
        loop {
            if stop.load(Ordering::Relaxed) {
                break 'run;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(10)));
        }
        if due == next_toggle {
            next_toggle += TRACE_SLICE;
            tracing.store(!tracing.load(Ordering::Relaxed), Ordering::Relaxed);
            sampled.toggles.push(Instant::now());
        }
        if due == next_sample {
            next_sample += SAMPLE_EVERY;
            let s: StatSnapshot = db.stats();
            let levels = db.files_per_level();
            let l0 = levels.first().copied().unwrap_or(0);
            let files: usize = levels.iter().sum();
            l0_sum += l0 as f64;
            files_sum += files as f64;
            sampled.points.push(Json::obj([
                ("t_ms", Json::Int(started.elapsed().as_millis() as u64)),
                ("user_writes", Json::Int(s.user_writes)),
                ("user_reads", Json::Int(s.user_reads)),
                ("flushes", Json::Int(s.flush_count)),
                ("compactions", Json::Int(s.compaction_count)),
                ("compactions_deferred", Json::Int(s.compactions_deferred)),
                ("l0_files", Json::Int(l0 as u64)),
                ("files_total", Json::Int(files as u64)),
                ("wal_bytes", Json::Int(s.wal_bytes_written)),
                ("flushed_bytes", Json::Int(s.bytes_flushed)),
                ("compacted_written_bytes", Json::Int(s.bytes_compacted_written)),
            ]));
        }
    }
    let n = sampled.points.len().max(1) as f64;
    sampled.mean_files = (l0_sum / n, files_sum / n);
    sampled
}
