//! The benchmark's workloads and the engine configuration they pin.

use triad_core::{Options, ShardConfig, SyncMode};

use crate::gen::{mix64, Dist, OpStream, Zipf, CLIENTS};

/// Which key indices exist before the timed phase starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prepopulate {
    /// Every key index.
    All,
    /// A seed-independent half of the key indices, spread over both stripes.
    Half,
}

impl Prepopulate {
    /// Whether `index` is written during set-up.
    pub fn contains(self, index: u64) -> bool {
        match self {
            Prepopulate::All => true,
            Prepopulate::Half => mix64(index ^ 0x7072_6570_6F70) & 1 == 0,
        }
    }
}

/// The shape of a key distribution, sized by the workload's key count.
#[derive(Debug, Clone, Copy)]
pub enum Skew {
    /// Uniform keys (the paper's WS3).
    Uniform,
    /// 20% of the keys get 80% of the accesses (the paper's WS2).
    Ws2,
    /// YCSB Zipfian, theta 0.99.
    Zipfian,
}

/// One workload: its data size, operation mix, key skew and durability mode.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Normative name, as passed to `--workload`.
    pub name: &'static str,
    /// Size of the key space.
    pub keys: u64,
    /// Which keys exist after set-up.
    pub prepopulate: Prepopulate,
    /// Percent of operations that are gets.
    pub get_pct: u64,
    /// Percent of operations that are puts; the rest are scans.
    pub put_pct: u64,
    /// Pairs one scan reads.
    pub scan_len: usize,
    /// Key skew of every operation.
    pub skew: Skew,
    /// Whether every write is fsynced.
    pub synced: bool,
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "update_heavy",
        keys: 500_000,
        prepopulate: Prepopulate::Half,
        get_pct: 10,
        put_pct: 90,
        scan_len: 0,
        skew: Skew::Ws2,
        synced: false,
    },
    Workload {
        name: "scan_mixed",
        keys: 4_000,
        prepopulate: Prepopulate::All,
        get_pct: 0,
        put_pct: 50,
        scan_len: 50,
        skew: Skew::Zipfian,
        synced: false,
    },
    Workload {
        name: "synced_writes",
        keys: 100_000,
        prepopulate: Prepopulate::Half,
        get_pct: 5,
        put_pct: 95,
        scan_len: 0,
        skew: Skew::Uniform,
        synced: true,
    },
];

/// Pinned engine configuration, shared by every workload.
pub const SHARDS: usize = 2;
/// Memtable size (the paper's 4 MiB memory component).
pub const MEMTABLE_BYTES: usize = 4 << 20;
/// Commit-log size that forces a flush or rotation.
pub const LOG_BYTES: usize = 8 << 20;
/// Shared block cache budget.
pub const BLOCK_CACHE_BYTES: usize = 16 << 20;
/// Readahead pool threads.
pub const IO_THREADS: usize = 2;
/// Background compaction threads per shard.
pub const COMPACTION_THREADS: usize = 1;

impl Workload {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The engine options: the paper's full TRIAD configuration with every
    /// field that the environment or the host could change set explicitly.
    pub fn options(&self) -> Options {
        let mut options = Options::triad();
        options.memtable_size = MEMTABLE_BYTES;
        options.max_log_size = LOG_BYTES;
        options.shards = ShardConfig::with_count(SHARDS);
        options.block_cache = BLOCK_CACHE_BYTES;
        options.io_threads = IO_THREADS;
        options.compaction_threads = COMPACTION_THREADS;
        options.sync_mode = if self.synced { SyncMode::SyncEveryWrite } else { SyncMode::NoSync };
        options
    }

    /// The key distribution.
    pub fn dist(&self) -> Dist {
        match self.skew {
            Skew::Uniform => Dist::Uniform { n: self.keys },
            Skew::Ws2 => Dist::hot_set(self.keys, 0.2, 0.8),
            Skew::Zipfian => Dist::Zipf(Zipf::new(self.keys, 0.99)),
        }
    }

    /// Every client's operation stream for `seed`.
    pub fn streams(&self, seed: u64) -> Vec<OpStream> {
        let dist = self.dist();
        (0..CLIENTS)
            .map(|client| OpStream::new(seed, client, dist.clone(), self.get_pct, self.put_pct))
            .collect()
    }

    /// The configuration a result records, as `(name, value)` pairs.
    pub fn pinned_config(&self) -> Vec<(&'static str, String)> {
        let o = self.options();
        vec![
            ("triad", o.triad.label()),
            ("memtable_size", o.memtable_size.to_string()),
            ("max_log_size", o.max_log_size.to_string()),
            ("shards", o.shards.count.to_string()),
            ("block_cache", o.block_cache.to_string()),
            ("io_threads", o.io_threads.to_string()),
            ("compaction_threads", o.compaction_threads.to_string()),
            ("sync_mode", format!("{:?}", o.sync_mode)),
            ("keys", self.keys.to_string()),
            ("prepopulate", format!("{:?}", self.prepopulate)),
            (
                "mix",
                format!("get {}% put {}% scan {}%", self.get_pct, self.put_pct, self.scan_pct()),
            ),
            ("scan_len", self.scan_len.to_string()),
            ("skew", format!("{:?}", self.skew)),
            ("clients", CLIENTS.to_string()),
        ]
    }

    /// Percent of operations that are scans.
    pub fn scan_pct(&self) -> u64 {
        100 - self.get_pct - self.put_pct
    }
}
