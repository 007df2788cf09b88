//! Deterministic input generation: the PRNG, the key distributions, the
//! client stripes and the key/value encoding.
//!
//! Everything the engine receives is derived from the workload seed, so the
//! same seed gives the same keys, values and operation stream. The generators
//! live here rather than in `triad-workload` so that no change to the
//! repository's own crates can change the benchmark's inputs.

/// Key length in bytes (the paper's synthetic workloads use 8-byte keys).
pub const KEY_LEN: usize = 8;
/// Value length in bytes.
pub const VALUE_LEN: usize = 255;
/// User bytes one put carries.
pub const PUT_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// Header of a value: the key index it belongs to and its version.
const VALUE_HEADER: usize = 12;

/// The SplitMix64 finalizer. It is a bijection on `u64`, so distinct inputs
/// always give distinct outputs.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small, fast, seedable PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// A uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The key of key index `index`. The index is scrambled so that key order is
/// unrelated to popularity rank: hot keys land all over the key space (and so
/// in many SSTables), as YCSB's hashed key order does.
pub fn key_of(index: u64) -> [u8; KEY_LEN] {
    mix64(index ^ 0x6B65_795F_7361_6C74).to_be_bytes()
}

/// Fills `out` with the value of `index` at `version`: the index and version,
/// then filler bytes that are a function of both, so any torn, stale or
/// misplaced value is detectable from its bytes alone.
pub fn fill_value(index: u64, version: u32, out: &mut [u8; VALUE_LEN]) {
    out[..8].copy_from_slice(&index.to_le_bytes());
    out[8..VALUE_HEADER].copy_from_slice(&version.to_le_bytes());
    let mut rng = Rng::new(mix64(index) ^ u64::from(version).wrapping_mul(0xA24B_AED4_963E_E407));
    for chunk in out[VALUE_HEADER..].chunks_mut(8) {
        let bytes = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
}

/// Decodes a value: the `(index, version)` it embeds, if its bytes are exactly
/// the value [`fill_value`] produces for them.
pub fn decode_value(value: &[u8]) -> Option<(u64, u32)> {
    if value.len() != VALUE_LEN {
        return None;
    }
    let index = u64::from_le_bytes(value[..8].try_into().ok()?);
    let version = u32::from_le_bytes(value[8..VALUE_HEADER].try_into().ok()?);
    let mut expected = [0u8; VALUE_LEN];
    fill_value(index, version, &mut expected);
    (expected[..] == *value).then_some((index, version))
}

/// How popularity ranks are drawn from `[0, n)`.
#[derive(Debug, Clone)]
pub enum Dist {
    /// Every rank equally likely (the paper's WS3).
    Uniform { n: u64 },
    /// A hot set of the first `hot` ranks receives `hot_share` of the draws,
    /// uniformly; the rest go uniformly to the cold ranks (the paper's WS2 is
    /// 20% of keys getting 80% of accesses).
    HotSet { n: u64, hot: u64, hot_share: f64 },
    /// YCSB's Zipfian generator.
    Zipf(Zipf),
}

impl Dist {
    /// The paper's synthetic skew: `hot_fraction` of the keys get `hot_share`
    /// of the accesses.
    pub fn hot_set(n: u64, hot_fraction: f64, hot_share: f64) -> Dist {
        let hot = ((n as f64 * hot_fraction) as u64).clamp(1, n.saturating_sub(1).max(1));
        Dist::HotSet { n, hot, hot_share }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        match self {
            Dist::Uniform { n } | Dist::HotSet { n, .. } => *n,
            Dist::Zipf(z) => z.n,
        }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            Dist::Uniform { n } => rng.below(*n),
            Dist::HotSet { n, hot, hot_share } => {
                if rng.unit() < *hot_share {
                    rng.below(*hot)
                } else {
                    hot + rng.below(n - hot)
                }
            }
            Dist::Zipf(z) => z.sample(rng),
        }
    }
}

/// YCSB's Zipfian generator (Gray et al., "Quickly generating billion-record
/// synthetic databases"), ranks in `[0, n)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipf {
    /// A Zipfian distribution over `n` ranks with exponent `theta` (YCSB: 0.99).
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |count: u64| (1..=count).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zeta_n = zeta(n);
        let zeta_2 = zeta(2);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        Zipf { n, theta, alpha, zeta_n, eta }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Number of closed-loop clients, and of key stripes.
pub const CLIENTS: u64 = 2;

/// Maps a rank onto `client`'s stripe (the indices congruent to `client`
/// modulo [`CLIENTS`]). Ranks `2j` and `2j + 1` both map to the stripe's `j`-th
/// key, so each stripe keeps the shape of the distribution it is drawn from.
pub fn to_stripe(rank: u64, client: u64) -> u64 {
    rank - rank % CLIENTS + client
}

/// The operation kinds a client issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `Db::get`.
    Get,
    /// `Db::put`.
    Put,
    /// `Db::scan_range` from a start key, reading a fixed number of pairs.
    Scan,
}

impl OpKind {
    /// The report name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Scan => "scan",
        }
    }

    /// Position of the kind in [`OpKind::ALL`].
    pub fn slot(self) -> usize {
        self as usize
    }
}

/// One generated operation: its kind and the key index it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// The key index: the key for gets and puts, the start key for scans.
    pub index: u64,
}

/// One client's operation stream. Puts stay on the client's own stripe, so the
/// final value of every key is fixed by the stream; gets and scans may read
/// either stripe.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    dist: Dist,
    client: u64,
    /// Percent of gets and of puts; the rest are scans.
    get_pct: u64,
    put_pct: u64,
}

impl OpStream {
    /// Client `client`'s stream for workload seed `seed`.
    pub fn new(seed: u64, client: u64, dist: Dist, get_pct: u64, put_pct: u64) -> OpStream {
        assert!(get_pct + put_pct <= 100, "the mix must not exceed 100%");
        assert_eq!(dist.n() % CLIENTS, 0, "the key count must split evenly into stripes");
        let rng = Rng::new(mix64(seed) ^ mix64(client + 1));
        OpStream { rng, dist, client, get_pct, put_pct }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        let rank = self.dist.sample(&mut self.rng);
        if roll < self.get_pct {
            Op { kind: OpKind::Get, index: rank }
        } else if roll < self.get_pct + self.put_pct {
            Op { kind: OpKind::Put, index: to_stripe(rank, self.client) }
        } else {
            Op { kind: OpKind::Scan, index: rank }
        }
    }
}

/// A checksum of the first `ops` operations of every client's stream: equal
/// seeds give equal checksums, so a result records exactly which inputs it ran.
pub fn stream_checksum(streams: &[OpStream], ops: usize) -> u64 {
    let mut hash = 0u64;
    for stream in streams {
        let mut stream = stream.clone();
        for _ in 0..ops {
            let op = stream.next_op();
            hash = mix64(hash ^ ((op.kind as u64) << 62) ^ op.index);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_tampering() {
        let mut value = [0u8; VALUE_LEN];
        fill_value(42, 7, &mut value);
        assert_eq!(decode_value(&value), Some((42, 7)));
        value[100] ^= 1;
        assert_eq!(decode_value(&value), None, "a flipped filler byte is caught");
        assert_eq!(decode_value(&value[..10]), None, "a short value is caught");
    }

    #[test]
    fn keys_are_distinct() {
        let keys: std::collections::HashSet<_> = (0..100_000).map(key_of).collect();
        assert_eq!(keys.len(), 100_000);
    }

    #[test]
    fn same_seed_gives_same_stream_checksum() {
        let streams = |seed| {
            (0..CLIENTS)
                .map(|c| OpStream::new(seed, c, Dist::Zipf(Zipf::new(1000, 0.99)), 50, 40))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream_checksum(&streams(7), 5000), stream_checksum(&streams(7), 5000));
        assert_ne!(stream_checksum(&streams(7), 5000), stream_checksum(&streams(8), 5000));
    }

    #[test]
    fn puts_stay_on_the_clients_stripe() {
        for client in 0..CLIENTS {
            let mut stream = OpStream::new(3, client, Dist::Uniform { n: 1000 }, 0, 100);
            for _ in 0..10_000 {
                let op = stream.next_op();
                assert_eq!(op.index % CLIENTS, client);
                assert!(op.index < 1000);
            }
        }
    }

    /// Share of `draws` that land on the `top` most-drawn stripe keys.
    fn top_share(counts: &mut [u64], top: usize, draws: u64) -> f64 {
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts[..top].iter().sum::<u64>() as f64 / draws as f64
    }

    #[test]
    fn stripes_keep_the_hot_set_skew() {
        let n = 10_000;
        let draws = 400_000;
        for client in 0..CLIENTS {
            let mut stream = OpStream::new(11, client, Dist::hot_set(n, 0.2, 0.8), 0, 100);
            let mut counts = vec![0u64; (n / CLIENTS) as usize];
            for _ in 0..draws {
                counts[(stream.next_op().index / CLIENTS) as usize] += 1;
            }
            // 20% of the stripe's keys still get 80% of its puts.
            let share = top_share(&mut counts, (n / CLIENTS / 5) as usize, draws);
            assert!((share - 0.8).abs() < 0.01, "client {client}: top 20% got {share}");
        }
    }

    #[test]
    fn stripes_keep_the_zipfian_skew() {
        let n = 10_000;
        let draws = 400_000;
        let zipf = Dist::Zipf(Zipf::new(n, 0.99));
        let mut rng = Rng::new(5);
        let mut whole = vec![0u64; n as usize];
        for _ in 0..draws {
            whole[zipf.sample(&mut rng) as usize] += 1;
        }
        // The stripe's top 1% of keys (50 keys) vs the whole space's top 1%
        // of ranks pairs (100 ranks fold onto those 50 keys).
        let whole_top = top_share(&mut whole, (n / 100) as usize, draws);
        for client in 0..CLIENTS {
            let mut stream = OpStream::new(13, client, zipf.clone(), 0, 100);
            let mut counts = vec![0u64; (n / CLIENTS) as usize];
            for _ in 0..draws {
                counts[(stream.next_op().index / CLIENTS) as usize] += 1;
            }
            let stripe_top = top_share(&mut counts, (n / CLIENTS / 100) as usize, draws);
            assert!(
                (stripe_top - whole_top).abs() < 0.03,
                "client {client}: stripe top-1% share {stripe_top} vs whole {whole_top}"
            );
        }
    }
}
