//! Spans recorded by the benchmark around its calls into `Db`.
//!
//! Each thread owns a [`Tracer`]. A span has a name, a start and end, and the
//! span that caused it (a scan's `scan.capture` and `scan.iterate` are its
//! children). Spans stay in memory: every span is folded into a per-name
//! aggregate (count, total and self time, and a bounded sample of durations
//! for percentiles), and only the most recent spans are kept whole. They are
//! written out when the run ends.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use crate::gen::Rng;
use crate::json::Json;
use crate::latency::Samples;

/// Durations kept per span name for percentiles; beyond this a uniform
/// reservoir sample is kept.
const RESERVOIR: usize = 1 << 16;
/// Whole spans kept per thread, most recent first out.
const RECENT: usize = 2048;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: u64,
    /// The span that caused this one; 0 for none.
    pub parent: u64,
    /// What the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// Everything recorded about one span name.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
    /// A bounded sample of durations.
    pub durations: Samples,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Span ids are `thread << 48 | sequence`, unique across threads.
    next_id: u64,
    rng: Rng,
    aggregates: BTreeMap<&'static str, Aggregate>,
    recent: VecDeque<Span>,
}

impl Tracer {
    /// A recorder for thread number `thread`, timing from `epoch`.
    pub fn new(thread: u64, epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next_id: (thread << 48) + 1,
            rng: Rng::new(thread),
            aggregates: BTreeMap::new(),
            recent: VecDeque::new(),
        }
    }

    /// A fresh span id, for a span whose children are recorded before it.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span `id` covering `start..end`, of which
    /// `children_ns` is covered by its child spans.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        children_ns: u64,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        let duration = end_ns.saturating_sub(start_ns);
        let aggregate = self.aggregates.entry(name).or_default();
        aggregate.count += 1;
        aggregate.total_ns += duration;
        aggregate.self_ns += duration.saturating_sub(children_ns);
        if aggregate.durations.len() < RESERVOIR {
            aggregate.durations.record(duration);
        } else {
            let slot = self.rng.below(aggregate.count) as usize;
            if slot < RESERVOIR {
                aggregate.durations.replace(slot, duration);
            }
        }
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(Span { id, parent, name, start_ns, end_ns });
    }

    /// Records a span without children.
    pub fn leaf(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let id = self.next_id();
        self.record(id, parent, name, start, end, 0);
    }

    /// Folds `other`'s spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, theirs) in other.aggregates {
            let ours = self.aggregates.entry(name).or_default();
            ours.count += theirs.count;
            ours.total_ns += theirs.total_ns;
            ours.self_ns += theirs.self_ns;
            ours.durations.absorb(theirs.durations);
        }
        self.recent.extend(other.recent);
    }

    /// The aggregate of span name `name`, if any span had it.
    #[cfg(test)]
    pub fn aggregate(&mut self, name: &str) -> Option<&mut Aggregate> {
        self.aggregates.get_mut(name)
    }

    /// The recorded spans as JSON: per-name aggregates and the recent spans.
    pub fn into_json(mut self) -> Json {
        let aggregates = self
            .aggregates
            .iter_mut()
            .map(|(name, a)| {
                let mut pct = |q| a.durations.percentile_us(q).map_or(Json::Null, Json::Num);
                let summary = Json::obj([
                    ("count", Json::Int(a.count)),
                    ("total_ms", Json::Num(a.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(a.self_ns as f64 / 1e6)),
                    ("p50_us", pct(0.5)),
                    ("p99_us", pct(0.99)),
                ]);
                (name.to_string(), summary)
            })
            .collect::<Vec<_>>();
        let mut recent: Vec<&Span> = self.recent.iter().collect();
        recent.sort_by_key(|s| (s.start_ns, s.id));
        let recent = recent
            .into_iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id)),
                    ("parent", Json::Int(s.parent)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                ])
            })
            .collect();
        Json::obj([("aggregates", Json::Obj(aggregates)), ("recent", Json::Arr(recent))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_memory_stays_bounded() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(1, epoch);
        let ms = |n| epoch + Duration::from_millis(n);
        let scan = tracer.next_id();
        tracer.leaf(scan, "scan.capture", ms(0), ms(2));
        tracer.leaf(scan, "scan.iterate", ms(2), ms(5));
        tracer.record(scan, 0, "scan", ms(0), ms(6), 5_000_000);
        let a = tracer.aggregate("scan").unwrap();
        assert_eq!((a.count, a.total_ns, a.self_ns), (1, 6_000_000, 1_000_000));

        for i in 0..(RESERVOIR as u64 + RECENT as u64) {
            tracer.leaf(0, "get", ms(i), ms(i + 1));
        }
        assert_eq!(tracer.aggregate("get").unwrap().durations.len(), RESERVOIR);
        assert_eq!(tracer.recent.len(), RECENT);
    }
}
