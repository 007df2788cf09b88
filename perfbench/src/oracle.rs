//! The correctness oracle.
//!
//! Each client owns the stripe of key indices congruent to its id, and only it
//! puts to them, so the client knows the exact current version of every key in
//! its stripe. Every get and scan is checked as it returns:
//! - every value decodes, and embeds the index of the key it was read under;
//! - a key of the client's own stripe reads exactly its last put (or is absent
//!   if never written);
//! - a prepopulated key is never absent;
//! - a scan returns at most its length, in ascending key order, from its start
//!   key on, and (when the key set is fixed) exactly the next keys in order.

use std::collections::HashSet;
use std::sync::Arc;

use crate::gen::{decode_value, key_of, CLIENTS, KEY_LEN};
use crate::workload::{Prepopulate, Workload};

/// The expected state of one client's stripe.
#[derive(Debug, Clone)]
pub struct Oracle {
    client: u64,
    prepopulate: Prepopulate,
    /// Current version of each stripe key, by `index / CLIENTS`; 0 means the
    /// key was never written.
    versions: Vec<u32>,
    /// Stripe keys whose put returned an error: the engine may hold either
    /// version, so only their integrity is checked.
    uncertain: HashSet<u64>,
    /// Every key in ascending order, when the key set never changes (every key
    /// is prepopulated and nothing is deleted).
    sorted_keys: Option<Arc<Vec<[u8; KEY_LEN]>>>,
}

impl Oracle {
    /// The oracle of `client`'s stripe right after set-up. `sorted_keys` is
    /// shared between clients; see [`sorted_keys`].
    pub fn new(
        client: u64,
        workload: &Workload,
        sorted_keys: Option<Arc<Vec<[u8; KEY_LEN]>>>,
    ) -> Oracle {
        let versions = (0..workload.keys / CLIENTS)
            .map(|j| u32::from(workload.prepopulate.contains(j * CLIENTS + client)))
            .collect();
        Oracle {
            client,
            prepopulate: workload.prepopulate,
            versions,
            uncertain: HashSet::new(),
            sorted_keys,
        }
    }

    /// Whether `index` is on this oracle's stripe.
    pub fn owns(&self, index: u64) -> bool {
        index % CLIENTS == self.client
    }

    /// Every index of the stripe.
    pub fn stripe(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.versions.len() as u64).map(move |j| j * CLIENTS + self.client)
    }

    /// Number of stripe keys that exist (were ever written).
    pub fn live_keys(&self) -> u64 {
        self.versions.iter().filter(|&&v| v != 0).count() as u64
    }

    /// Advances `index` to its next version and returns it: the version the
    /// put about to be issued writes. Call [`Oracle::mark_uncertain`] if that
    /// put then fails.
    pub fn advance(&mut self, index: u64) -> u32 {
        let slot = self.slot(index);
        self.versions[slot] += 1;
        self.versions[slot]
    }

    /// Records that a put of `index` returned an error: the engine may hold
    /// the old or the new version.
    pub fn mark_uncertain(&mut self, index: u64) {
        self.uncertain.insert(index);
    }

    fn slot(&self, index: u64) -> usize {
        debug_assert!(self.owns(index), "index {index} is not on stripe {}", self.client);
        (index / CLIENTS) as usize
    }

    /// Checks the result of a get of `index`.
    pub fn check_get(&self, index: u64, got: Option<&[u8]>) -> Result<(), String> {
        let Some(value) = got else {
            if self.owns(index) {
                let expected = self.versions[self.slot(index)];
                if expected != 0 && !self.uncertain.contains(&index) {
                    return Err(format!("get {index}: absent, expected version {expected}"));
                }
            } else if self.prepopulate.contains(index) {
                return Err(format!("get {index}: prepopulated key absent"));
            }
            return Ok(());
        };
        self.check_value(index, value).map_err(|e| format!("get {index}: {e}"))
    }

    /// Checks a value read under the key of `index`.
    fn check_value(&self, index: u64, value: &[u8]) -> Result<(), String> {
        let (embedded, version) = decode_value(value).ok_or("value bytes are corrupt")?;
        if embedded != index {
            return Err(format!("value belongs to key index {embedded}"));
        }
        if self.owns(index) && !self.uncertain.contains(&index) {
            let expected = self.versions[self.slot(index)];
            if version != expected {
                return Err(format!("read version {version}, last put wrote {expected}"));
            }
        }
        Ok(())
    }

    /// Checks the pairs a scan of at most `len` pairs from the key of
    /// `start` returned.
    pub fn check_scan(
        &self,
        start: u64,
        len: usize,
        pairs: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), String> {
        let start_key = key_of(start);
        if pairs.len() > len {
            return Err(format!("scan {start}: {} pairs, asked for {len}", pairs.len()));
        }
        let mut previous: Option<&[u8]> = None;
        for (key, value) in pairs {
            if key.as_slice() < start_key.as_slice() {
                return Err(format!("scan {start}: key below the start key"));
            }
            if previous.is_some_and(|p| p >= key.as_slice()) {
                return Err(format!("scan {start}: keys not in ascending order"));
            }
            previous = Some(key);
            let (index, _) = decode_value(value).ok_or(format!("scan {start}: corrupt value"))?;
            if key_of(index).as_slice() != key.as_slice() {
                return Err(format!("scan {start}: value of index {index} under another key"));
            }
            self.check_value(index, value).map_err(|e| format!("scan {start}: {e}"))?;
        }
        if let Some(sorted) = &self.sorted_keys {
            let from = sorted.partition_point(|k| k < &start_key);
            let expected = &sorted[from..(from + len).min(sorted.len())];
            if pairs.len() != expected.len()
                || pairs.iter().zip(expected).any(|((k, _), e)| k.as_slice() != e.as_slice())
            {
                return Err(format!(
                    "scan {start}: returned {} keys, not the next {} keys in order",
                    pairs.len(),
                    expected.len()
                ));
            }
        }
        Ok(())
    }
}

/// Every key of a workload whose key set never changes, sorted; `None` when
/// keys can appear during the run.
pub fn sorted_keys(workload: &Workload) -> Option<Arc<Vec<[u8; KEY_LEN]>>> {
    (workload.prepopulate == Prepopulate::All).then(|| {
        let mut keys: Vec<_> = (0..workload.keys).map(key_of).collect();
        keys.sort_unstable();
        Arc::new(keys)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{fill_value, VALUE_LEN};

    fn value(index: u64, version: u32) -> Vec<u8> {
        let mut out = [0u8; VALUE_LEN];
        fill_value(index, version, &mut out);
        out.to_vec()
    }

    fn update_heavy() -> &'static Workload {
        Workload::by_name("update_heavy").unwrap()
    }

    #[test]
    fn catches_an_injected_stale_value() {
        let mut oracle = Oracle::new(0, update_heavy(), None);
        let index = 4;
        let before = oracle.advance(index);
        let last = oracle.advance(index);
        assert_eq!(oracle.check_get(index, Some(&value(index, last))), Ok(()));
        let stale = oracle.check_get(index, Some(&value(index, before)));
        assert!(stale.is_err(), "a stale version must fail the check");
    }

    #[test]
    fn catches_a_value_under_the_wrong_key_or_a_lost_write() {
        let mut oracle = Oracle::new(1, update_heavy(), None);
        let version = oracle.advance(3);
        assert!(oracle.check_get(3, Some(&value(5, version))).is_err(), "misplaced value");
        assert!(oracle.check_get(3, None).is_err(), "lost write");
        let mut torn = value(3, version);
        torn[200] ^= 0xFF;
        assert!(oracle.check_get(3, Some(&torn)).is_err(), "torn value");
    }

    #[test]
    fn a_failed_put_only_checks_integrity() {
        let mut oracle = Oracle::new(0, update_heavy(), None);
        oracle.advance(8);
        oracle.mark_uncertain(8);
        assert_eq!(oracle.check_get(8, None), Ok(()));
        assert_eq!(oracle.check_get(8, Some(&value(8, 1))), Ok(()));
        assert!(oracle.check_get(8, Some(&value(10, 1))).is_err());
    }

    #[test]
    fn scans_must_return_the_next_keys_in_order() {
        let workload = Workload::by_name("scan_mixed").unwrap();
        let sorted = sorted_keys(workload).unwrap();
        let oracle = Oracle::new(0, workload, Some(Arc::clone(&sorted)));
        let start = 17;
        let from = sorted.partition_point(|k| k < &key_of(start));
        let index_of = |key: &[u8; KEY_LEN]| (0..workload.keys).find(|&i| &key_of(i) == key);
        let pairs: Vec<_> = sorted[from..from + 5]
            .iter()
            .map(|k| (k.to_vec(), value(index_of(k).unwrap(), 1)))
            .collect();
        assert_eq!(oracle.check_scan(start, 5, &pairs), Ok(()));
        assert!(oracle.check_scan(start, 4, &pairs).is_err(), "too many pairs");
        let mut reversed = pairs.clone();
        reversed.reverse();
        assert!(oracle.check_scan(start, 5, &reversed).is_err(), "descending keys");
        let skipped: Vec<_> = pairs.iter().skip(1).cloned().collect();
        assert!(oracle.check_scan(start, 4, &skipped).is_err(), "a key was skipped");
    }
}
