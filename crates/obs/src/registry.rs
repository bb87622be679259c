//! Instantiable metric storage: sharded counter, gauge and histogram maps,
//! every cell carrying a lifetime aggregate plus a rolling [`window`] ring.
//!
//! A registry's window geometry — slot width × slot count — is fixed at
//! construction, and so is its epoch (slot ids are `elapsed / slot width`).
//! The global recorder owns one at 12 × 5 s and gates it behind
//! [`crate::enable`]; a subsystem that needs its own coverage or must
//! record regardless of that switch owns another. `amrviz serve` keeps
//! one per server at 720 × 5 s, long enough for its 1 h SLO window.
//! [`crate::expose`] renders any set of registries, summing same-named
//! metrics exactly as the snapshot functions below sum shards.
//!
//! [`window`]: crate::window

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::window::{WindowedCounter, WindowedGauge, WindowedHistogram};
use crate::{lock_clean, thread_id, SHARDS};

/// Sharded metric maps over one rolling-window geometry.
pub struct Registry {
    epoch: Instant,
    slot_nanos: u64,
    slots: usize,
    counters: [Mutex<BTreeMap<&'static str, WindowedCounter>>; SHARDS],
    gauges: Mutex<BTreeMap<&'static str, WindowedGauge>>,
    hists: [Mutex<BTreeMap<&'static str, WindowedHistogram>>; SHARDS],
}

impl Registry {
    /// Empty registry whose windows are `slots` slots of `slot` each
    /// (coverage = `slot * slots`); the epoch is now. The width is clamped
    /// to at least 1 ms and the count to `1..=4096`.
    pub fn new(slot: Duration, slots: usize) -> Self {
        Registry {
            epoch: Instant::now(),
            slot_nanos: slot.max(Duration::from_millis(1)).as_nanos() as u64,
            slots: slots.clamp(1, 4096),
            counters: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            gauges: Mutex::new(BTreeMap::new()),
            hists: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
        }
    }

    /// Window geometry as `(slot_nanos, slots)`.
    pub fn geometry(&self) -> (u64, usize) {
        (self.slot_nanos, self.slots)
    }

    /// Window coverage in seconds.
    pub fn coverage_seconds(&self) -> f64 {
        self.slot_nanos as f64 * self.slots as f64 / 1e9
    }

    /// Number of slots needed to cover the trailing `secs` seconds,
    /// clamped to `1..=slots`.
    pub fn slots_for_secs(&self, secs: f64) -> u64 {
        let k = (secs.max(0.0) * 1e9 / self.slot_nanos as f64).ceil() as u64;
        k.clamp(1, self.slots as u64)
    }

    /// Nanoseconds since this registry's epoch.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The slot id "now" falls in.
    pub fn now_slot(&self) -> u64 {
        self.elapsed_ns() / self.slot_nanos
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let shard = thread_id() as usize % SHARDS;
        let slot = self.now_slot();
        lock_clean(&self.counters[shard])
            .entry(name)
            .or_insert_with(|| WindowedCounter::new(self.slots))
            .add(slot, delta);
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let slot = self.now_slot();
        lock_clean(&self.gauges)
            .entry(name)
            .or_insert_with(|| WindowedGauge::new(value, self.slots))
            .set(slot, value);
    }

    /// Records one sample into the named histogram.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        self.histogram_record_at(self.now_slot(), name, value);
    }

    /// [`Registry::histogram_record`] into an explicit slot — the
    /// deterministic entry point for tests of window arithmetic.
    pub fn histogram_record_at(&self, slot: u64, name: &'static str, value: u64) {
        let shard = thread_id() as usize % SHARDS;
        lock_clean(&self.hists[shard])
            .entry(name)
            .or_insert_with(|| WindowedHistogram::new(self.slots))
            .record(slot, value);
    }

    /// Lifetime counter totals (monotonic until [`Registry::clear`]).
    pub fn counters_snapshot(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for shard in &self.counters {
            for (name, c) in lock_clean(shard).iter() {
                *out.entry(*name).or_insert(0) += c.lifetime;
            }
        }
        out
    }

    /// Counter totals over the trailing `last_secs` seconds (clamped to
    /// the coverage). Quiet counters are omitted.
    pub fn counters_window_snapshot(&self, last_secs: f64) -> BTreeMap<&'static str, u64> {
        let (now, k) = (self.now_slot(), self.slots_for_secs(last_secs));
        let mut out = BTreeMap::new();
        for shard in &self.counters {
            for (name, c) in lock_clean(shard).iter() {
                *out.entry(*name).or_insert(0) += c.window_sum(now, k);
            }
        }
        out.retain(|_, v| *v > 0);
        out
    }

    /// Last written value of every gauge.
    pub fn gauges_snapshot(&self) -> BTreeMap<&'static str, f64> {
        lock_clean(&self.gauges)
            .iter()
            .map(|(name, g)| (*name, g.last))
            .collect()
    }

    /// Gauges written within the trailing `last_secs` seconds (most recent
    /// value inside the window).
    pub fn gauges_window_snapshot(&self, last_secs: f64) -> BTreeMap<&'static str, f64> {
        let (now, k) = (self.now_slot(), self.slots_for_secs(last_secs));
        lock_clean(&self.gauges)
            .iter()
            .filter_map(|(name, g)| g.window_last(now, k).map(|v| (*name, v)))
            .collect()
    }

    /// Lifetime histograms. The shard merge is a bucket-wise integer sum,
    /// so the result does not depend on which thread recorded what.
    pub fn histograms_snapshot(&self) -> BTreeMap<&'static str, Histogram> {
        let mut out: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for shard in &self.hists {
            for (name, h) in lock_clean(shard).iter() {
                out.entry(*name).or_default().merge(&h.lifetime);
            }
        }
        out
    }

    /// Histograms over the trailing `last_secs` seconds (clamped to the
    /// coverage).
    pub fn histograms_window_snapshot(&self, last_secs: f64) -> BTreeMap<&'static str, Histogram> {
        self.histograms_window_at(self.now_slot(), self.slots_for_secs(last_secs))
    }

    /// Histograms over the `k` slots ending at `now_slot`; metrics with no
    /// sample inside the window are omitted.
    pub fn histograms_window_at(&self, now_slot: u64, k: u64) -> BTreeMap<&'static str, Histogram> {
        let mut out: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for shard in &self.hists {
            for (name, h) in lock_clean(shard).iter() {
                out.entry(*name)
                    .or_default()
                    .merge(&h.window_merged(now_slot, k));
            }
        }
        out.retain(|_, h| h.count() > 0);
        out
    }

    /// Drops every metric: lifetime totals and windows alike.
    pub fn clear(&self) {
        for shard in &self.counters {
            lock_clean(shard).clear();
        }
        lock_clean(&self.gauges).clear();
        for shard in &self.hists {
            lock_clean(shard).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_sets_coverage_and_slots_for_secs() {
        let r = Registry::new(Duration::from_millis(500), 6);
        assert_eq!(r.geometry(), (500_000_000, 6));
        assert!((r.coverage_seconds() - 3.0).abs() < 1e-9);
        assert_eq!(r.slots_for_secs(1.2), 3);
        assert_eq!(r.slots_for_secs(100.0), 6, "clamped to the ring size");
        assert_eq!(r.slots_for_secs(0.0), 1);
        // Geometry is per instance: a second registry keeps its own.
        let long = Registry::new(Duration::from_secs(5), 720);
        assert!((long.coverage_seconds() - 3600.0).abs() < 1e-9);
        assert_eq!(long.slots_for_secs(300.0), 60);
        assert_eq!(r.geometry(), (500_000_000, 6));
    }
}
