//! Latency-outlier detection for the fleet router.
//!
//! Gray failures do not fail probes — a browning-out shard answers
//! health checks while its real work crawls. So instead of asking "is
//! it up?", the [`OutlierDetector`] asks "is it *slow relative to its
//! peers*?": it keeps an EWMA of each shard's settle latency (and of
//! its probe RTT as a secondary signal) and flags a shard whose EWMA
//! has exceeded `k`× the fleet median for [`STRIKE_WINDOW`] consecutive
//! evaluation ticks. The router ejects flagged shards — routes around
//! them while continuing to probe — and re-admits them after probation.
//!
//! The median-of-peers baseline is the load-bearing choice: an absolute
//! threshold would need tuning per workload, but "4× slower than the
//! middle of the fleet, repeatedly" is suspicious at any scale.

/// Consecutive over-threshold ticks before a shard is flagged.
pub const STRIKE_WINDOW: u32 = 3;

/// Minimum observations an EWMA needs before it can flag (or anchor
/// the median for) anything.
pub(crate) const MIN_SAMPLES: u64 = 8;

/// Minimum *eligible* shards for a median comparison to mean anything;
/// below this, nobody is ejected (a 2-shard fleet has no "middle").
pub(crate) const MIN_PEERS: usize = 3;

/// EWMA smoothing factor (weight of the newest sample).
const ALPHA: f64 = 0.3;

/// One exponentially-weighted moving average with a sample count.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ewma {
    value: f64,
    samples: u64,
}

impl Ewma {
    /// Fold in one observation.
    pub(crate) fn observe(&mut self, v: f64) {
        self.value = if self.samples == 0 {
            v
        } else {
            ALPHA * v + (1.0 - ALPHA) * self.value
        };
        self.samples += 1;
    }

    /// Current average; `None` until [`MIN_SAMPLES`] observations.
    pub fn settled(&self) -> Option<f64> {
        (self.samples >= MIN_SAMPLES).then_some(self.value)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct ShardSignal {
    settle_us: Ewma,
    rtt_us: Ewma,
    strikes: u32,
}

/// Per-shard latency tracking plus the strike/median ejection logic.
#[derive(Debug)]
pub struct OutlierDetector {
    k: f64,
    shards: Vec<ShardSignal>,
}

impl OutlierDetector {
    pub(crate) fn new(n: usize, k: f64) -> OutlierDetector {
        OutlierDetector {
            k,
            shards: vec![ShardSignal::default(); n],
        }
    }

    /// Record a job's settle latency against the shard it was *first*
    /// dispatched to (a hedge rescuing a slow primary is evidence
    /// against the primary).
    pub(crate) fn record_settle(&mut self, shard: usize, us: u64) {
        if let Some(s) = self.shards.get_mut(shard) {
            s.settle_us.observe(us as f64);
        }
    }

    /// Record a health-probe round-trip for a shard.
    pub(crate) fn record_rtt(&mut self, shard: usize, us: u64) {
        if let Some(s) = self.shards.get_mut(shard) {
            s.rtt_us.observe(us as f64);
        }
    }

    /// Forget everything about one shard (readmission after probation,
    /// or a respawn): stale slowness must not re-eject a fresh start.
    pub(crate) fn reset(&mut self, shard: usize) {
        if let Some(s) = self.shards.get_mut(shard) {
            *s = ShardSignal::default();
        }
    }

    /// One evaluation tick over the shards marked `eligible` (routable:
    /// healthy or degraded). Returns the shards whose strike count has
    /// reached [`STRIKE_WINDOW`] — repeatedly, until the caller ejects
    /// them or they recover; the caller applies its own safety floor.
    pub(crate) fn tick(&mut self, eligible: &[bool]) -> Vec<usize> {
        let settle_med = self.median(eligible, |s| s.settle_us.settled());
        let rtt_med = self.median(eligible, |s| s.rtt_us.settled());
        let mut flagged = Vec::new();
        for (idx, sig) in self.shards.iter_mut().enumerate() {
            if !eligible.get(idx).copied().unwrap_or(false) {
                sig.strikes = 0;
                continue;
            }
            let over = |med: Option<f64>, ewma: &Ewma, k: f64| match (med, ewma.settled()) {
                (Some(m), Some(v)) if m > 0.0 => v > k * m,
                _ => false,
            };
            if over(settle_med, &sig.settle_us, self.k) || over(rtt_med, &sig.rtt_us, self.k) {
                sig.strikes = sig.strikes.saturating_add(1);
            } else {
                sig.strikes = 0;
            }
            if sig.strikes >= STRIKE_WINDOW {
                flagged.push(idx);
            }
        }
        flagged
    }

    /// Median of one signal over eligible shards. `None` without
    /// [`MIN_PEERS`] eligible shards or at least two settled values —
    /// consistent hashing concentrates a small key space, so some
    /// shards may legitimately never see a job and can't anchor the
    /// baseline. The *lower* median breaks even-length ties: with two
    /// settled values the comparison is "slow > k × fast", so an
    /// outlier can never hide by being its own median.
    fn median(&self, eligible: &[bool], get: impl Fn(&ShardSignal) -> Option<f64>) -> Option<f64> {
        if eligible.iter().filter(|e| **e).count() < MIN_PEERS {
            return None;
        }
        let mut vals: Vec<f64> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(i, _)| eligible.get(*i).copied().unwrap_or(false))
            .filter_map(|(_, s)| get(s))
            .collect();
        if vals.len() < 2 {
            return None;
        }
        vals.sort_by(|a, b| a.total_cmp(b));
        Some(vals[(vals.len() - 1) / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(d: &mut OutlierDetector, shard: usize, us: u64, n: u64) {
        for _ in 0..n {
            d.record_settle(shard, us);
        }
    }

    #[test]
    fn ewma_needs_min_samples() {
        let mut e = Ewma::default();
        for i in 0..MIN_SAMPLES {
            assert!(e.settled().is_none(), "settled after only {i} samples");
            e.observe(100.0);
        }
        assert_eq!(e.settled(), Some(100.0));
    }

    #[test]
    fn slow_shard_flags_after_strike_window() {
        let mut d = OutlierDetector::new(4, 4.0);
        let eligible = vec![true; 4];
        for s in 0..3 {
            feed(&mut d, s, 1_000, MIN_SAMPLES);
        }
        feed(&mut d, 3, 50_000, MIN_SAMPLES);
        for tick in 1..STRIKE_WINDOW {
            assert!(d.tick(&eligible).is_empty(), "flagged at tick {tick}");
        }
        assert_eq!(d.tick(&eligible), vec![3]);
        // Still flagged until the caller acts — a declined ejection
        // (safety floor) retries next tick.
        assert_eq!(d.tick(&eligible), vec![3]);
    }

    #[test]
    fn no_flag_below_threshold_or_without_peers() {
        let mut d = OutlierDetector::new(4, 4.0);
        let eligible = vec![true; 4];
        for s in 0..4 {
            feed(&mut d, s, 1_000 + 200 * s as u64, MIN_SAMPLES);
        }
        for _ in 0..10 {
            assert!(d.tick(&eligible).is_empty());
        }
        // Two peers only: median undefined, nobody flags however slow.
        let mut d = OutlierDetector::new(2, 4.0);
        feed(&mut d, 0, 1_000, MIN_SAMPLES);
        feed(&mut d, 1, 1_000_000, MIN_SAMPLES);
        for _ in 0..10 {
            assert!(d.tick(&[true, true]).is_empty());
        }
    }

    #[test]
    fn flags_with_two_settled_values_in_a_three_shard_fleet() {
        // Consistent hashing over a small key space can starve a shard
        // entirely; the two shards that do carry traffic must still be
        // comparable, and the slow one must not anchor its own median.
        let mut d = OutlierDetector::new(3, 4.0);
        let eligible = vec![true; 3];
        feed(&mut d, 0, 50_000, MIN_SAMPLES);
        feed(&mut d, 2, 1_000, MIN_SAMPLES);
        for _ in 1..STRIKE_WINDOW {
            assert!(d.tick(&eligible).is_empty());
        }
        assert_eq!(d.tick(&eligible), vec![0]);
    }

    #[test]
    fn ineligible_shards_lose_their_strikes() {
        let mut d = OutlierDetector::new(4, 4.0);
        let eligible = vec![true; 4];
        for s in 0..3 {
            feed(&mut d, s, 1_000, MIN_SAMPLES);
        }
        feed(&mut d, 3, 50_000, MIN_SAMPLES);
        for _ in 0..STRIKE_WINDOW {
            d.tick(&eligible);
        }
        // Ejected (no longer eligible): strikes clear, and a reset +
        // recovery means a clean slate on readmission.
        let masked = vec![true, true, true, false];
        assert!(d.tick(&masked).is_empty());
        d.reset(3);
        feed(&mut d, 3, 1_000, MIN_SAMPLES);
        for _ in 0..10 {
            assert!(d.tick(&eligible).is_empty());
        }
    }
}
