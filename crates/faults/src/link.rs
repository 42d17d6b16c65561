//! Seeded link-chaos oracle for the router's shard connections.
//!
//! The fleet's existing chaos verbs kill processes — binary failures.
//! Gray failures are the interesting ones: a link that still carries
//! bytes but slowly, or stops carrying them for a while, or corrupts
//! them in flight. [`LinkChaosSpec`] describes such a link adversary in
//! the same declarative comma-grammar as [`crate::FaultSpec`], and its
//! decisions are pure functions of `(seed, shard, seq)` via the same
//! site-keyed splitmix64 oracle — so a chaos-link run is exactly as
//! reproducible as a clean one.
//!
//! String grammar (comma-separated, any order, all optional):
//!
//! ```text
//! seed=7,delay-ms=200@shard2,stall-after=40@shard1,stall-ms=1500,garble=0.01
//! ```
//!
//! * `delay-ms=D@shardN` — every reply read from shard `N` is held for
//!   `D` ms before the router handles it (a uniformly slow link).
//! * `stall-after=R@shardN` — after shard `N`'s `R`-th reply, the link
//!   stops delivering entirely for `stall-ms` (a brown-out: the shard
//!   keeps *executing*, its replies just don't arrive). One-shot.
//! * `stall-ms=T` — duration of every stall window (default 1500 ms);
//!   also the window used by the dynamic `stall-shard` chaos verb.
//! * `garble=P` — each reply line is corrupted pre-parse with
//!   probability `P`, seeded per `(shard, seq)`, exercising the
//!   router's malformed-reply tolerance.
//!
//! The router applies all of this on its *read* path only: writes still
//! flow, the shard still computes, replies arrive late or mangled.
//! That is precisely the failure mode where hedged recomputation on a
//! healthy shard beats waiting — the paper's recomputation thesis
//! applied to serving.

use crate::{splitmix64, to_unit};

/// Domain tag for garble rolls (disjoint from the crash/drop/dup tags).
const TAG_GARBLE: u64 = 0x6A;

/// Default stall-window length in milliseconds.
pub(crate) const DEFAULT_STALL_MS: u64 = 1_500;

/// A declarative description of a misbehaving router→shard link set.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkChaosSpec {
    /// Seed of the garble oracle (independent of the workload seed).
    pub seed: u64,
    /// Per-reply corruption probability.
    pub garble: f64,
    /// `(shard, delay_ms)`: hold every reply from `shard` this long.
    pub delay_ms: Vec<(usize, u64)>,
    /// `(shard, reply_count)`: after this many replies from `shard`,
    /// engage a one-shot stall of [`LinkChaosSpec::stall_ms`].
    pub stall_after: Vec<(usize, u64)>,
    /// Stall-window length in milliseconds (also used by the dynamic
    /// `stall-shard` verb).
    pub stall_ms: u64,
}

impl Default for LinkChaosSpec {
    fn default() -> Self {
        LinkChaosSpec {
            seed: 0,
            garble: 0.0,
            delay_ms: Vec::new(),
            stall_after: Vec::new(),
            stall_ms: DEFAULT_STALL_MS,
        }
    }
}

/// Split `"200@shard2"` into `(2, 200)`. The `@shardN` site suffix is
/// mandatory for per-shard keys — a delay with no victim is a typo.
fn parse_sited(part: &str, value: &str) -> Result<(usize, u64), String> {
    let (v, site) = value
        .split_once('@')
        .ok_or_else(|| format!("'{part}': want <value>@shard<N>"))?;
    let shard = site
        .strip_prefix("shard")
        .ok_or_else(|| format!("'{part}': site must be shard<N>"))?
        .parse()
        .map_err(|e| format!("'{part}': bad shard index: {e}"))?;
    let v = v.parse().map_err(|e| format!("'{part}': {e}"))?;
    Ok((shard, v))
}

impl LinkChaosSpec {
    /// Parse the comma-separated grammar. Unknown keys and malformed
    /// values are errors — silently misreading a chaos plan would turn
    /// a resilience proof into a no-op.
    pub fn parse(s: &str) -> Result<LinkChaosSpec, String> {
        let mut spec = LinkChaosSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("'{part}': want key=value"))?;
            match key {
                "seed" => spec.seed = value.parse().map_err(|e| format!("'{part}': {e}"))?,
                "garble" => {
                    let p: f64 = value.parse().map_err(|e| format!("'{part}': {e}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("'{part}': probability outside [0,1]"));
                    }
                    spec.garble = p;
                }
                "delay-ms" => spec.delay_ms.push(parse_sited(part, value)?),
                "stall-after" => spec.stall_after.push(parse_sited(part, value)?),
                "stall-ms" => {
                    let n: u64 = value.parse().map_err(|e| format!("'{part}': {e}"))?;
                    if n == 0 {
                        return Err(format!("'{part}': stall-ms must be positive"));
                    }
                    spec.stall_ms = n;
                }
                other => return Err(format!("unknown chaos-link key '{other}'")),
            }
        }
        Ok(spec)
    }

    /// Fixed per-reply delay configured for `shard`, in milliseconds.
    pub fn delay_for(&self, shard: usize) -> Option<u64> {
        self.delay_ms
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|&(_, d)| d)
    }

    /// Reply count after which `shard`'s link stalls, if configured.
    pub fn stall_after_for(&self, shard: usize) -> Option<u64> {
        self.stall_after
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|&(_, n)| n)
    }

    /// Is reply `seq` from `shard` garbled in flight? Pure function of
    /// `(seed, shard, seq)` — independent of every other decision.
    pub fn garbles(&self, shard: usize, seq: u64) -> bool {
        if self.garble <= 0.0 {
            return false;
        }
        let site = splitmix64(shard as u64 ^ splitmix64(seq ^ (TAG_GARBLE << 56)));
        to_unit(splitmix64(self.seed ^ site)) < self.garble
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_every_key() {
        let spec =
            LinkChaosSpec::parse("seed=7,delay-ms=200@shard2,stall-after=40@shard1,garble=0.01")
                .unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.garble, 0.01);
        assert_eq!(spec.delay_ms, vec![(2, 200)]);
        assert_eq!(spec.stall_after, vec![(1, 40)]);
        assert_eq!(spec.stall_ms, DEFAULT_STALL_MS);

        let with_window = LinkChaosSpec::parse("stall-after=10@shard0,stall-ms=500").unwrap();
        assert_eq!(with_window.stall_ms, 500);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(LinkChaosSpec::parse("garble=1.5").is_err());
        assert!(LinkChaosSpec::parse("garble=-0.1").is_err());
        assert!(LinkChaosSpec::parse("frobnicate=1").is_err());
        assert!(
            LinkChaosSpec::parse("delay-ms=200").is_err(),
            "missing site"
        );
        assert!(
            LinkChaosSpec::parse("delay-ms=200@2").is_err(),
            "bare index"
        );
        assert!(LinkChaosSpec::parse("stall-after=x@shard1").is_err());
        assert!(LinkChaosSpec::parse("stall-ms=0").is_err());
        assert!(LinkChaosSpec::parse("delay-ms").is_err());
    }

    #[test]
    fn empty_spec_is_inert() {
        let spec = LinkChaosSpec::parse("").unwrap();
        assert_eq!(spec.delay_for(0), None);
        assert_eq!(spec.stall_after_for(0), None);
        for seq in 0..256 {
            assert!(!spec.garbles(0, seq));
        }
    }

    #[test]
    fn garble_oracle_is_deterministic_and_roughly_honored() {
        let a = LinkChaosSpec::parse("seed=42,garble=0.1").unwrap();
        let b = LinkChaosSpec::parse("seed=42,garble=0.1").unwrap();
        let mut hits = 0;
        for shard in 0..4 {
            for seq in 0..5_000 {
                assert_eq!(a.garbles(shard, seq), b.garbles(shard, seq));
                if a.garbles(shard, seq) {
                    hits += 1;
                }
            }
        }
        let rate = hits as f64 / 20_000.0;
        assert!((0.08..0.12).contains(&rate), "garble rate {rate}");
        let c = LinkChaosSpec::parse("seed=43,garble=0.1").unwrap();
        assert!((0..5_000).any(|seq| a.garbles(0, seq) != c.garbles(0, seq)));
    }

    #[test]
    fn sited_lookups_hit_only_their_shard() {
        let spec = LinkChaosSpec::parse("delay-ms=250@shard1,stall-after=40@shard2").unwrap();
        assert_eq!(spec.delay_for(1), Some(250));
        assert_eq!(spec.delay_for(2), None);
        assert_eq!(spec.stall_after_for(2), Some(40));
        assert_eq!(spec.stall_after_for(1), None);
    }
}
