//! Consistent-hash routing: which shard owns a request?
//!
//! Each shard contributes `VNODES` virtual points to a hash ring, all
//! derived with the workspace's canonical FNV-1a ([`fmm_sweep::spec::fnv1a`] —
//! the same function that keys sweep checkpoints). A request routes to
//! the first *live* shard clockwise from its spec hash, so removing a
//! shard only moves the keys that shard owned; everything else keeps its
//! placement. That stability is what makes drain + re-dispatch cheap:
//! only the drained shard's keys re-route.

use fmm_serve::proto::Kind;
use fmm_sweep::spec::fnv1a;
use std::collections::BTreeMap;

/// Virtual points per shard. 64 keeps the ring balanced to within a few
/// percent at single-digit shard counts without a noticeable build cost.
pub(crate) const VNODES: usize = 64;

/// The canonical spec hash of a job request: FNV-1a over the kind and
/// every parameter, sorted by key (the `BTreeMap` order), with the
/// router's own propagation params excluded — `trace_id`/`parent_span`
/// are transport, not spec, and must not move a re-dispatched job to a
/// different ring position than its first attempt. `client_tag` is
/// likewise identity, not spec: a reconnecting client re-sending under
/// the same tag must hash to the same key so dup-suppression can see it.
pub fn spec_hash(kind: Kind, params: &BTreeMap<String, String>) -> u64 {
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    buf.extend_from_slice(kind.as_str().as_bytes());
    for (k, v) in params {
        if k == "trace_id" || k == "parent_span" || k == "client_tag" {
            continue;
        }
        buf.push(0);
        buf.extend_from_slice(k.as_bytes());
        buf.push(1);
        buf.extend_from_slice(v.as_bytes());
    }
    fnv1a(&buf)
}

/// A fixed ring over `shards` members. Liveness is a per-lookup
/// argument, not ring state: membership of the *fleet* is static, only
/// health changes, and routing skips unhealthy shards clockwise.
pub struct Ring {
    /// `(vnode hash, shard index)`, sorted by hash.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    pub fn build(shards: usize) -> Ring {
        let mut points = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for v in 0..VNODES {
                let key = format!("shard-{s}-vnode-{v}");
                points.push((fnv1a(key.as_bytes()), s));
            }
        }
        points.sort_unstable();
        // A hash collision between vnodes of different shards would make
        // ownership order-dependent; keep the lower (hash, shard) pair.
        points.dedup_by_key(|p| p.0);
        Ring { points, shards }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Route `hash` to a live shard: the successor vnode clockwise,
    /// skipping shards with `alive[s] == false`. `None` when no shard
    /// is live.
    pub fn route(&self, hash: u64, alive: &[bool]) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(h, _)| h < hash);
        for i in 0..self.points.len() {
            let (_, s) = self.points[(start + i) % self.points.len()];
            if alive.get(s).copied().unwrap_or(false) {
                return Some(s);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn spec_hash_ignores_propagation_params_but_not_spec_params() {
        let base = spec_hash(Kind::Io, &params(&[("alg", "strassen"), ("n", "32")]));
        let with_trace = spec_hash(
            Kind::Io,
            &params(&[
                ("alg", "strassen"),
                ("n", "32"),
                ("trace_id", "00000000deadbeef"),
                ("parent_span", "42"),
                ("client_tag", "lg-c3"),
            ]),
        );
        assert_eq!(base, with_trace, "transport params must not move keys");
        assert_ne!(
            base,
            spec_hash(Kind::Io, &params(&[("alg", "strassen"), ("n", "64")]))
        );
        assert_ne!(base, spec_hash(Kind::Bounds, &params(&[("n", "32")])));
    }

    #[test]
    fn ring_routes_deterministically_and_spreads_load() {
        let ring = Ring::build(3);
        let alive = [true, true, true];
        let mut counts = [0usize; 3];
        for i in 0..3000u64 {
            let h = fnv1a(&i.to_le_bytes());
            let s = ring.route(h, &alive).unwrap();
            assert_eq!(ring.route(h, &alive), Some(s), "routing is a function");
            counts[s] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 3000 / 10,
                "shard {s} got {c}/3000 — ring badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn dead_shard_moves_only_its_own_keys() {
        let ring = Ring::build(3);
        let all = [true, true, true];
        let without_1 = [true, false, true];
        let mut moved = 0usize;
        for i in 0..2000u64 {
            let h = fnv1a(&i.to_le_bytes());
            let before = ring.route(h, &all).unwrap();
            let after = ring.route(h, &without_1).unwrap();
            assert_ne!(after, 1, "never route to a dead shard");
            if before != after {
                assert_eq!(before, 1, "only the dead shard's keys may move");
                moved += 1;
            }
        }
        assert!(moved > 0, "shard 1 owned some keys");
    }

    #[test]
    fn no_live_shard_routes_nowhere() {
        let ring = Ring::build(2);
        assert_eq!(ring.route(7, &[false, false]), None);
        assert_eq!(Ring::build(0).route(7, &[]), None);
    }
}
