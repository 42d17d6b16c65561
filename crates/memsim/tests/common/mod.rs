//! Exact closed forms for the words the distributed schedules move,
//! derived by hand from each schedule's communication pattern. They are
//! the independent check on the simulators' word counts: nothing here
//! calls into the engines they check.

/// Cannon on a `p×p` grid with `bs×bs` blocks. The skew moves every
/// block off rows/columns `0` (`2(p²−p)` messages) and each of the `p−1`
/// shift rounds moves two blocks per processor (`2p²` messages):
/// `2(p−1)p(p+1)` messages of `bs²` words.
pub fn cannon_messages(p: u64) -> u64 {
    2 * (p - 1) * p * (p + 1)
}

/// The 3D algorithm on a `p×p×p` grid: each of the two broadcasts sends
/// `p(p−1)` seed hops plus `p²(p−1)` relay hops, and the reduction chain
/// `p²(p−1)` hops: `p(p−1)(3p+2)` messages of `bs²` words.
pub fn three_d_messages(p: u64) -> u64 {
    p * (p - 1) * (3 * p + 2)
}

/// BFS-CAPS over `levels` levels at order `n`: at level `ℓ` each of the
/// `7^ℓ` groups of `7^{L−ℓ}` members charges every member
/// `⌊14·(n/2^{ℓ+1})² / 7^{L−ℓ}⌋` words, so the level costs `7^L` times
/// that share. Charges are not point-to-point messages.
pub fn caps_words(n: u64, levels: u32) -> u64 {
    let procs = 7u64.pow(levels);
    (0..levels)
        .map(|l| {
            let half = n >> (l + 1);
            procs * (14 * half * half / 7u64.pow(levels - l))
        })
        .sum()
}
