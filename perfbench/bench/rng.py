"""An independent re-implementation of the server's matrix generator.

`fastmm` fills a kernel job's operands with
`Matrix::random_small(n, n, StdRng::seed_from_u64(seed))`: xoshiro256**
seeded through SplitMix64, each entry `(hi << 64 | lo) % 19 - 9` from two
64-bit draws, A then B, row-major. This module repeats that arithmetic
from its definition so a kernel reply can be checked without trusting
any code under test.
"""

MASK = (1 << 64) - 1


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def xoshiro_stream(seed):
    """Endless xoshiro256** output for `StdRng::seed_from_u64(seed)`."""
    s, st = [], seed & MASK
    for _ in range(4):
        st, v = _splitmix64(st)
        s.append(v)
    s0, s1, s2, s3 = s
    if s0 == s1 == s2 == s3 == 0:
        s0 = 0x9E3779B97F4A7C15
    while True:
        x = (s1 * 5) & MASK
        yield (((x << 7) | (x >> 57)) & MASK) * 9 & MASK
        t = (s1 << 17) & MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK


def small_entries(stream, count):
    """`count` entries of `Uniform::new_inclusive(-9, 9)`."""
    nxt = stream.__next__
    for _ in range(count):
        hi = nxt()
        yield ((hi << 64) | nxt()) % 19 - 9


def product_checksum(n, seed):
    """sum(A @ B) for the job's seeded operands, via the O(n^2) identity
    sum(C) = sum_k colsum(A)_k * rowsum(B)_k. Exact: the entries are
    small integers."""
    stream = xoshiro_stream(seed)
    colsum_a = [0] * n
    entries = small_entries(stream, n * n)
    for _ in range(n):
        for j in range(n):
            colsum_a[j] += next(entries)
    entries = small_entries(stream, n * n)
    rowsum_b = [sum(next(entries) for _ in range(n)) for _ in range(n)]
    return sum(c * r for c, r in zip(colsum_a, rowsum_b))
