"""Order statistics the benchmark reports."""

# The percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.5, 99.9)

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def rank(p, count):
    """1-based nearest rank of percentile `p` (0-100] among `count`
    samples: ceil(p/100 * count), computed in integers."""
    return max(1, -(-round(p * 1000) * count // 100000))


def percentile(sorted_values, p):
    """Nearest-rank percentile `p` of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[rank(p, len(sorted_values)) - 1]


def tail_percentile(count):
    """The highest ladder percentile that leaves at least TAIL_BEYOND of
    `count` samples above its rank."""
    fits = [p for p in TAIL_LADDER if count - rank(p, count) >= TAIL_BEYOND]
    if not fits:
        raise ValueError(f"{count} samples leave fewer than {TAIL_BEYOND} beyond p{TAIL_LADDER[0]}")
    return fits[-1]


def median(values):
    return percentile(sorted(values), 50.0)


def round_tail(latencies, round_size):
    """The tail of a run measured in rounds: split the latencies (in send
    order) into consecutive rounds of `round_size`, take each round's
    tail percentile, and return (percentile, median over the rounds).
    A partial last round is left out."""
    p = tail_percentile(round_size)
    tails = [
        percentile(sorted(latencies[i : i + round_size]), p)
        for i in range(0, len(latencies) - round_size + 1, round_size)
    ]
    if not tails:
        raise ValueError(f"{len(latencies)} samples make no round of {round_size}")
    return p, median(tails)
