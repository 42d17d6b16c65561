"""The three workloads: request classes, their weights, and the seeded
generators that turn `--seed` and `--seconds` into a request list.

Everything here is a pure function of its arguments. Class weights are
per mille and are apportioned to exact counts, so a run's class mix is
fixed by its length and only the order, the parameters and (on the open
loop) the arrival times depend on the seed.
"""

import itertools
import json
import random
from dataclasses import dataclass, field


@dataclass
class Req:
    id: str
    cls: str
    kind: str
    params: dict
    # Seconds after the timed phase starts at which an open-loop request
    # is due; 0 on closed loops.
    due: float = 0.0

    def line(self):
        return json.dumps(
            {"id": self.id, "kind": self.kind, "params": self.params},
            separators=(",", ":"),
            sort_keys=True,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    # "serve": one `fastmm serve --workers 1`; "fleet": two such shards
    # behind `fastmm fleet --attach`.
    topology: str
    # "closed": one request in flight; "open": sent on a seeded schedule.
    loop: str
    # Requests per second of --seconds: the open loop's arrival rate, or
    # the closed loop's request count sized to take about --seconds here.
    per_second: int
    # Requests per round: the tail is taken per round (see
    # stats.round_tail), so its percentile is fixed by this size.
    round_size: int
    queue_depth: int
    # Class name -> weight per mille.
    weights: dict = field(hash=False)
    # The class that holds the median; the traced run reads the server's
    # own latency for this class's kind.
    median_class: str = ""

    def count(self, seconds):
        return self.per_second * seconds


def pool(kind, **choices):
    """A request class: its kind and, per parameter, the values a request
    draws from (one value means a fixed parameter)."""
    return kind, {k: tuple(map(str, v if isinstance(v, (tuple, range)) else (v,))) for k, v in choices.items()}


SEEDS = (1, 2, 3, 4)
FAULT_SPECS = tuple(f"seed={s},crash=0.05,drop=0.02,dup=0.01,retries=8" for s in SEEDS)

# Every class's parameter pools. Kernel operand seeds come from the run
# seed instead (see kernel_seeds_for); every io / faults / sweep-cell
# spec a pool can produce has its counters in `pins.json`.
CLASSES = {
    "bounds": pool("bounds", n=(512, 1024, 2048, 4096, 8192, 16384), m=(256, 1024, 4096), p=(1, 8, 49, 343)),
    "io8": pool("io", alg=("strassen", "winograd", "classical"), n=8, m=(16, 32, 64), policy=("lru", "fifo"), seed=SEEDS),
    "c256": pool("kernel", alg="classical", n=256, threads=1, dtype="f64"),
    "s256": pool("kernel", alg="strassen", cutoff=64, n=256, threads=1, dtype="f64"),
    "c512": pool("kernel", alg="classical", n=512, threads=1, dtype="f64"),
    "s512": pool("kernel", alg="strassen", cutoff=64, n=512, threads=1, dtype="f64"),
    "lru64": pool("io", alg="strassen", n=64, m=1024, policy="lru", seed=SEEDS),
    "fifo64": pool("io", alg="strassen", n=64, m=1024, policy="fifo", seed=SEEDS),
    "opt32": pool("io", alg="strassen", n=32, m=1024, policy="opt", seed=SEEDS),
    "cannon": pool("faults", schedule="cannon", n=16, recovery="recompute", spec=FAULT_SPECS),
    "3d": pool("faults", schedule="3d", n=16, recovery="recompute", spec=FAULT_SPECS),
    "caps": pool("faults", schedule="caps", n=16, recovery="recompute", spec=FAULT_SPECS),
    "caps-ckpt": pool("faults", schedule="caps", n=16, recovery="checkpoint", spec=FAULT_SPECS),
    # The built-in `smoke` sweep spec has six cells.
    "sweep": pool("sweep-cell", spec="smoke", cell=range(6), seed=SEEDS),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fleet-rpc",
            topology="fleet",
            loop="closed",
            per_second=3000,
            round_size=1000,
            queue_depth=32,
            weights={"bounds": 750, "io8": 250},
            median_class="bounds",
        ),
        Workload(
            name="kernel-mm",
            topology="serve",
            loop="closed",
            per_second=50,
            round_size=100,
            queue_depth=8,
            weights={"c256": 200, "s256": 650, "c512": 75, "s512": 75},
            median_class="s256",
        ),
        Workload(
            name="sim-open",
            topology="serve",
            loop="open",
            per_second=22,
            round_size=110,
            queue_depth=1024,
            weights={
                "lru64": 600,
                "fifo64": 60,
                "opt32": 60,
                "cannon": 30,
                "3d": 30,
                "caps": 30,
                "caps-ckpt": 30,
                "sweep": 60,
                "bounds": 100,
            },
            median_class="lru64",
        ),
    )
}


def apportion(weights, count):
    """Exact per-class counts summing to `count` (largest remainder)."""
    total = sum(weights.values())
    exact = {c: w * count / total for c, w in weights.items()}
    counts = {c: int(v) for c, v in exact.items()}
    short = count - sum(counts.values())
    for c in sorted(exact, key=lambda c: (counts[c] - exact[c], c))[:short]:
        counts[c] += 1
    return counts


def class_params(cls, rng, kernel_seeds):
    """(kind, params) for one request of class `cls`: `rng` draws from
    the pools, `kernel_seeds` maps a kernel order to its operand seed."""
    kind, choices = CLASSES[cls]
    params = {k: rng.choice(v) for k, v in choices.items()}
    if kind == "kernel":
        params["seed"] = str(kernel_seeds[int(params["n"])])
    return kind, params


def kernel_seeds_for(seed):
    """One operand seed per kernel order, drawn from the run seed."""
    rng = random.Random(f"kernel-operands:{seed}")
    return {256: rng.randrange(1, 1 << 31), 512: rng.randrange(1, 1 << 31)}


def generate(workload, seed, count, prefix="r"):
    """The run's request list: exact class counts, seeded order and
    parameters, and on the open loop seeded Poisson due times."""
    rng = random.Random(f"{workload.name}:{seed}")
    kernel_seeds = kernel_seeds_for(seed)
    classes = [c for c, k in sorted(apportion(workload.weights, count).items()) for _ in range(k)]
    rng.shuffle(classes)
    dues = [0.0] * count
    if workload.loop == "open":
        # A Poisson process conditioned on `count` arrivals in
        # count/rate seconds: sorted uniform arrival times.
        span = count / workload.per_second
        dues = sorted(rng.uniform(0.0, span) for _ in range(count))
    return [
        Req(f"{prefix}{i}", cls, *class_params(cls, rng, kernel_seeds), dues[i])
        for i, cls in enumerate(classes)
    ]


def representatives(workload):
    """Fixed requests for the in-process layer probe: each class with the
    first value of every pool, and every cell of the sweep class (its
    cells differ 100-fold)."""
    reps = []
    for cls in sorted(workload.weights):
        kind, choices = CLASSES[cls]
        params = {k: v[0] for k, v in choices.items()}
        if kind == "kernel":
            params["seed"] = "42"
        cells = choices["cell"] if kind == "sweep-cell" else (None,)
        for cell in cells:
            p = dict(params, cell=cell) if cell else params
            reps.append(Req(f"{cls}/{cell}" if cell else cls, cls, kind, p))
    return reps


def pinned_specs():
    """Every (kind, params) the io / faults / sweep-cell pools can emit."""
    specs = {}
    for kind, choices in CLASSES.values():
        if kind in ("io", "faults", "sweep-cell"):
            for values in itertools.product(*choices.values()):
                params = dict(zip(choices, values))
                specs[spec_key(kind, params)] = (kind, params)
    return list(specs.values())


def spec_key(kind, params):
    """Canonical key of a job spec, as `pins.json` stores it."""
    return kind + " " + json.dumps(params, sort_keys=True, separators=(",", ":"))
