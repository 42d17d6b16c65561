"""Tests for the benchmark driver itself (no server needed).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import oracles, rng, stats  # noqa: E402
from bench.workloads import WORKLOADS, Req, apportion, generate, pinned_specs, spec_key  # noqa: E402


def completed(req_id, result):
    return {"id": req_id, "status": "completed", "result": dict(result, trace_id="00000000000000ff")}


class Generation(unittest.TestCase):
    def test_same_seed_same_requests_and_arrivals(self):
        for w in WORKLOADS.values():
            a = generate(w, 17, 300)
            b = generate(w, 17, 300)
            self.assertEqual([(r.line(), r.due) for r in a], [(r.line(), r.due) for r in b])
            c = generate(w, 18, 300)
            self.assertNotEqual([r.line() for r in a], [r.line() for r in c])

    def test_open_loop_arrivals_rise_at_the_configured_rate(self):
        w = WORKLOADS["sim-open"]
        reqs = generate(w, 3, 2000)
        dues = [r.due for r in reqs]
        self.assertEqual(dues, sorted(dues))
        rate = len(reqs) / dues[-1]
        self.assertAlmostEqual(rate / w.per_second, 1.0, delta=0.1)
        self.assertTrue(all(r.due == 0.0 for r in generate(WORKLOADS["kernel-mm"], 3, 50)))

    def test_class_counts_are_exact(self):
        for w in WORKLOADS.values():
            counts = apportion(w.weights, 1000)
            self.assertEqual(sum(counts.values()), 1000)
            reqs = generate(w, 5, 1000)
            for cls, k in counts.items():
                self.assertEqual(sum(r.cls == cls for r in reqs), k)

    def test_every_generated_simulator_spec_is_pinned(self):
        pinned = {spec_key(k, p) for k, p in pinned_specs()}
        self.assertEqual(set(oracles.load_pins()), pinned)
        for w in WORKLOADS.values():
            for r in generate(w, 9, 2000):
                if r.kind in oracles.PINNED_KEYS:
                    self.assertIn(spec_key(r.kind, r.params), pinned)


class Oracles(unittest.TestCase):
    def setUp(self):
        self.oracle = oracles.Oracle(oracles.load_pins())

    def test_kernel_checksum_matches_the_server_and_rejects_one_digit(self):
        # sum(A @ B) the server reported for n=256, seed=42.
        self.assertEqual(rng.product_checksum(256, 42), -154617)
        req = Req("k1", "s256", "kernel", {"alg": "strassen", "n": "256", "seed": "42"})
        self.assertIsNone(self.oracle.check(req, completed("k1", {"checksum": "-154617"})))
        self.assertIn("checksum", self.oracle.check(req, completed("k1", {"checksum": "-154618"})))

    def test_pinned_io_counter_rejects_a_corrupted_value(self):
        kind, params = next(s for s in pinned_specs() if s[0] == "io")
        pin = oracles.load_pins()[spec_key(kind, params)]
        req = Req("i1", "io8", kind, params)
        self.assertIsNone(self.oracle.check(req, completed("i1", pin)))
        bad = dict(pin, io=str(int(pin["io"]) + 1))
        self.assertIn("io=", self.oracle.check(req, completed("i1", bad)))

    def test_bounds_closed_form_and_rejection(self):
        # Values as `fastmm bounds` prints them for n=4096, m=1024, p=49.
        want = {"classical_seq": "2.147e9", "fast_seq": "8.433e8", "fast_par": "1.721e7", "fast_par_mem_indep": "1.049e6"}
        self.assertEqual(oracles.expected_bounds(4096, 1024, 49), want)
        req = Req("b1", "bounds", "bounds", {"n": "4096", "m": "1024", "p": "49"})
        self.assertIsNone(self.oracle.check(req, completed("b1", dict(want, shard="1", attempts="1"))))
        self.assertIsNotNone(self.oracle.check(req, completed("b1", dict(want, fast_seq="8.434e8"))))

    def test_errors_and_mismatched_ids_fail(self):
        req = Req("x", "bounds", "bounds", {"n": "512", "m": "256", "p": "1"})
        self.assertIsNotNone(self.oracle.check(req, {"id": "x", "status": "shed", "reason": "queue-full"}))
        self.assertIsNotNone(self.oracle.check(req, completed("y", {})))

    def test_drain_conservation_and_hedge_laws(self):
        ok = {"status": "ok", "result": {"accepted": "5", "completed": "4", "errored": "1", "cancelled": "0", "deadline_exceeded": "0"}}
        self.assertIsNone(oracles.check_drain(ok, 4))
        self.assertIsNotNone(oracles.check_drain(ok, 5))
        leaky = {"status": "ok", "result": dict(ok["result"], accepted="6")}
        self.assertIsNotNone(oracles.check_drain(leaky, 4))
        hedges = {"result": {"hedges_launched": "3", "hedges_won": "1", "hedges_lost": "1", "hedges_cancelled": "1"}}
        self.assertIsNone(oracles.check_hedges(hedges))
        hedges["result"]["hedges_won"] = "0"
        self.assertIsNotNone(oracles.check_hedges(hedges))


class Tail(unittest.TestCase):
    def test_tail_is_the_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(2000), 99.5)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(10 ** 6), 99.9)
        with self.assertRaises(ValueError):
            stats.tail_percentile(99)

    def test_ten_samples_lie_beyond_the_reported_rank(self):
        for count in (100, 523, 1000, 1400, 80000):
            values = list(range(count))
            p = stats.tail_percentile(count)
            beyond = sum(v > stats.percentile(values, p) for v in values)
            self.assertGreaterEqual(beyond, stats.TAIL_BEYOND)

    def test_round_tail_is_the_median_of_per_round_tails(self):
        # Three rounds of 100 whose p90s are 90, 190 and 290; a partial
        # fourth round is ignored.
        lat = list(range(1, 101)) + list(range(101, 201)) + list(range(201, 301)) + [10 ** 6] * 50
        self.assertEqual(stats.round_tail(lat, 100), (90.0, 190))
        with self.assertRaises(ValueError):
            stats.round_tail(lat[:99], 100)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 11))
        self.assertEqual(stats.percentile(values, 50.0), 5)
        self.assertEqual(stats.percentile(values, 90.0), 9)
        self.assertEqual(stats.percentile(values, 99.9), 10)
        self.assertEqual(stats.percentile([7], 50.0), 7)


if __name__ == "__main__":
    unittest.main()
