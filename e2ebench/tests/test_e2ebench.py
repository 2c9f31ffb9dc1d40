"""Unit tests for the benchmark's generator and measurement helpers.

    python3 -m unittest discover -s e2ebench/tests
"""

import json
import os
import re
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def identity(block):
    """The request identity the generator promises to keep unique: every
    line but `option jobs`, which is not part of the canonical text."""
    return "".join(line for line in block.splitlines(keepends=True)
                   if not line.startswith("option jobs "))


class GeneratorTest(unittest.TestCase):
    def generate_all(self, seed):
        hot_set, schedule = workloads.hot_requests(seed)
        return {
            "synth_cold": workloads.cold_requests(seed, 500),
            "synth_logic_bound": workloads.logic_bound_requests(seed, 200),
            "synth_hot": hot_set + [str(i) for i in schedule],
            "deploy_fleet": workloads.deploy_requests(seed, 60),
        }

    def test_same_seed_gives_same_bytes(self):
        self.assertEqual(self.generate_all(7), self.generate_all(7))

    def test_other_seed_gives_other_bytes(self):
        first, second = self.generate_all(7), self.generate_all(8)
        for name in first:
            self.assertNotEqual(first[name], second[name], name)

    def test_new_requests_are_unique(self):
        for blocks in (workloads.cold_requests(3, 2000),
                       workloads.logic_bound_requests(3, 500),
                       workloads.deploy_requests(3, 240),
                       workloads.hot_requests(3)[0]):
            identities = [identity(b) for b in blocks]
            self.assertEqual(len(identities), len(set(identities)))

    def test_rounds_repeat_the_same_kinds(self):
        def kinds(blocks):
            return [re.sub(r"option freq \S+\n", "", b) for b in blocks]
        size = workloads.COLD_ROUND_SIZE
        blocks = workloads.cold_requests(5, 3 * size)
        for k in (1, 2):
            self.assertEqual(kinds(blocks[:size]),
                             kinds(blocks[k * size:(k + 1) * size]))
        self.assertEqual(kinds(blocks[:size]),
                         kinds(workloads.cold_requests(6, size)))
        self.assertNotEqual(blocks[:size], blocks[size:2 * size])

    def test_cold_round_varies_only_option_or_size(self):
        for group in workloads._cold_round():
            base = group[0]
            for layer, device, dtype, options in group[1:]:
                self.assertEqual((device, dtype), base[1:3])
                same_layer = layer == base[0]
                self.assertTrue(same_layer != (options == []),
                                "a variant changes exactly one thing")

    def test_logic_bound_stays_on_its_pair(self):
        for block in workloads.logic_bound_requests(2, 50):
            self.assertIn("device stratixv\ndtype fixed8_16\n", block)
            self.assertIn("option jobs 4\n", block)

    def test_cold_excludes_the_logic_bound_pair(self):
        for block in workloads.cold_requests(2, 300):
            self.assertNotIn("device stratixv\ndtype fixed8_16\n", block)

    def test_hot_schedule_is_zipf_over_the_hot_set(self):
        hot_set, schedule = workloads.hot_requests(4)
        self.assertEqual(len(hot_set), workloads.HOT_SET_SIZE)
        self.assertTrue(all(0 <= i < len(hot_set) for i in schedule))
        counts = sorted((schedule.count(i) for i in set(schedule)),
                        reverse=True)
        self.assertGreater(counts[0], 10 * counts[-1])


class PercentileRuleTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertTrue(measure.percentile_supported(20, 0.5))
        self.assertFalse(measure.percentile_supported(19, 0.5))
        self.assertTrue(measure.percentile_supported(200, 0.95))
        self.assertFalse(measure.percentile_supported(199, 0.95))
        self.assertTrue(measure.percentile_supported(1000, 0.99))
        self.assertFalse(measure.percentile_supported(999, 0.99))
        self.assertFalse(measure.percentile_supported(0, 0.5))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 0.5), 50)
        self.assertEqual(measure.percentile(values, 0.95), 95)
        self.assertEqual(measure.percentile([3.0], 0.99), 3.0)
        with self.assertRaises(ValueError):
            measure.percentile([], 0.5)


class DigestTest(unittest.TestCase):
    def test_known_value_and_sensitivity(self):
        pairs = [("req a\n", "resp a\n"), ("req b\n", "resp b\n")]
        self.assertEqual(measure.digest(pairs), measure.digest(list(pairs)))
        self.assertNotEqual(measure.digest(pairs),
                            measure.digest(pairs[::-1]))
        self.assertNotEqual(measure.digest([("ab", "c")]),
                            measure.digest([("a", "bc")]))
        self.assertEqual(
            measure.digest([]),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_reference_covers_every_workload(self):
        with open(run.REFERENCE_DIGESTS) as f:
            reference = json.load(f)
        self.assertEqual(sorted(reference), sorted(run.WORKLOADS))


def snapshot(counters, histogram_counts, gauges=None):
    bounds = [1, 2, 5, "+Inf"]
    return {
        "counters": counters,
        "gauges": gauges or {},
        "histograms": {"h_ms": {
            "count": sum(histogram_counts), "sum": 0.0,
            "buckets": [{"le": le, "count": n}
                        for le, n in zip(bounds, histogram_counts)]}},
    }


class StatsDeltaTest(unittest.TestCase):
    def test_parse_strips_the_end_line(self):
        text = json.dumps(snapshot({"a_total": 3}, [0, 0, 0, 0])) + "end\n"
        self.assertEqual(measure.parse_stats(text)["counters"]["a_total"], 3)

    def test_counter_and_bucket_deltas(self):
        before = snapshot({"a_total": 3}, [1, 2, 0, 0])
        after = snapshot({"a_total": 10, "b_total": 4}, [1, 5, 3, 1],
                         {"g": 7})
        delta = measure.stats_delta(before, after)
        self.assertEqual(delta["counters"], {"a_total": 7, "b_total": 4})
        self.assertEqual(delta["gauges"], {"g": 7})
        hist = delta["histograms"]["h_ms"]
        self.assertEqual(hist["count"], 7)
        self.assertEqual([n for _, n in hist["buckets"]], [0, 3, 3, 1])

    def test_histogram_new_since_before(self):
        before = {"counters": {}, "gauges": {}, "histograms": {}}
        delta = measure.stats_delta(before, snapshot({}, [2, 0, 0, 0]))
        self.assertEqual(delta["histograms"]["h_ms"]["count"], 2)

    def test_bucket_quantile_interpolates(self):
        hist = {"count": 10, "buckets": [(1, 0), (2, 10), (5, 0),
                                         ("+Inf", 0)]}
        self.assertAlmostEqual(measure.bucket_quantile(hist, 0.5)[0], 1.5)
        self.assertAlmostEqual(measure.bucket_quantile(hist, 1.0)[0], 2.0)
        overflow = {"count": 4, "buckets": [(1, 0), (2, 0), (5, 0),
                                            ("+Inf", 4)]}
        self.assertEqual(measure.bucket_quantile(overflow, 0.5), (5.0, 4))
        self.assertEqual(measure.bucket_quantile({"count": 0, "buckets": []},
                                                 0.5), (0.0, 0))


class SpanAndRateTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0, "end": 100},
            {"id": 2, "parent": 1, "start": 10, "end": 30},
            {"id": 3, "parent": 1, "start": 40, "end": 90},
            {"id": 4, "parent": 3, "start": 50, "end": 60},
        ]
        self.assertEqual(measure.self_times(spans),
                         {1: 30, 2: 20, 3: 40, 4: 10})
        self.assertEqual(measure.layer_of("serve.design_cache.lookup"),
                         "serve")

    def test_split_rates(self):
        cpu = [(0.0, 0.0), (10.0, 5.0)]
        # Rates 2, 1 and 3 per second; CPU 250, 500 and 166.7 ms a request.
        rate, cpu_ms = measure.split_rates(
            [(0.0, 2.0, 4, 4), (2.0, 4.0, 2, 2), (4.0, 8.0, 12, 12)], cpu)
        self.assertAlmostEqual(rate, 2.0)
        self.assertAlmostEqual(cpu_ms, 250.0)

    def test_window_and_round_spans(self):
        records = [{"start": s, "end": e} for s, e in
                   [(0, 4), (4, 9), (9, 12), (12, 25)]]
        self.assertEqual(measure.window_spans(records, [1, 1, 0, 1], 10, 20),
                         [(0, 10, 2, 2), (10, 20, 0, 1)])
        self.assertEqual(measure.round_spans(records, [1, 1, 0, 1], 2),
                         [(0, 9, 2, 2), (9, 25, 1, 2)])


class ResponseCheckTest(unittest.TestCase):
    synth = workloads.synth_block((16, 32, 14, 14, 5, 1, 1), "tiny",
                                  "float32", [])

    def ok(self, perf):
        return ("sasynth-response v1 ok\nsasynth-design v1\n"
                "mapping row=0 col=2 vec=1\nshape 11 7 16\n"
                f"middle 4 1 2 16 8 8\nperf {perf} memory_bound=0\n"
                "resource dsp=1 bram=1 luts=1 ffs=1 dsp_util=0.1 "
                "bram_util=0.1 logic_util=0.1\nend\n")

    def test_finite_positive_ok_passes(self):
        self.assertIsNone(run.check_response(self.synth, self.ok(
            "freq_mhz=269.1 throughput_gops=642.9 latency_ms=0.0078")))

    def test_bad_numbers_fail(self):
        for perf in ("freq_mhz=nan throughput_gops=1 latency_ms=1",
                     "freq_mhz=1 throughput_gops=-2 latency_ms=1",
                     "freq_mhz=1 throughput_gops=1 latency_ms=inf",
                     "freq_mhz=1 throughput_gops=1"):
            self.assertIsNotNone(run.check_response(self.synth,
                                                    self.ok(perf)), perf)

    def test_error_verdicts(self):
        self.assertIsNotNone(run.check_response(
            self.synth, "sasynth-response v1 error nope\nend\n"))
        deploy = workloads.deploy_block([("alexnet", "1.0")], 1, "stratixv",
                                        "fixed8_16", [])
        self.assertIsNone(run.check_response(deploy,
                                             run.EXPECTED_DEPLOY_ERROR))
        self.assertIsNotNone(run.check_response(
            deploy, "sasynth-response v1 error other\nend\n"))


if __name__ == "__main__":
    unittest.main()
