"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_picks_a_sample(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(benchlib.nearest_rank(samples, 50),
                         benchlib.Percentile(3.0, 5))
        self.assertEqual(benchlib.nearest_rank(samples, 100).value, 5.0)
        self.assertEqual(benchlib.nearest_rank(samples, 1).value, 1.0)

    def test_nearest_rank_uses_ceiling_rank(self):
        # rank = ceil(0.9 * 100) = 90 -> the 90th smallest sample.
        samples = list(range(1, 101))
        self.assertEqual(benchlib.p90(samples).value, 90)
        # ceil(0.9 * 101) = 91.
        self.assertEqual(benchlib.p90(list(range(1, 102))).value, 91)

    def test_reports_sample_count(self):
        samples = [float(i) for i in range(250)]
        self.assertEqual(benchlib.p50(samples).samples, 250)
        self.assertEqual(benchlib.p90(samples).samples, 250)

    def test_p90_refuses_fewer_than_100_samples(self):
        with self.assertRaises(ValueError):
            benchlib.p90([1.0] * 99)
        self.assertEqual(benchlib.p90([1.0] * 100).value, 1.0)

    def test_rejects_empty_and_bad_percentiles(self):
        with self.assertRaises(ValueError):
            benchlib.p50([])
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([1.0], 0)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([1.0], 101)

    def test_episodes_drop_a_trailing_partial_chunk(self):
        self.assertEqual(benchlib.episodes(list(range(7)), 3),
                         [[0, 1, 2], [3, 4, 5]])
        with self.assertRaises(ValueError):
            benchlib.episodes([1.0], 0)

    def test_episode_stats_take_medians_over_episodes(self):
        steady = [1.0] * 100
        burst = [1.0] * 50 + [9.0] * 50  # one episode hit by host noise
        rate, p50, p90, n = benchlib.episode_stats(
            steady + burst + steady, 100)
        self.assertEqual(n, 3)
        self.assertEqual(p50, benchlib.Percentile(1.0, 100))
        self.assertEqual(p90.value, 1.0)
        self.assertAlmostEqual(rate, 1000.0)

    def test_episode_stats_refuse_short_episodes(self):
        with self.assertRaises(ValueError):
            benchlib.episode_stats([1.0] * 198, 99)  # p90 needs 100
        with self.assertRaises(ValueError):
            benchlib.episode_stats([1.0] * 50, 100)  # no whole episode


class NameTest(unittest.TestCase):
    def test_accepts_letters_digits_and_separators(self):
        for name in ("steps_per_s", "lbm.coarse_mlups", "p-90", "9lives",
                     "a" * 64):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "_lead", ".lead", "has space", "slash/name",
                     "a" * 65, "ünïcode", None, 3):
            self.assertFalse(benchlib.valid_name(name), repr(name))

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB/s", "MLUPS"):
            self.assertTrue(benchlib.valid_unit(unit), unit)
        for unit in ("", "m s", "x" * 17):
            self.assertFalse(benchlib.valid_unit(unit), unit)


class SchemaTest(unittest.TestCase):
    def setUp(self):
        self.doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.spec = json.loads((PERFBENCH / "spec.json").read_text())

    def test_committed_benchmark_is_valid(self):
        self.assertEqual(benchlib.validate_benchmark(self.doc), [])

    def problems_after(self, mutate):
        doc = copy.deepcopy(self.doc)
        mutate(doc)
        return benchlib.validate_benchmark(doc)

    def test_rejects_extra_top_level_key(self):
        self.assertTrue(self.problems_after(lambda d: d.update(extra=1)))

    def test_rejects_bound_above_quarter(self):
        def mutate(d):
            d["end_to_end"][0]["bound"] = 0.3
        self.assertTrue(self.problems_after(mutate))

    def test_rejects_duplicate_names(self):
        def mutate(d):
            d["per_layer"].append(dict(d["per_layer"][0]))
        self.assertTrue(self.problems_after(mutate))

    def test_requires_setup_s_with_largest_bound(self):
        def drop(d):
            d["end_to_end"] = [m for m in d["end_to_end"]
                               if m["name"] != "setup_s"]
        self.assertTrue(self.problems_after(drop))

        def shrink(d):
            for m in d["end_to_end"]:
                if m["name"] == "setup_s":
                    m["bound"] = 0.01
        self.assertTrue(self.problems_after(shrink))

    def test_rejects_paths_leaving_the_checkout(self):
        self.assertTrue(self.problems_after(
            lambda d: d.update(paths=["../elsewhere"])))
        self.assertTrue(self.problems_after(
            lambda d: d["command"].append("/abs/path")))

    def test_rejects_workload_why_over_one_line(self):
        def mutate(d):
            d["workloads"][0]["why"] = "two\nlines"
        self.assertTrue(self.problems_after(mutate))

    def test_spec_covers_every_workload_and_layer_metric(self):
        names = [w["name"] for w in self.doc["workloads"]]
        self.assertEqual(sorted(names), sorted(self.spec["workloads"]))
        for name, wl in self.spec["workloads"].items():
            self.assertIn("workers", wl, name)
            self.assertIn("ranks", wl, name)
            self.assertTrue(wl["why"], name)
        layer = sorted(m["name"] for m in self.doc["per_layer"])
        self.assertEqual(layer, sorted(self.spec["layer_map"]))
        end_to_end = {m["name"] for m in self.doc["end_to_end"]}
        for name, entry in self.spec["layer_map"].items():
            self.assertTrue(set(entry["moves"]) <= end_to_end, name)
            self.assertTrue(set(entry["workloads"]) <= set(names), name)
        self.assertNotEqual(self.spec["seeds"]["default"],
                            self.spec["seeds"]["held_out"])


class ReferenceCheckTest(unittest.TestCase):
    REFS = {
        "tolerance": {"ctc_displacement_um": 0.1, "rbc_count": 2,
                      "hematocrit": 0.01},
        "by_seed": {"1": {"ctc_displacement_um": [0.0, 0.0, 5.0],
                          "rbc_count": 100, "hematocrit": 0.3}},
        "envelope": {"ctc_displacement_um": [[-1, 1], [-1, 1], [4, 6]],
                     "rbc_count": [90, 110], "hematocrit": [0.25, 0.35]},
    }

    def obs(self, **kw):
        o = {"taken": True, "ctc_displacement_um": [0.0, 0.0, 5.0],
             "rbc_count": 100, "hematocrit": 0.3}
        o.update(kw)
        return o

    def test_recorded_seed_uses_tolerance(self):
        self.assertEqual(run.check_observation(self.obs(), self.REFS, 1), [])
        self.assertTrue(run.check_observation(
            self.obs(ctc_displacement_um=[0.0, 0.0, 5.2]), self.REFS, 1))
        self.assertTrue(run.check_observation(
            self.obs(rbc_count=103), self.REFS, 1))

    def test_other_seed_uses_envelope(self):
        self.assertEqual(run.check_observation(
            self.obs(ctc_displacement_um=[0.5, 0.0, 5.9]), self.REFS, 2), [])
        self.assertTrue(run.check_observation(
            self.obs(hematocrit=0.4), self.REFS, 2))

    def test_missing_observation_fails(self):
        self.assertTrue(run.check_observation({"taken": False}, self.REFS, 1))
        self.assertEqual(run.check_observation(None, None, 1), [])


if __name__ == "__main__":
    unittest.main()
