"""Tests of the benchmark's own checks; they need no build.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def honest_stdout(trials, seed=run.PINNED_SEED):
    """A well-formed honest PhaseAsyncLead n=64 report line."""
    wins = [0] * 64
    wins[0] = trials
    messages = {"min": 8192, "max": 8192, "mean": 8192.0, "p50": 8192, "p90": 8192, "p99": 8192}
    report = {
        "protocol": "PhaseAsyncLead",
        "n": 64,
        "trials": trials,
        "base_seed": seed,
        "elected": trials,
        "out_of_range": 0,
        "fails": {"abort": 0, "disagreement": 0, "deadlock": 0, "step_limit": 0},
        "wins": wins,
        "messages": messages,
        "steps": messages,
    }
    return (json.dumps(report, separators=(",", ":")) + "\n").encode()


def runs_of(stdout, trials):
    return [
        {"kind": kind, "trials": trials, "code": 0, "stdout": stdout}
        for kind in ("1t", "nt", "setup")
    ]


class PinTests(unittest.TestCase):
    def test_matching_pin_passes(self):
        stdout = honest_stdout(16)
        pins = {("honest_phase_n64", 16): run.sha256(stdout)}
        attempted, failed, problems = run.evaluate("honest_phase_n64", runs_of(stdout, 16), 1, pins)
        self.assertEqual((attempted, failed, problems), (48, 0, []))

    def test_wrong_pin_fails_every_trial(self):
        stdout = honest_stdout(16)
        pins = {("honest_phase_n64", 16): "0" * 64}
        attempted, failed, problems = run.evaluate("honest_phase_n64", runs_of(stdout, 16), 1, pins)
        self.assertEqual(failed / attempted, 1.0)
        self.assertTrue(all("pin" in p for p in problems))

    def test_pins_do_not_apply_on_other_seeds(self):
        stdout = honest_stdout(16, seed=7)
        pins = {("honest_phase_n64", 16): "0" * 64}
        _, failed, _ = run.evaluate("honest_phase_n64", runs_of(stdout, 16), 7, pins)
        self.assertEqual(failed, 0)

    def test_thread_variant_output_fails_its_run(self):
        runs = runs_of(honest_stdout(16, seed=7), 16)
        runs[1]["stdout"] = runs[1]["stdout"].replace(b'"mean":8192.0', b'"mean":8192.5')
        _, failed, problems = run.evaluate("honest_phase_n64", runs, 7, {})
        self.assertEqual(failed, 16)
        self.assertIn("thread invariance", problems[0])

    def test_nonzero_exit_fails_its_run(self):
        runs = runs_of(honest_stdout(16, seed=7), 16)
        runs[2]["code"] = 2
        _, failed, _ = run.evaluate("honest_phase_n64", runs, 7, {})
        self.assertEqual(failed, 16)

    def test_contained_trial_faults_count_as_failed(self):
        report = json.loads(honest_stdout(16, seed=7))
        report["faults"] = [{"index": 3, "seed": 9, "message": "boom"}]
        stdout = (json.dumps(report, separators=(",", ":")) + "\n").encode()
        _, failed, problems = run.evaluate("honest_phase_n64", runs_of(stdout, 16), 7, {})
        self.assertEqual((failed, problems), (3, []))


class MetricNameTests(unittest.TestCase):
    def test_every_metric_name_is_well_formed(self):
        for name in [*run.END_TO_END, *run.PER_LAYER]:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(run.METRIC_NAME.fullmatch(name), name)

    def test_benchmark_json_lists_what_run_py_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
            self.assertTrue(run.METRIC_NAME.fullmatch(m["name"]), m["name"])


def trace_with(spans, wall_ns=1000):
    rep = {"traced": True, "wall_ns": wall_ns, "spans": spans}
    return {"reps": [rep, dict(rep, traced=False, spans=[])]}


FULL = [
    ["spec.read", -1, 0, 0, 20],
    ["spec.parse", -1, 0, 20, 30],
    ["spec.validate", -1, 0, 30, 40],
    ["fanout", -1, 0, 40, 940],
    ["fanout.chunk", 3, 1, 45, 920],
    ["fanout.chunk", 3, 2, 45, 880],
    ["reduce.merge", 3, 0, 925, 935],
    ["report.finish", -1, 0, 940, 970],
    ["report.to_json", -1, 0, 970, 1000],
]


class CoverageTests(unittest.TestCase):
    def test_complete_trace_passes(self):
        self.assertEqual(run.check_coverage(trace_with(FULL)), [])

    def test_missing_worker_range_spans_are_rejected(self):
        # The fan-out span alone covers nothing: only its layers count.
        spans = [s for s in FULL if s[0] != "fanout.chunk"]
        problems = run.check_coverage(trace_with(spans))
        self.assertEqual(len(problems), 1)
        self.assertIn("trace.coverage", problems[0])

    def test_missing_top_level_span_is_rejected(self):
        spans = [s for s in FULL if not s[0].startswith("report.")]
        self.assertTrue(run.check_coverage(trace_with(spans)))

    def test_time_outside_the_worker_ranges_is_uncovered(self):
        # A slowest range that starts late leaves the fan-out's own time
        # (thread start, join) unaccounted for.
        spans = [list(s) for s in FULL]
        spans[4][3] = 300
        spans[5][3] = 300
        self.assertTrue(run.check_coverage(trace_with(spans)))


if __name__ == "__main__":
    unittest.main()
