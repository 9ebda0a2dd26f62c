"""Self-test of the benchmark itself: generators, oracle, digest and trace counts.

Run from the repository root: python3 bench/selftest.py   (a few seconds)
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = run.load_qsnake()
SMALL = {"sweep": 24, "routes-deep": 2, "compute-big": 3}


def first_rounds(name: str, seed: int, count: int = 2) -> list:
    it = workloads.rounds(workloads.WORKLOADS[name], seed)
    return [next(it) for _ in range(count)]


def traced_counts(name: str, ops: list) -> tuple[dict, str]:
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    runner = run.Runner(workload, MODULES)
    with tracing.instrumented(tracer):
        runner.run(ops, digest=True)
    if runner.failures:
        raise AssertionError(runner.failures)
    counts = {f"{layer}.calls": calls for layer, (calls, _) in tracer.layers.items()}
    counts.update(tracer.counters)
    return counts, runner.digest.hexdigest()


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs_and_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                self.assertEqual(first_rounds(name, 7), first_rounds(name, 7))
                self.assertNotEqual(first_rounds(name, 7), first_rounds(name, 8))

    def test_inputs_stay_in_their_ranges(self):
        for name in ("routes-deep", "compute-big"):
            w = workloads.WORKLOADS[name]
            for batch in first_rounds(name, 3, count=5):
                self.assertEqual(len(batch), w.strata)
                for r, s in batch:
                    cf = oracle.cf_expand(r, s)
                    self.assertTrue(w.length[0] <= len(cf) <= w.length[1], cf)
                    self.assertTrue(all(1 <= a <= w.qmax for a in cf) and cf[-1] >= 2, cf)
        frame = set(workloads.sweep_frame())
        self.assertEqual(len(frame), 1259)
        for batch in first_rounds("sweep", 3):
            self.assertTrue(set(batch) <= frame)
            self.assertEqual(len(set(batch)), len(batch))


class Oracle(unittest.TestCase):
    def compute(self, r, s, *extra):
        workload = workloads.Workload("probe", ("--format", "json", *extra), 50.0, 1)
        return workloads.operation(workload, MODULES)(r, s)

    def test_accepts_real_outputs(self):
        code, out = self.compute(13, 3)
        oracle.check_compute(13, 3, code, out, all_routes=False)
        code, out = self.compute(179, 74, "--all-routes")
        oracle.check_compute(179, 74, code, out, all_routes=True)
        oracle.check_pair_result(13, 3, MODULES["verify"].check_pair((13, 3)))

    def test_rejects_corrupted_outputs(self):
        code, out = self.compute(13, 3)
        good = json.loads(out)
        corruptions = []
        for key, index, delta in (("num", 2, 1), ("den", 0, 1), ("num", 1, -1)):
            blob = json.loads(out)
            blob[key]["coeffs"][index] += delta
            corruptions.append(blob)
        swapped = json.loads(out)
        swapped["num"]["coeffs"][1:3] = reversed(swapped["num"]["coeffs"][1:3])
        corruptions.append(swapped)
        self.assertNotEqual(good["num"]["coeffs"][1], good["num"]["coeffs"][2])
        for blob in corruptions:
            with self.assertRaises(oracle.Mismatch):
                oracle.check_compute(13, 3, 0, json.dumps(blob), all_routes=False)
        with self.assertRaises(oracle.Mismatch):
            oracle.check_compute(13, 3, 1, out, all_routes=False)
        code, out = self.compute(29, 12, "--all-routes")
        blob = json.loads(out)
        blob["agree"] = False
        with self.assertRaises(oracle.Mismatch):
            oracle.check_compute(29, 12, 0, json.dumps(blob), all_routes=True)


class TraceCounts(unittest.TestCase):
    def test_counts_and_digest_repeat_exactly(self):
        for name, size in SMALL.items():
            with self.subTest(name):
                ops = first_rounds(name, 11, count=1)[0][:size]
                first, digest = traced_counts(name, ops)
                again, digest_again = traced_counts(name, ops)
                self.assertEqual(first, again)
                self.assertEqual(digest, digest_again)
                self.assertGreater(first["laurent.mul.calls"], 0)
                entry = "verify.check_pair.calls" if name == "sweep" else "cli.main.calls"
                self.assertEqual(first[entry], size)

    def test_wrappers_are_removed_after_the_trace(self):
        laurent = sys.modules["qsnake.laurent"]
        before = (laurent.LaurentPoly.__mul__, MODULES["verify"].check_pair)
        with tracing.instrumented(tracing.Tracer()):
            self.assertIsNot(laurent.LaurentPoly.__mul__, before[0])
            self.assertIsNot(MODULES["verify"].check_pair, before[1])
        self.assertEqual((laurent.LaurentPoly.__mul__, MODULES["verify"].check_pair), before)

    def test_reported_metrics_match_the_benchmark_file(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        tracer = tracing.Tracer()
        names = [f"{layer}.{kind}" for layer in tracer.layers for kind in ("calls", "self_s")]
        names += [*tracer.counters, "trace.overhead_ratio"]
        self.assertEqual(names, [m["name"] for m in spec["per_layer"]])
        self.assertEqual(list(run.END_TO_END), [m["name"] for m in spec["end_to_end"]])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
