"""Self-tests for the benchmark's own code.

    python3 bench/selftest.py

Covers the span self-time arithmetic on a synthetic tree, the removal of
every wrapper after a traced pass, the exact repeat of every count between
two traced passes, and the counting of failed operations, including a
check run against a deliberately wrong reference.  The workloads are
shrunk here so the tests take under a minute.
"""

import inspect
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qfluid import cli, fluid1d, traveling  # noqa: E402


def small(name: str, seed: int, workdir: str):
    """A prepared workload with the real operations at a fraction of the size."""
    wl = workloads.build(name, seed, workdir)
    if name == "fluid_modes":
        wl.PERIODS = 5.0
        wl.periods_per_pass = wl.PERIODS * len(wl.runs)
    elif name == "wave_frame":
        wl.XI_MAX, wl.SAMPLES = 30.0, 256
        # the periods and drift checks need the full length
        wl._check_trajectory = lambda traj: [] if traj.completed else ["halted"]
    else:
        wl.FLUID_GRID, wl.MAXWELLIAN_NODES = 256, 24
    wl.prepare()
    return wl


class SelfTimeArithmetic(unittest.TestCase):
    def test_synthetic_tree(self):
        tr = spans.Tracer()
        # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; d [11, 12] is a second root
        for name, start, end, parent in (("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
                                         ("b", 5.0, 9.0, 0), ("c", 6.0, 7.0, 2),
                                         ("d", 11.0, 12.0, -1)):
            tr.names.append(name)
            tr.starts.append(start)
            tr.ends.append(end)
            tr.parents.append(parent)
            tr.ops.append(0)
        self.assertEqual(tr.durations(), [10.0, 3.0, 4.0, 1.0, 1.0])
        self.assertEqual(tr.self_times(), [3.0, 3.0, 3.0, 1.0, 1.0])
        self.assertEqual(tr.within("b"), [False, False, True, True, False])
        summary = tr.summary()
        self.assertEqual(summary["root"], {"calls": 1, "s": 10.0, "self_s": 3.0})
        self.assertEqual(sum(row["self_s"] for row in summary.values()),
                         sum(d for d, p in zip(tr.durations(), tr.parents) if p < 0))

    def test_recorded_spans_nest(self):
        tr = spans.Tracer()

        class Host:
            @staticmethod
            def inner(x):
                return x + 1

            @staticmethod
            def outer(x):
                return Host.inner(x) * 2

        with tr.installed(lambda t: (t.span(Host, "outer", "outer"), t.span(Host, "inner", "inner"))):
            self.assertEqual(Host.outer(1), 4)
        self.assertEqual(tr.names, ["outer", "inner"])
        self.assertEqual(tr.parents, [-1, 0])
        self.assertLessEqual(tr.starts[0], tr.starts[1])
        self.assertLessEqual(tr.ends[1], tr.ends[0])
        self.assertAlmostEqual(tr.self_times()[0], tr.durations()[0] - tr.durations()[1])


class WrappersRestored(unittest.TestCase):
    TARGETS = [(fluid1d, "rhs"), (fluid1d, "step"), (fluid1d, "evolve"),
               (fluid1d.SpectralDamping, "tailored"), (np.fft, "rfft"), (np.fft, "irfft"),
               (traveling, "traveling_rhs"), (traveling, "integrate_adaptive"),
               (cli, "write_csv"), (cli, "main")]

    def test_untraced_pass_after_traced_runs_no_wrapper(self):
        with tempfile.TemporaryDirectory() as tmp:
            before = {(id(o), a): inspect.getattr_static(o, a) for o, a in self.TARGETS}
            wl = small("fluid_modes", 3, tmp)
            ledger = run.Ledger()
            run.traced_pass(wl, ledger)
            for owner, attr in self.TARGETS:
                self.assertIs(inspect.getattr_static(owner, attr), before[(id(owner), attr)], attr)

            wrapper_code = {spans.Tracer._span_wrapper.__code__.co_consts,
                            spans.Tracer._count_wrapper.__code__.co_consts}
            wrapper_code = {c for consts in wrapper_code for c in consts if inspect.iscode(c)}
            self.assertTrue(wrapper_code)
            seen = set()

            def profile(frame, event, arg):
                if event == "call":
                    seen.add(frame.f_code)

            sys.setprofile(profile)
            try:
                run.run_pass(wl, ledger)
            finally:
                sys.setprofile(None)
            self.assertIn(fluid1d.rhs.__code__, seen)
            self.assertFalse(wrapper_code & seen)
            self.assertEqual(ledger.failed, 0, ledger.messages)


class CountsRepeat(unittest.TestCase):
    def test_two_traced_passes_give_identical_counts(self):
        counts = [name for name, spec in layers.METRICS.items() if spec[2] == "count"]
        for name in ("fluid_modes", "wave_frame", "cli_batch"):
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                rows = []
                for _ in range(2):
                    wl = small(name, 5, tmp)
                    ledger = run.Ledger()
                    _, tr = run.traced_pass(wl, ledger)
                    self.assertEqual(ledger.failed, 0, ledger.messages)
                    rows.append(layers.metrics(tr, wl.periods_per_pass))
                self.assertEqual(set(rows[0]), set(layers.METRICS) - {"trace.overhead_frac"})
                for metric in counts:
                    self.assertEqual(rows[0][metric], rows[1][metric], metric)
                exercised = {"fluid_modes": "fluid1d.step.calls",
                             "wave_frame": "traveling.traveling_rhs.calls",
                             "cli_batch": "csvio.write_csv.calls"}[name]
                self.assertGreater(rows[0][exercised], 0)


class FailuresCounted(unittest.TestCase):
    def test_wrong_reference_is_a_failure(self):
        right = workloads.omega_ref
        workloads.omega_ref = lambda k, params: 1.05 * right(k, params)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                wl = small("fluid_modes", 7, tmp)
        finally:
            workloads.omega_ref = right
        ledger = run.Ledger()
        run.run_pass(wl, ledger)
        self.assertEqual((ledger.attempted, ledger.failed), (3, 3))
        self.assertIn("frequency off", ledger.messages[0])

    def test_raising_operation_is_a_failure_and_the_pass_goes_on(self):
        class Broken:
            ops = [workloads.Op("raises", lambda: 1 / 0, lambda out: []),
                   workloads.Op("wrong", lambda: 1.0, lambda out: [] if out == 2.0 else ["not 2"]),
                   workloads.Op("bad check", lambda: 1.0, lambda out: math.sqrt(-out)),
                   workloads.Op("fine", lambda: 2.0, lambda out: [] if out == 2.0 else ["not 2"])]

        ledger = run.Ledger()
        run.run_pass(Broken, ledger)
        self.assertEqual((ledger.attempted, ledger.failed), (4, 3))
        self.assertIn("ZeroDivisionError", ledger.messages[0])

    def test_changed_output_bytes_are_a_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = small("cli_batch", 2, tmp)
            ledger = run.Ledger()
            run.run_pass(wl, ledger)
            with open(Path(tmp) / "response.csv", "a", encoding="utf-8") as fh:
                fh.write("# appended\n")
            op = next(op for op in wl.ops if op.name == "response")
            ledger.record(op.name, 0, op.check)
        self.assertEqual((ledger.attempted, ledger.failed), (len(wl.ops) + 1, 1))
        self.assertIn("differ from the first pass", ledger.messages[0])


class BenchmarkJson(unittest.TestCase):
    def test_names_match_the_code(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: s[0] for name, s in layers.METRICS.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
