"""Run one qfluid benchmark workload and print its metrics.

    python3 bench/run.py --workload fluid_modes --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  The run builds the workload's inputs from the seed, makes one
checked warm-up pass, then repeats timed passes for about ``--seconds``;
set-up is measured in fresh interpreters between the passes.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of bench/layers.py.
Every output is checked.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Spans of the last
traced pass and a record of the run go to bench/.work/<workload>/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SETUP_PROBES = 9
MIN_ROUNDS = {0: 3, 1: 2}
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, outcome, check) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            problems = ["raised " + "".join(traceback.format_exception_only(outcome)).strip()]
        else:
            try:
                problems = check(outcome)
            except Exception as exc:  # a check that cannot run counts as a failed check
                problems = ["check raised " + "".join(traceback.format_exception_only(exc)).strip()]
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {'; '.join(problems)}")


def run_pass(workload, ledger: Ledger, tracer=None) -> list[tuple[float, float]]:
    """Run and check every operation once; return (wall, cpu) seconds of each run.

    Checks run outside the timed part.  An operation that raises or fails
    its check is counted in the ledger and the pass goes on.
    """
    times = []
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = index
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = op.run()
        except Exception as exc:  # counted as a failed operation
            outcome = exc
        times.append((time.perf_counter() - w0, time.process_time() - c0))
        ledger.record(op.name, outcome, op.check)
    return times


def traced_pass(workload, ledger: Ledger):
    """Set up and run one pass with every layer wrapped; return (wall, tracer)."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed(layers.install):
        workload.prepare()
        wall = sum(w for w, _ in run_pass(workload, ledger, tracer))
    return wall, tracer


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds to import qfluid and build the inputs in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "probe_setup.py"), workload, str(seed), str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def blas_threads():
    """Threads the loaded OpenBLAS uses, or None when it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    sources = hashlib.sha256()
    for path in sorted((SRC / "qfluid").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas_name,
        "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_sha256": sources.hexdigest(),
    }


def measure(workload, ledger: Ledger, seconds: float, trace: int, between_rounds):
    """Timed rounds until the next would end after ``seconds``.

    A round is an untraced pass, followed by a traced pass when tracing.
    ``between_rounds()`` runs after each round, outside the timed passes.
    Returns the per-operation (wall, cpu) of each untraced pass, the
    traced pass walls, the per-layer metrics of each traced pass and the
    last tracer.
    """
    import layers

    untraced, traced_walls, layer_rows, tracer = [], [], [], None
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, ledger))
        if trace:
            wall, tracer = traced_pass(workload, ledger)
            traced_walls.append(wall)
            layer_rows.append(layers.metrics(tracer, workload.periods_per_pass))
        between_rounds()
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if len(untraced) >= MIN_ROUNDS[trace] and elapsed + per_round > seconds:
            return untraced, traced_walls, layer_rows, tracer


def per_layer(untraced, traced_walls, layer_rows) -> dict[str, float]:
    """Medians of time metrics; counts from the first traced pass (they repeat exactly)."""
    import layers

    out = {}
    for name, (_, _, kind) in layers.METRICS.items():
        if name == "trace.overhead_frac":
            continue
        values = [row[name] for row in layer_rows]
        if kind == "count":
            if any(v != values[0] for v in values):
                print(f"bench: warning: count {name} differs between traced passes: {values}",
                      file=sys.stderr)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    untraced_wall = statistics.median(sum(w for w, _ in ops) for ops in untraced)
    out["trace.overhead_frac"] = statistics.median(traced_walls) / untraced_wall - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fluid_modes", "wave_frame", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfluid" / "__init__.py").is_file():
        print(f"bench: no qfluid sources at {SRC / 'qfluid'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # BLAS may use every core given to this process, and no more
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))
    workdir = BENCH / ".work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    import qfluid
    if Path(qfluid.__file__).resolve().parent != SRC / "qfluid":
        print(f"bench: imported qfluid from {qfluid.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed, str(workdir / "run"))
    workload.prepare()
    ledger = Ledger()
    run_pass(workload, ledger)  # warm-up: checked, not timed

    # set-up probes are spread over the run, so that one slow spell of a
    # shared machine does not set them all
    setup_times: list[float] = []

    def probe():
        setup_times.append(probe_setup(args.workload, args.seed, workdir / "probe"))

    untraced, traced_walls, layer_rows, tracer = measure(
        workload, ledger, args.seconds, args.trace, (lambda: None) if args.trace else probe)
    if not args.trace:
        while len(setup_times) < SETUP_PROBES:
            probe()

    if args.trace:
        metrics = per_layer(untraced, traced_walls, layer_rows)
        import layers
        units = {name: spec[0] for name, spec in layers.METRICS.items()}
        tracer.write_csv(workdir / "spans.csv")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(sum(w for w, _ in ops) for ops in untraced),
            "cpu_s": statistics.median(sum(c for _, c in ops) for ops in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    env = environment(args)
    record = {
        "env": env, "inputs": workload.inputs, "setup_s": setup_times,
        "untraced_passes": untraced, "traced_pass_walls": traced_walls,
        "fail_frac": ledger.failed / ledger.attempted, "failures": ledger.messages,
        "metrics": metrics,
    }
    with open(workdir / f"result-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for message in ledger.messages:
        print(f"bench: FAILED {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(untraced)} timed passes, {ledger.attempted} operations, "
          f"fail_frac {ledger.failed / ledger.attempted:g}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
