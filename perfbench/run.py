"""simulmeas benchmark: one seeded workload of CLI invocations, checked and timed.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One closed-loop client on one thread calls ``simulmeas.cli.main(argv)`` in
this process, op after op. stdout and stderr are captured, ``--out`` files
go to a fresh scratch directory under ``perfbench/out``, and an argparse
``SystemExit`` counts as the op's exit code. Every op's output is checked
against `oracles`, which never imports the package; a failed check counts
in ``failed`` and does not stop the run. Ops on which the program is known
to fail (`workloads.KNOWN_DEFECTS`) run untimed before the timed ones, and
their failures are printed but not counted.

``--trace 0`` reports the end-to-end metrics: set-up time and peak memory
from fresh processes, then op latency and throughput. The loop runs until
the ops have taken ``--seconds`` and at least `MIN_OPS` ops are done, or
until they have taken twice ``--seconds``, and stops only between windows
(`workloads.WINDOW_OPS`); throughput and percentiles are medians over the
windows.
``--trace 1`` runs a fixed prefix of the workload twice, plain and with
every public function of the package wrapped (see `tracing`), and reports
per-layer metrics per op; the spans go to ``perfbench/out/trace-<workload>.npz``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it print each metric with its unit, and the
provenance of the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

# one client on one thread: without this, numpy's BLAS starts a thread per
# core at import, and on a shared machine set-up time then depends on how
# busy the other cores are. Set before numpy is imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# at least ten samples beyond the 90th percentile, unless that takes more
# than twice --seconds
MIN_OPS = 100
# stop a run that takes this long in all
WALL_LIMIT_S = 150.0
# fresh interpreters started to measure set-up time, spread over the run
# because the machine's speed drifts over seconds
SETUP_STARTS = 15
# ops traced per workload with --trace 1: whole blocks, so per-op counts
# are the same for every seed where the block fixes the mix
TRACE_OPS = {"curves": 24, "calibration": 42, "points": 1600}

END_TO_END = [("setup_s", "s"), ("work_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import simulmeas.cli
simulmeas.cli.build_parser()
print(time.perf_counter() - t0)
"""

MEMORY_CODE = """
import contextlib, io, resource, sys
sys.path.insert(0, {src!r})
import simulmeas.cli
for argv in {ops!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        simulmeas.cli.main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class Harness:
    """Runs ops in this process and checks each against its oracle."""

    def __init__(self, cli, scratch: Path):
        self.cli = cli
        self.scratch = scratch
        self.calibration = oracles.CalibrationOracle()
        self.checkers = {"sweep": oracles.check_sweep, "state": oracles.check_state,
                         "mc": oracles.check_mc,
                         "calibrate": self.calibration.check_calibrate,
                         "mc_plates": self.calibration.check_mc_plates}
        self.failures: list[str] = []

    def execute(self, op: dict, span=contextlib.nullcontext) -> tuple[float, bool, int]:
        """Run one op; return (seconds, passed, bytes written to stdout and files)."""
        path = str(self.scratch / op["out"]) if op["out"] else None
        argv = op["argv"] + (["--out", path] if path else [])
        before = os.path.getsize(path) if path and os.path.exists(path) else 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            with span():
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:
                    rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an unhandled error fails the op, not the run
                    rc = 1
                    traceback.print_exc()
            elapsed = time.perf_counter() - t0
        stdout, stderr = out.getvalue(), err.getvalue()
        out_text = None
        if path and os.path.exists(path):
            # sweeps rewrite their file; mc appends one point to it
            start = before if op["kind"] == "mc" else 0
            with open(path, encoding="utf-8", newline="") as fh:
                fh.seek(start)
                out_text = fh.read()
        op = dict(op, fresh_out=before == 0)
        problems = self.checkers[op["kind"]](op, rc, stdout, stderr, out_text)
        if problems and len(self.failures) < 20:
            self.failures.append(f"{' '.join(op['argv'])}: {problems[0]}")
        written = len(stdout.encode()) + (len(out_text.encode()) if out_text else 0)
        return elapsed, not problems, written


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def measure_setup() -> float:
    """Time a fresh interpreter takes for `import simulmeas.cli` plus `build_parser()`."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
                          capture_output=True, text=True, cwd=ROOT, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def measure_peak_rss(workload: str, scratch: Path) -> float:
    """Peak resident memory (MB) of a fresh process running the workload's heaviest ops."""
    ops = [[arg.replace("{tmp}", str(scratch)) for arg in argv]
           for argv in workloads.MEMORY_PROBE[workload]]
    proc = subprocess.run([sys.executable, "-c", MEMORY_CODE.format(src=str(SRC), ops=ops)],
                          capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) / 1024.0


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(workload: str, seed: int, kinds: dict) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
            "workload": workload, "seed": seed, "ops": sum(kinds.values()),
            "ops_per_kind": kinds, "work_unit": workloads.WORK_UNITS[workload]}


def warmed_up(harness: Harness, workload: str) -> Harness:
    """Run the workload's untimed warm-up ops, which count nowhere."""
    for op in workloads.WARMUP[workload]:
        harness.execute(op)
    harness.failures.clear()
    return harness


def known_defects(harness: Harness, workload: str) -> list[str]:
    """Run the workload's untimed known-defect ops; return the ones that fail."""
    failing = []
    for op in workloads.KNOWN_DEFECTS.get(workload, []):
        harness.failures.clear()
        if not harness.execute(op)[1]:
            failing.append(harness.failures[0])
    harness.failures.clear()
    return failing


def run_plain(cli, workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    setup = [measure_setup()]
    rss = measure_peak_rss(workload, scratch)
    harness = warmed_up(Harness(cli, scratch), workload)
    defects = known_defects(harness, workload)
    window = workloads.WINDOW_OPS[workload]
    times, units, kinds = [], [], {}
    failed = 0
    busy = 0.0
    wall0 = time.perf_counter()
    for op in workloads.GENERATORS[workload](seed):
        if len(times) % window == 0 and (busy >= seconds and len(times) >= MIN_OPS
                                         or busy >= 2 * seconds):
            break
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
        elapsed, passed, _ = harness.execute(op)
        times.append(elapsed)
        busy += elapsed
        if len(setup) < SETUP_STARTS * min(busy / seconds, 1.0):
            setup.append(measure_setup())
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
        units.append(op["units"] if passed else 0)
        failed += not passed
    setup += [measure_setup() for _ in range(SETUP_STARTS - len(setup))]
    # each window holds the same mix of ops; the median over windows drops
    # the ones a burst of load from other tenants slowed down
    spans = [slice(i, i + window) for i in range(0, len(times), window)]
    if len(spans) > 1 and len(times) % window:
        spans.pop()  # the wall limit stopped the run inside a window
    metrics = {"setup_s": statistics.median(setup),
               "work_per_s": statistics.median(sum(units[w]) / sum(times[w]) for w in spans),
               "op_p50_ms": statistics.median(percentile(times[w], 50) for w in spans) * 1e3,
               "op_p90_ms": statistics.median(percentile(times[w], 90) for w in spans) * 1e3,
               "peak_rss_mb": rss}
    return {"metrics": metrics, "units": dict(END_TO_END), "attempted": len(times),
            "failed": failed, "kinds": kinds, "failures": harness.failures,
            "known_defects": defects}


def run_traced(cli, workload: str, seed: int, scratch: Path) -> dict:
    from simulmeas import experiment, protocol, qmath

    gen = workloads.GENERATORS[workload](seed)
    ops = [next(gen) for _ in range(TRACE_OPS[workload])]
    (scratch / "plain").mkdir()
    harness = warmed_up(Harness(cli, scratch / "plain"), workload)
    untraced = sum(harness.execute(op)[0] for op in ops)

    tracer = tracing.Tracer()
    traced = Harness(cli, scratch / "traced")
    (scratch / "traced").mkdir()
    failed = written = 0
    kinds: dict = {}
    with tracer.installed([qmath, protocol, experiment, cli]):
        for i, op in enumerate(ops):
            _, passed, nbytes = traced.execute(op, span=lambda i=i: tracer.op_span(i))
            failed += not passed
            written += nbytes
            kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"trace-{workload}.npz"), [op["kind"] for op in ops])
    metrics = tracer.metrics(len(ops), written, untraced)
    units = {name: tracing.unit_of(name) for name in metrics}
    return {"metrics": metrics, "units": units, "attempted": len(ops), "failed": failed,
            "kinds": kinds, "failures": harness.failures + traced.failures}


def run_all(args) -> int:
    """Run each workload in its own process and print every result."""
    results = {}
    for workload in workloads.GENERATORS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "simulmeas" / "cli.py").is_file():
        print(f"error: no simulmeas sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    from simulmeas import cli

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        # a fresh process would print every warning; do so here too
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            if args.trace:
                result = run_traced(cli, args.workload, args.seed, scratch)
            else:
                result = run_plain(cli, args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in result["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    if workloads.KNOWN_DEFECTS.get(args.workload) and not args.trace:
        failing = result["known_defects"]
        print(f"known defects (untimed, not counted in failed): {len(failing)} of "
              f"{len(workloads.KNOWN_DEFECTS[args.workload])} ops fail")
        for line in failing:
            print(f"  known defect: {line}")
    prov = provenance(args.workload, args.seed, result["kinds"])
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  "
          f"failed {failed}  failed_frac {failed / attempted:.4f}")
    for name, value in result["metrics"].items():
        unit = result["units"][name]
        note = f"  ({prov['work_unit']})" if name == "work_per_s" else ""
        print(f"  {name:<40s} {value:>14.6g} {unit}{note}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
