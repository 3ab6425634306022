"""Tests of the benchmark itself: oracles, workload generators and tracing.

Run with ``python3 -m pytest perfbench/selftest.py -q``. The file name keeps
these tests out of the repository's own test collection.
"""

import contextlib
import io
import math
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from simulmeas import cli, experiment, protocol, qmath  # noqa: E402

MODULES = [qmath, protocol, experiment, cli]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- calibration oracle

@pytest.mark.parametrize("plates, printed", [
    (8, (0.354229184409, 0.51262816955)),
    (10, (0.158805386628, 0.686620748938)),
])
def test_oracle_reproduces_the_8_and_10_plate_roots(plates, printed):
    roots = oracles.calibration_roots(plates, 1.5)
    assert roots == pytest.approx(printed, abs=5e-11)
    assert roots == pytest.approx(experiment.calibrate_alpha(plates, 1.5), abs=1e-9)


def test_oracle_expects_exit_4_for_7_plates_at_index_1_5():
    oracle = oracles.CalibrationOracle()
    assert oracle.roots(7, 1.5) == []
    op = {"plates": 7, "index": "1.5"}
    rc, out, err = run_cli(["calibrate", "--plates", "7"])
    assert rc == 4
    assert oracle.check_calibrate(op, rc, out, err, None) == []
    assert oracle.check_calibrate(op, 0, out, err, None) != []
    assert len(oracle.roots(7, 1.55)) == 2


@pytest.mark.parametrize("plates", [32, 40, 60])
def test_oracle_finds_both_roots_of_thick_stacks(plates):
    roots = oracles.calibration_roots(plates, 1.5)
    assert len(roots) == 2
    assert 0.0 < roots[0] < 1e-3 and math.pi / 4 - 1e-4 < roots[1] < math.pi / 4
    _, k, a = oracles.stack_parameters(plates, 1.5)
    for root in roots:
        assert oracles.family_at(root, k, a)["residual"] < 1e-9


def test_sixty_plate_roots_sit_at_the_edges():
    small, large = oracles.calibration_roots(60, 1.5)
    assert small == pytest.approx(7.8226e-7, rel=1e-4)
    assert math.pi / 4 - large == pytest.approx(9.0808e-9, rel=1e-4)


def test_family_matches_the_prepared_state():
    _, k, a = oracles.stack_parameters(10, 1.5)
    for alpha in (1e-3, 0.3, 0.7):
        d = experiment.prepare(experiment.PolarizerConfig.from_plates(10, alpha)).decomposition
        fam = oracles.family_at(alpha, k, a)
        assert (fam["w"], fam["c"]) == pytest.approx((d.w_a_plus, d.c), rel=1e-12)


# -- output oracles accept the program and reject a changed digit

def _corrupt(text: str) -> str:
    """Move the last nonzero decimal number in the text by one part in a thousand."""
    last = [m for m in re.finditer(r"\d+\.\d+(?:e-?\d+)?", text) if float(m.group())][-1]
    return text[:last.start()] + format(float(last.group()) * 1.001, ".12g") + text[last.end():]


@pytest.mark.parametrize("op", list(islice(workloads.points(3), 16))
                         + list(islice(workloads.curves(3), 6)))
def test_oracles_accept_the_program_and_reject_a_changed_digit(op, tmp_path):
    path = tmp_path / op["out"] if op["out"] else None
    rc, out, err = run_cli(op["argv"] + (["--out", str(path)] if path else []))
    out_text = path.read_text() if path else None
    op = dict(op, fresh_out=True)
    check = {"sweep": oracles.check_sweep, "state": oracles.check_state,
             "mc": oracles.check_mc}[op["kind"]]
    assert check(op, rc, out, err, out_text) == []
    if path:
        assert check(op, rc, out, err, _corrupt(out_text)) != []
    else:
        assert check(op, rc, _corrupt(out), err, out_text) != []


def test_mc_oracle_rejects_counts_from_another_setting():
    argv = ["mc", "--w", "0.8", "--c", "0.6", "--shots", "100000", "--seed", "3"]
    op = {"w": "0.8", "c": "0.6", "shots": 100000, "seed": 3, "visibility": "1", "out": None}
    rc, out, err = run_cli(argv)
    assert oracles.check_mc(op, rc, out, err, None) == []
    # the same counts claimed at lower visibility sit far from that closed form
    rc, out, err = run_cli(argv + ["--visibility", "0.9"])
    assert oracles.check_mc(op, rc, out.replace("visibility = 0.9", "visibility = 1"),
                            err, None) != []


# -- workload generators

@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_for_a_seed(name):
    gen = workloads.GENERATORS[name]
    first = list(islice(gen(5), 200))
    assert first == list(islice(gen(5), 200))
    assert first != list(islice(gen(6), 200))


def test_calibration_blocks_hold_every_stack_and_root():
    size = len(workloads.PLATES) * len(workloads.INDICES) * 3
    block = list(islice(workloads.calibration(1), size))
    keys = {(op["kind"], op["plates"], op["index"], op.get("root")) for op in block}
    assert len(keys) == size == run.TRACE_OPS["calibration"]


def test_known_defect_ops_are_feasible_stacks():
    oracle = oracles.CalibrationOracle()
    for op in workloads.KNOWN_DEFECTS["calibration"]:
        # every probed stack is feasible, so the oracle expects exit 0
        assert len(oracle.roots(op["plates"], float(op["index"]))) == 2
        assert op["kind"] in ("calibrate", "mc_plates")


def test_points_mc_ops_keep_clear_of_the_lower_bound_defect():
    # mc fails only when a sampled product falls below 1 after clamping, so
    # the timed ops keep the expected product well above 1; the probe does not
    for op in islice(workloads.points(2), 5000):
        if op["kind"] == "mc":
            value, err = oracles.expected_product(float(op["w"]), float(op["c"]), op["shots"],
                                                  float(op["visibility"]))
            assert value - 1.0 > 7.0 * err
    for op in workloads.KNOWN_DEFECTS["points"]:
        value, err = oracles.expected_product(float(op["w"]), float(op["c"]), op["shots"], 1.0)
        assert value - 1.0 < 2.0 * err


# -- tracing

def _attributes():
    return [dict(vars(m)) for m in MODULES]


def test_tracing_restores_every_module_attribute():
    before = _attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(MODULES):
            assert protocol.decompose is not before[1]["decompose"]
            with tracer.op_span(0):
                run_cli(["state", "--w", "0.8", "--c", "0.6"])
            raise RuntimeError("leave the block by an exception")
    after = _attributes()
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[key] is b[key] for key in b)


def test_traced_calibration_counts_prepare_calls():
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        for i, argv in enumerate((["calibrate", "--plates", "10"],
                                  ["sweep", "--grid", "11"])):
            with tracer.op_span(i):
                run_cli(argv)
    m = tracer.metrics(n_ops=2, out_bytes=0, untraced_s=1.0)
    # a 2000-point scan plus 22 bisection steps per root, per two ops
    assert m["experiment.prepare.calls"] == (2000 + 2 * 22 + 2) / 2
    assert m["cli.sweep_row.calls"] == 11 / 2
    assert m["protocol.closed_form.calls"] >= 3 * 11 / 2
    assert m["experiment.calibrate.roots_per_prepare"] == pytest.approx(2 / 2044)
    assert 0.9 < m["trace.coverage_frac"] <= 1.0


# -- the benchmark entry point

def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "points", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
