import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simulmeas import cli, errors, qmath
from simulmeas.cli import main, sweep_columns


# the warnings some valid inputs give: a thick stack with a calibration root
# rounded onto alpha = 0 or pi/4, an estimate with a marginal of zero weight,
# and a state report at an overlap next to 0 or 1
ROOT_COUNT = "expected 2 calibration roots, found 1"
ZERO_MARGINAL = "a marginal has zero weight"
BOUNDARY = "c is near a singular boundary"


def assert_warned(err, *patterns):
    """stderr has one ``warning: ...`` line per pattern, in order, and no
    other; none of them carries Python's source location."""
    warned = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert len(warned) == len(patterns), err
    assert all(p in line for p, line in zip(patterns, warned)), err
    assert ".py:" not in err


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateCommand:
    def test_symmetric_optimum(self, capsys):
        code, out, _ = run(capsys, "state", "--w", "0.853553", "--c", "0.707107")
        assert code == 0
        assert "[at optimum]" in out
        assert "product = 1.5" in out

    def test_general_point(self, capsys):
        code, out, _ = run(capsys, "state", "--w", "0.75", "--c", "0.7962")
        assert code == 0
        assert "1.43301" in out  # product ~ 1.4330127 appears in the report

    def test_boundary_warning(self, capsys):
        code, out, err = run(capsys, "state", "--w", "0.5", "--c", "0.999")
        assert code == 0
        assert "boundary" in out  # scan flags the edge minimizer
        assert "singular boundary" in err

    def test_boundary_warning_goes_through_warnings(self):
        # the path every "warning:" line takes, so a caller can collect them
        args = cli.build_parser().parse_args(["state", "--w", "0.5", "--c", "0.999"])
        with pytest.warns(UserWarning, match=BOUNDARY):
            cli.cmd_state(args)

    def test_singular_overlap_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "state", "--w", "0.3", "--c", "0")
        assert code == cli.EXIT_SINGULAR
        assert "singular" in err

    @staticmethod
    def b_pair(capsys, w, sign):
        """The sharp B pair that a `state` report prints for (w, sign)."""
        code, out, _ = run(capsys, "state", "--w", repr(w), "--sign", "+-"[sign < 0],
                           "--c", "0.5")
        assert code == 0
        pair = re.search(r"B -> \((\S+), (\S+)\)", out).groups()
        return tuple(map(float, pair))

    def test_b_eigenstate_is_certain_in_b(self, capsys):
        assert self.b_pair(capsys, 0.5, +1) == pytest.approx((1, 0))
        assert self.b_pair(capsys, 0.5, -1) == pytest.approx((0, 1))

    def test_a_eigenstate_is_unbiased_in_b(self, capsys):
        for sign in (+1, -1):
            assert self.b_pair(capsys, 1.0, sign) == pytest.approx((0.5, 0.5))

    def test_general_b_probability(self, capsys):
        p_plus, p_minus = self.b_pair(capsys, 0.75, +1)
        assert p_plus == pytest.approx(0.9330127018922193, abs=1e-12)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_b_probabilities_match_the_projection(self, capsys):
        # oracle: project the amplitude vector onto the B basis directly
        rng = np.random.default_rng(11)
        for _ in range(200):
            w, sign = rng.uniform(), int(rng.choice([1, -1]))
            amplitudes = qmath.equatorial(w, sign)
            expected = tuple(np.vdot(b, amplitudes) ** 2 for b in qmath.B_BASIS)
            assert self.b_pair(capsys, w, sign) == pytest.approx(expected, abs=1e-12), (w, sign)

    def test_bad_probability_is_usage_error(self, capsys):
        code, _, err = run(capsys, "state", "--w", "1.5", "--c", "0.5")
        assert code == cli.EXIT_USAGE
        assert "error" in err


def sweep_row(w):
    columns = sweep_columns(np.array([w]))
    return {col: columns[col][0] for col in cli.SWEEP_COLUMNS}


class TestSweepRows:
    def test_endpoint_rows(self):
        row = sweep_row(1.0)
        assert row["min_product"] == pytest.approx(1.0)
        assert row["sharp_product"] == pytest.approx(0.0)
        assert math.isinf(row["max_product"])

    def test_symmetric_row(self):
        row = sweep_row((2 + math.sqrt(2)) / 4)
        assert row["min_product"] == pytest.approx(1.5, abs=1e-12)
        assert row["max_product"] == pytest.approx(2.0, abs=1e-12)

    def test_row_invariant(self):
        columns = sweep_columns(np.array([0.5, 0.62, 0.85, 0.99, 1.0]))
        np.testing.assert_allclose(columns["min_product"], 1 + columns["sharp_product"],
                                   rtol=0, atol=1e-12)

    def test_min_product_continuity(self):
        # the sharp product has a square-root cusp at w = 1 where its slope
        # diverges, so a uniform per-step bound cannot hold there; check the
        # analytic modulus of continuity everywhere and the tight bound away
        # from the cusp
        step = 0.5 / 199
        columns = sweep_columns(0.5 + step * np.arange(200))
        w, value = columns["w_a_plus"], columns["min_product"]
        delta = np.abs(np.diff(value))
        envelope = 2 * step + 2 * math.sqrt(2) * (
            np.sqrt(1 - w[:-1]) - np.sqrt(np.maximum(1 - w[1:], 0.0)))
        assert np.all(delta <= envelope + 1e-9)
        assert np.all(delta[w[1:] <= 0.95] < 0.01)

    def test_columns_match_the_scalar_closed_forms(self):
        columns = sweep_columns(np.linspace(0.0, 1.0, 101))
        for k, w in enumerate(columns["w_a_plus"].tolist()):
            delta_a, delta_b = cli.protocol.sharp_deltas(w)
            value, c_opt = cli.protocol.min_product(delta_a, delta_b)
            assert columns["delta_a"][k] == delta_a and columns["c_opt"][k] == c_opt
            assert columns["min_product"][k] == value
            if 0 < c_opt < 1:
                assert columns["max_product"][k] == cli.protocol.max_product(c_opt)


class TestSweepCommand:
    def test_grid_and_endpoint(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#") and "symmetric" in lines[0]
        assert lines[1] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 2 + 6
        last = lines[-1].split(",")
        assert last[0] == "1" and last[4] == "1" and last[5] == "inf" and last[6] == "0"

    def test_full_range_flag(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "3", "--full-range")
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert rows[0].split(",")[0] == "0"
        assert rows[1].split(",")[0] == "0.5"

    def test_json_mirrors_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        json_path = tmp_path / "s.json"
        assert main(["sweep", "--grid", "5", "--out", str(csv_path)]) == 0
        assert main(["sweep", "--grid", "5", "--format", "json",
                     "--out", str(json_path)]) == 0
        doc = json.loads(json_path.read_text())
        csv_rows = csv_path.read_text().strip().splitlines()[2:]
        assert len(doc["rows"]) == len(csv_rows) == 5
        for jrow, crow in zip(doc["rows"], csv_rows):
            fields = crow.split(",")
            for k, col in enumerate(cli.SWEEP_COLUMNS):
                if fields[k] == "inf":
                    assert jrow[col] is None
                else:
                    assert jrow[col] == pytest.approx(float(fields[k]), rel=1e-11)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--grid", "101", "--out", str(a)]) == 0
        assert main(["sweep", "--grid", "101", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("grid", ["1", "0", "-5", str(cli.MAX_GRID + 1), "1000000000000"])
    def test_rejects_grid_out_of_range(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--grid", grid)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and str(cli.MAX_GRID) in err

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--out", str(tmp_path / "no" / "dir.csv"))
        assert code == cli.EXIT_IO
        assert "i/o" in err


def reference_csv(columns):
    """The sweep CSV cell by cell: `cli._fmt` per value, joined with commas."""
    rows = zip(*(columns[col].tolist() for col in cli.SWEEP_COLUMNS))
    lines = [f"# {cli.SWEEP_NOTE}", ",".join(cli.SWEEP_COLUMNS)]
    return "\n".join(lines + [",".join(map(cli._fmt, row)) for row in rows]) + "\n"


def reference_json(columns):
    """The sweep JSON through the json module, None where a value is not finite."""
    rows = zip(*(columns[col].tolist() for col in cli.SWEEP_COLUMNS))
    doc = {"note": cli.SWEEP_NOTE,
           "rows": [{col: v if math.isfinite(v) else None
                     for col, v in zip(cli.SWEEP_COLUMNS, row)} for row in rows]}
    return json.dumps(doc, indent=2) + "\n"


def render(fmt, grid, full_range):
    """The text `cli.write_sweep` writes as ``fmt`` for the sweep of ``grid`` rows."""
    out = io.StringIO()
    cli.write_sweep(cli._sweep_grid(grid, full_range), fmt, out)
    return out.getvalue()


class TestSweepRendering:
    @pytest.mark.parametrize("full_range", [False, True])
    @pytest.mark.parametrize("grid", [2, 3, 201, 4481, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS,
                                      cli._CHUNK_ROWS + 1, 2 * cli._CHUNK_ROWS + 1])
    def test_bytes_match_the_reference(self, grid, full_range):
        columns = sweep_columns(cli._sweep_grid(grid, full_range))
        assert render("csv", grid, full_range) == reference_csv(columns)
        assert render("json", grid, full_range) == reference_json(columns)

    @pytest.mark.parametrize("full_range", [False, True])
    def test_json_null_where_max_product_diverges(self, full_range):
        columns = sweep_columns(cli._sweep_grid(201, full_range))
        rows = json.loads(render("json", 201, full_range))["rows"]
        # c_opt reaches 1 at w = 1/2 and 0 at w = 0 and 1
        diverges = ~np.isfinite(columns["max_product"])
        assert columns["w_a_plus"][diverges].tolist() == ([0.0, 0.5, 1.0] if full_range
                                                          else [0.5, 1.0])
        assert [row["max_product"] is None for row in rows] == diverges.tolist()
        assert all(v is not None for row in rows for col, v in row.items()
                   if col != "max_product")


# peak resident memory of a fresh interpreter that runs one sweep into a file
PEAK_RSS_CODE = """
import resource, sys
from simulmeas.cli import main
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
# on Linux a process's ru_maxrss starts at the resident size of the process
# that spawned it, so a small interpreter, not pytest, starts the measured one
LAUNCH_CODE = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, *sys.argv[1:]]))"


def sweep_peak_rss_kb(tmp_path, *argv):
    proc = run_python(tmp_path, "-c", LAUNCH_CODE, "-c", PEAK_RSS_CODE, "sweep", *argv,
                      "--out", "sweep.out")
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


class TestSweepStream:
    def test_bad_grid_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        code, out, err = run(capsys, "sweep", "--grid", "1", "--out", str(path))
        assert code == cli.EXIT_USAGE and out == "" and err.startswith("error:")
        assert not path.exists()

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # the 100 001-row JSON sweep perfbench probes for peak memory, against
        # a 201-row one; a sweep held in memory whole differs by about 75 MB
        pytest.importorskip("resource")
        large = sweep_peak_rss_kb(tmp_path, "--grid", "100001", "--full-range",
                                  "--format", "json")
        small = sweep_peak_rss_kb(tmp_path, "--grid", "201")
        assert (large - small) / 1024 < 16

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_broken_pipe_is_an_io_error(self, capsys, monkeypatch, fmt):
        # the reader of stdout goes away after the head, as the first block
        # of rows is written
        writes = []

        def write(text):
            writes.append(text)
            if len(writes) == 2:
                raise BrokenPipeError(32, "Broken pipe")
            return len(text)

        monkeypatch.setattr(sys.stdout, "write", write)
        code = main(["sweep", "--grid", "100001", "--format", fmt])
        monkeypatch.undo()
        _, err = capsys.readouterr()
        assert code == cli.EXIT_IO
        assert err.splitlines() == ["i/o error: [Errno 32] Broken pipe"]


class TestCalibrateCommand:
    def test_feasible_stack(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--plates", "10")
        assert code == 0
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(lines) == 2
        for line in lines:
            assert float(line.split()[-1]) < 1e-8  # optimality residual

    def test_infeasible_stack_diagnostics(self, capsys):
        code, _, err = run(capsys, "calibrate", "--plates", "7")
        assert code == cli.EXIT_INFEASIBLE
        assert "margin k^2 - k_min^2 = -0.0705435" in err
        assert "n* = 1.5375383" in err

    @pytest.mark.parametrize("plates, index", [("60", "1.7"), ("100", "1.5"), ("200", "1.5")])
    def test_thick_stack_residuals_are_exact(self, capsys, plates, index):
        # delta_a comes from the stack parameters, not from a rounded w; at
        # 200 plates the root near pi/4 rounds onto it and is dropped
        expected = (ROOT_COUNT,) if plates == "200" else ()
        code, out, err = run(capsys, "calibrate", "--plates", plates, "--index", index)
        assert code == 0
        assert_warned(err, *expected)
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert lines
        for line in lines:
            assert float(line.split()[-1]) <= 1e-12

    @pytest.mark.parametrize("index", ["inf", "1e200", "nan"])
    def test_rejects_index_without_finite_transmittance(self, capsys, index):
        for argv in (["calibrate", "--plates", "10"],
                     ["mc", "--plates", "10", "--shots", "100"]):
            code, _, err = run(capsys, *argv, "--index", index)
            assert code == cli.EXIT_USAGE
            assert err.startswith("error:") and "Traceback" not in err

    def test_alternate_index(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--plates", "7", "--index", "1.55")
        assert code == 0
        assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 2


class TestMcCommand:
    def test_explicit_point_appends_csv(self, capsys, tmp_path):
        out_path = tmp_path / "points.csv"
        for seed in ("7", "8"):
            code, out, _ = run(capsys, "mc", "--w", "0.75", "--c", "0.7962",
                               "--shots", "20000", "--seed", seed,
                               "--out", str(out_path))
            assert code == 0
            assert "measured product" in out
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(cli.MC_COLUMNS)
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "7"

    def test_empty_file_gets_the_header_once(self, capsys, tmp_path):
        out_path = tmp_path / "points.csv"
        out_path.touch()
        args = ["mc", "--w", "0.8", "--c", "0.6", "--shots", "100", "--out", str(out_path)]
        assert main(args + ["--seed", "1"]) == 0
        assert main(args + ["--seed", "2"]) == 0
        capsys.readouterr()
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(cli.MC_COLUMNS)
        assert [line.split(",")[3] for line in lines[1:]] == ["1", "2"]

    def test_calibrated_setting(self, capsys):
        code, out, _ = run(capsys, "mc", "--plates", "10", "--root", "2",
                           "--shots", "20000", "--seed", "3")
        assert code == 0
        assert "analytic product" in out

    def test_deterministic_rows(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc", "--w", "0.8", "--c", "0.6", "--shots", "5000", "--seed", "99"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_append(self, capsys, tmp_path):
        out_path = tmp_path / "points.jsonl"
        args = ["mc", "--w", "0.8", "--c", "0.6", "--shots", "5000",
                "--format", "json", "--out", str(out_path)]
        assert main(args + ["--seed", "1"]) == 0
        assert main(args + ["--seed", "2"]) == 0
        capsys.readouterr()
        points = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [p["seed"] for p in points] == [1, 2]
        assert all(set(p) == set(cli.MC_COLUMNS) for p in points)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_record_matches_the_printed_lines(self, capsys, tmp_path, fmt):
        out_path = tmp_path / "point"
        code, out, _ = run(capsys, "mc", "--w", "0.8", "--c", "0.6", "--shots", "5000",
                           "--seed", "3", "--visibility", "0.95",
                           "--format", fmt, "--out", str(out_path))
        assert code == 0
        # the printed values, in MC_COLUMNS order
        printed = list(re.search(
            r"w_a_plus = (\S+)  c = (\S+)  shots = (\S+)  seed = (\S+)  visibility = (\S+)\n"
            r".*\nmeasured product = (\S+)  stderr = (\S+)\nanalytic product = (\S+)  ",
            out).groups())
        if fmt == "csv":
            header, row = out_path.read_text().splitlines()
            assert header.split(",") == cli.MC_COLUMNS
            assert row.split(",") == printed
        else:
            record = json.loads(out_path.read_text())
            assert list(record) == cli.MC_COLUMNS
            assert [format(v, ".12g") for v in record.values()] == printed

    def test_thick_stack_setting(self, capsys):
        # the root near alpha = 0 of a 200-plate stack: delta_a and delta_b
        # come from the prepared state, so the analytic product sits on the floor
        code, out, err = run(capsys, "mc", "--plates", "200", "--shots", "1000")
        assert code == 0
        assert_warned(err, ROOT_COUNT, ZERO_MARGINAL)
        analytic, floor = map(float, re.findall(
            r"analytic product = (\S+)  minimum possible = (\S+)", out)[0])
        assert analytic == pytest.approx(floor, rel=1e-12)

    def test_warning_is_a_plain_stderr_line(self, capsys):
        code, _, err = run(capsys, "mc", "--plates", "200", "--shots", "1000")
        assert code == 0
        assert ("warning: 200 plates at index 1.5: expected 2 calibration roots, found 1"
                in err.splitlines())

    def test_warning_printed_before_a_failing_exit(self, capsys):
        # the 200-plate stack keeps one root, so a second one is a usage error
        code, _, err = run(capsys, "mc", "--plates", "200", "--root", "2", "--shots", "100")
        assert code == cli.EXIT_USAGE
        assert_warned(err, ROOT_COUNT)
        assert err.splitlines()[-1].startswith("error: --root must be in 1..1")

    def test_nearly_pure_marginal_is_estimated_exactly(self, capsys):
        # counts (49999997003731, 43, 50000002996174, 52): 1 - m_plus is
        # 9.5e-13, yet the product is the rational reduction of the counts
        code, out, _ = run(capsys, "mc", "--w", "0.999999999999", "--c", "1e-150",
                           "--shots", "100000000000000", "--seed", "1")
        assert code == 0
        assert "measured product = 1.94935886896e+144  stderr = 9.99999999998e+142" in out

    def test_overlap_next_to_one(self, capsys):
        code, out, _ = run(capsys, "mc", "--w", "0.7", "--c", str(1 - 1e-13), "--shots", "100")
        assert code == 0 and "measured product" in out

    @pytest.mark.parametrize("argv", [["state", "--w", "0.5", "--c", "1e-300"],
                                      ["mc", "--w", "0.5", "--c", "1e-300", "--shots", "100"]])
    def test_underflowing_overlap_is_singular(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_SINGULAR
        assert err.startswith("error:") and "singular" in err

    def test_singular_explicit_overlap(self, capsys):
        code, _, err = run(capsys, "mc", "--w", "0.7", "--c", "0", "--shots", "10")
        assert code == cli.EXIT_SINGULAR
        assert "singular" in err

    def test_requires_a_setting(self, capsys):
        code, _, err = run(capsys, "mc", "--shots", "10")
        assert code == cli.EXIT_USAGE
        assert "--plates" in err or "--w" in err

    def test_conflicting_settings(self, capsys):
        code, _, _ = run(capsys, "mc", "--plates", "10", "--w", "0.7", "--c", "0.5")
        assert code == cli.EXIT_USAGE

    def test_root_needs_plates(self, capsys):
        code, out, err = run(capsys, "mc", "--w", "0.75", "--c", "0.7", "--root", "2",
                             "--shots", "100", "--seed", "1")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == "error: give either --plates/--root or --w/--c, not both\n"

    @pytest.mark.parametrize("argv", [
        ["--w", "0.5", "--c", "0.9", "--shots", "1000", "--seed", "9"],
        ["--plates", "24", "--index", "1.55", "--root", "1", "--shots", "1000", "--seed", "2"],
    ])
    def test_sampled_product_below_floor_is_reported(self, capsys, argv):
        # these draws put the estimate below 1 + delta_a*delta_b; that is
        # sampling noise, not a usage error
        code, out, err = run(capsys, "mc", *argv, "--visibility", "1")
        assert code == 0, err
        assert "measured product" in out

    @pytest.mark.parametrize("flag, value", [("seed", "-1"),
                                             ("shots", "100000000000000000000")])
    def test_out_of_range_seed_and_shots(self, capsys, tmp_path, flag, value):
        code, _, err = run(capsys, "mc", "--w", "0.8", "--c", "0.6", f"--{flag}", value)
        assert code == cli.EXIT_USAGE
        assert err.startswith("error:") and flag in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        code, _, err = run(capsys, "--config", str(cfg), "mc", "--w", "0.8", "--c", "0.6")
        assert code == cli.EXIT_USAGE
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("argv, code, err", [
        # shots are checked before the stack is calibrated
        ("--plates 7 --shots 0", 2, f"error: shots must be in 1..{2 ** 63 - 1}, got 0\n"),
        # the seed before the shots
        ("--w 0.5 --c 0.5 --seed -1 --shots 0", 2,
         "error: seed must be a non-negative integer, got -1\n"),
        # the visibility after calibration
        ("--plates 7 --visibility 2 --shots 10", 4,
         "error: no rotation angle reaches the optimal product for 7 plates at index 1.5: "
         "the stack is too leaky (k^2 below k_min^2)\n"
         "diagnostic: margin k^2 - k_min^2 = -0.0705435; this plate count calibrates above "
         "index n* = 1.5375383\n"),
        # a calibrated stack's visibility, checked by run_setting
        ("--plates 10 --visibility 2 --shots 10", 2,
         "error: visibility must be in [0, 1], got 2.0\n"),
        # the choice of setting before the stack's calibration
        ("--plates 7 --w 0.5 --shots 10", 2,
         "error: give either --plates/--root or --w/--c, not both\n"),
        ("--shots 10", 2,
         "error: mc needs either --plates (with --root) or both --w and --c\n"),
    ])
    def test_check_order(self, capsys, argv, code, err):
        assert run(capsys, "mc", *argv.split()) == (code, "", err)


class TestConfigFile:
    def test_file_pins_seed_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# pinned batch configuration\nseed = 7\nshots = 5000\n"
                       "visibility = 1.0\n")
        out_a = tmp_path / "a.csv"
        assert main(["--config", str(cfg), "mc", "--w", "0.8", "--c", "0.6",
                     "--out", str(out_a)]) == 0
        capsys.readouterr()
        row = out_a.read_text().strip().splitlines()[1].split(",")
        assert row[2] == "5000" and row[3] == "7"

        out_b = tmp_path / "b.csv"
        assert main(["--config", str(cfg), "mc", "--w", "0.8", "--c", "0.6",
                     "--seed", "8", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_b.read_text().strip().splitlines()[1].split(",")[3] == "8"

    def test_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # some editors start a UTF-8 file with U+FEFF; it is not part of the first key
        text = "seed = 7\nshots = 5000\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        code, out, err = run(capsys, "--config", str(plain), "mc", "--w", "0.8", "--c", "0.6")
        assert (code, err) == (0, "") and "shots = 5000  seed = 7" in out
        assert run(capsys, "--config", str(marked), "mc", "--w", "0.8", "--c", "0.6") == (
            code, out, err)

    def test_line_without_equals_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed 7\n")
        code, out, err = run(capsys, "--config", str(cfg), "sweep", "--grid", "3")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: {cfg}:1: expected 'key = value', got 'seed 7'\n"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sede = 7\n")
        code, _, err = run(capsys, "--config", str(cfg), "sweep", "--grid", "3")
        assert code == cli.EXIT_USAGE
        assert "unknown config key" in err

    # state uses no config key, but a broken file is still an error
    def test_state_rejects_an_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sede = 7\n")
        code, out, err = run(capsys, "--config", str(cfg), "state", "--w", "0.5", "--c", "0.5")
        assert code == cli.EXIT_USAGE
        assert out == "" and "unknown config key" in err

    def test_state_rejects_a_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "--config", str(tmp_path / "missing.cfg"),
                             "state", "--w", "0.5", "--c", "0.5")
        assert code == cli.EXIT_IO
        assert out == "" and err.startswith("i/o error:")


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


# argv, exit code, stdout, stderr; "{cfg}" is a config file pinning
# seed = 7, shots = 5000 and visibility = 0.95
GOLDEN = [
    ("state --w 0.75 --c 0.7962", 0, _lines(
        "equatorial state: w_a_plus = 0.75, sign = +",
        "amplitudes: [0.866025403784, 0.5]",
        "sharp probabilities: A -> (0.75, 0.25)   B -> (0.933012701892, 0.0669872981078)",
        "sharp uncertainties: delta_a = 0.866025403784  delta_b = 0.5  product = 0.433012701892",
        "unsharp at c = 0.7962: delta_a' = 1.57535745479  delta_b' = 0.909642889019  "
        "product = 1.43301270642",
        "closed-form optimum: c_opt = 0.796225217018  min_product = 1.43301270189  "
        "[at optimum]",
        "numeric scan: c_best = 0.796225218474  product_best = 1.43301270189",
        "max product at c = 0.7962: 2.07586157918"), ""),
    ("state --w 0.3 --sign - --c 0.5", 0, _lines(
        "equatorial state: w_a_plus = 0.3, sign = -",
        "amplitudes: [0.547722557505, -0.836660026534]",
        "sharp probabilities: A -> (0.3, 0.7)   B -> (0.0417424305044, 0.958257569496)",
        "sharp uncertainties: delta_a = 0.916515138991  delta_b = 0.4  product = 0.366606055596",
        "unsharp at c = 0.5: delta_a' = 1.08320512062  delta_b' = 1.77763888346  "
        "product = 1.92554754118",
        "closed-form optimum: c_opt = 0.834366565305  min_product = 1.3666060556",
        "numeric scan: c_best = 0.834366564197  product_best = 1.3666060556",
        "max product at c = 0.5: 2.30940107676"), ""),
    ("state --w 1 --c 0.9999999999999999", 0, _lines(
        "equatorial state: w_a_plus = 1, sign = +",
        "amplitudes: [1, 0]",
        "sharp probabilities: A -> (1, 0)   B -> (0.5, 0.5)",
        "sharp uncertainties: delta_a = 0  delta_b = 1  product = 0",
        "unsharp at c = 1: delta_a' = 67108864  delta_b' = 1  product = 67108864",
        "closed-form optimum: c_opt = 0  min_product = 1",
        "numeric scan: c_best = 0.0001  product_best = 1.000000005 (boundary)",
        "max product at c = 1: 67108864"),
     _lines("warning: c is near a singular boundary; one rescaled eigenvalue is very large")),
    ("state --w 1.5 --c 0.5", 2, "", _lines("error: w_a_plus must be in [0, 1], got 1.5")),
    ("state --w 2 --c 0", 2, "", _lines("error: w_a_plus must be in [0, 1], got 2.0")),
    ("sweep --grid 3 --full-range", 0, _lines(
        "# products are symmetric about w_a_plus = 0.5; "
        "max_product diverges where c_opt reaches 0 or 1",
        "w_a_plus,delta_a,delta_b,c_opt,min_product,max_product,sharp_product",
        "0,0,1,0,1,inf,0",
        "0.5,1,0,1,1,inf,0",
        "1,0,1,0,1,inf,0"), ""),
    ("calibrate --plates 10", 0, _lines(
        "plates = 10  index = 1.5  t_s = 0.201724141012",
        "root  alpha_rad         c                 w_a_plus          min_product       residual",
        "1     0.158805386661    0.596176615767    0.937846341727    1.42284471706     0",
        "2     0.686620748955    0.919034164335    0.590461615309    1.17793749461     0"), ""),
    ("calibrate --plates 7", 4, _lines("plates = 7  index = 1.5  t_s = 0.32608476782"), _lines(
        "error: no rotation angle reaches the optimal product for 7 plates at index 1.5: "
        "the stack is too leaky (k^2 below k_min^2)",
        "diagnostic: margin k^2 - k_min^2 = -0.0705435; this plate count calibrates above "
        "index n* = 1.5375383")),
    # feasible, but both roots round onto the edges of (0, pi/4)
    ("calibrate --plates 1000", 4, _lines("plates = 1000  index = 1.5  t_s = 2.99080075478e-70"),
     _lines("error: no rotation angle reaches the optimal product for 1000 plates at index 1.5: "
            "its roots round onto the edges of (0, pi/4)",
            "diagnostic: margin k^2 - k_min^2 = +0.2769532; the stack is feasible, but double "
            "precision cannot resolve its roots")),
    ("mc --w 0.8 --c 0.6 --shots 1000 --seed 3", 0, _lines(
        "setting: w_a_plus = 0.8  c = 0.6  shots = 1000  seed = 3  visibility = 1",
        "counts: (B+,M+) 486  (B+,M-) 245  (B-,M+) 259  (B-,M-) 10",
        "measured product = 1.61065234423  stderr = 0.0326046859916",
        "analytic product = 1.60333333333  minimum possible = 1.48"), ""),
    ("mc --plates 10 --root 2 --shots 1000 --seed 5", 0, _lines(
        "setting: w_a_plus = 0.590461615309  c = 0.919034164335  shots = 1000  seed = 5  "
        "visibility = 1",
        "counts: (B+,M+) 509  (B+,M-) 448  (B-,M+) 38  (B-,M-) 5",
        "measured product = 1.11498504249  stderr = 0.0790232866666",
        "analytic product = 1.17793749461  minimum possible = 1.17793749461"), ""),
    ("mc --plates 10 --root 2 --shots 10000 --seed 5 --visibility 0.9", 0, _lines(
        "setting: w_a_plus = 0.590461615309  c = 0.919034164335  shots = 10000  seed = 5  "
        "visibility = 0.9",
        "counts: (B+,M+) 4737  (B+,M-) 4355  (B-,M+) 594  (B-,M-) 314",
        "measured product = 1.58279619124  stderr = 0.0224856161159",
        "analytic product = 1.17793749461  minimum possible = 1.17793749461"), ""),
    ("mc --w 0.8 --c 0.6 --shots 1000 --seed 3 --visibility 0", 0, _lines(
        "setting: w_a_plus = 0.8  c = 0.6  shots = 1000  seed = 3  visibility = 0",
        "counts: (B+,M+) 247  (B+,M-) 244  (B-,M+) 268  (B-,M-) 241",
        "measured product = 2.08205824688  stderr = 0.0023280759223",
        "analytic product = 1.60333333333  minimum possible = 1.48"), ""),
    ("--config {cfg} mc --w 0.8 --c 0.6", 0, _lines(
        "setting: w_a_plus = 0.8  c = 0.6  shots = 5000  seed = 7  visibility = 0.95",
        "counts: (B+,M+) 2386  (B+,M-) 1221  (B-,M+) 1287  (B-,M-) 106",
        "measured product = 1.64957968778  stderr = 0.0145006887128",
        "analytic product = 1.60333333333  minimum possible = 1.48"), ""),
    ("mc --w 0.5 --c 0.5 --seed -1", 2, "",
     _lines("error: seed must be a non-negative integer, got -1")),
    ("mc --w 2 --c 0.5 --shots 10", 2, "", _lines("error: w_a_plus must be in [0, 1], got 2.0")),
    # several faults at once: visibility is checked first, then c, then w
    ("mc --w 2 --c 0", 3, "", _lines(
        "error: overlap c = 0.0 is singular: one observable is exact, "
        "the other carries no signal")),
    ("mc --w nan --c nan", 3, "", _lines(
        "error: overlap c = nan is singular: one observable is exact, "
        "the other carries no signal")),
    ("mc --w 2 --c 0 --visibility 2", 2, "",
     _lines("error: visibility must be in [0, 1], got 2.0")),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_golden_transcript(capsys, tmp_path, argv, code, out, err):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\nshots = 5000\nvisibility = 0.95\n")
    assert run(capsys, *argv.format(cfg=cfg).split()) == (code, out, err)


def run_exiting(capsys, *argv):
    """`run`, with an argparse exit (usage error or --help) as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """`main` reuses one parser per process; nothing carries from call to call."""

    POINT = ("mc", "--w", "0.6", "--c", "0.5", "--shots", "1000", "--seed", "3")

    def test_explicit_point_after_a_calibrated_one(self, capsys):
        alone = run(capsys, *self.POINT)
        assert alone[0] == 0 and "w_a_plus = 0.6  c = 0.5" in alone[1]
        assert run(capsys, "mc", "--plates", "10", "--root", "2", "--shots", "1000")[0] == 0
        assert run(capsys, *self.POINT) == alone

    def test_config_does_not_outlive_its_call(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n")
        point = ("mc", "--w", "0.8", "--c", "0.6", "--shots", "100")
        assert "seed = 7 " in run(capsys, "--config", str(cfg), *point)[1]
        assert f"seed = {cli.SETTINGS['seed']} " in run(capsys, *point)[1]

    @pytest.mark.parametrize("argv, code", [(("mc", "--bogus"), 2), (("state", "--help"), 0)],
                             ids=["usage-error", "help"])
    def test_argparse_exit_leaves_the_next_call_alone(self, capsys, argv, code):
        before = run(capsys, *self.POINT)
        exit_code, out, err = run_exiting(capsys, *argv)
        assert exit_code == code and "usage: simulmeas" in out + err
        assert run(capsys, *self.POINT) == before

    def test_golden_replayed_in_one_process(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nshots = 5000\nvisibility = 0.95\n")
        for argv, code, out, err in [*GOLDEN, *reversed(GOLDEN)]:
            assert run(capsys, *argv.format(cfg=cfg).split()) == (code, out, err), argv

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("argv, twin", [
    ("state --w -0 --c 0.5", "state --w 0 --c 0.5"),
    # the second amplitude is -sqrt(0); the twin differs in the sign only
    ("state --w 1 --sign - --c 0.5", "state --w 1 --sign + --c 0.5"),
    ("mc --w -0 --c 0.5 --visibility -0", "mc --w 0 --c 0.5 --visibility 0"),
    ("mc --w -0 --c 0.5 --visibility -0 --format json",
     "mc --w 0 --c 0.5 --visibility 0 --format json"),
])
def test_negative_zero_prints_as_zero(capsys, tmp_path, argv, twin):
    # each mc run appends its point to a file of its own
    results = []
    for name, case in (("negative", argv), ("twin", twin)):
        out = tmp_path / name
        flags = ["--out", str(out)] if case.startswith("mc") else []
        code, stdout, err = run(capsys, *case.split(), *flags)
        results.append((code, stdout.replace("sign = -", "sign = +"), err,
                        out.read_text() if out.exists() else None))
    assert results[0] == results[1]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(tmp_path, *args):
    """Run a fresh interpreter that finds the package in ``src``."""
    return subprocess.run([sys.executable, *args], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))


@pytest.mark.parametrize("module", ["simulmeas", "simulmeas.cli"])
def test_python_dash_m(tmp_path, module):
    argv = "calibrate --plates 10"
    proc = run_python(tmp_path, "-m", module, *argv.split())
    expected = next(out for case, _, out, _ in GOLDEN if case == argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_point_appended_to_a_pipe_has_the_header(tmp_path):
    # stdout is a pipe here, which has no size or position to read
    proc = run_python(tmp_path, "-m", "simulmeas", "mc", "--w", "0.5", "--c", "0.5",
                      "--shots", "10", "--out", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert ",".join(cli.MC_COLUMNS) in proc.stdout.splitlines()


def test_every_option_has_help_text():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in [("simulmeas", parser), *sub.choices.items()]:
        for action in p._actions:
            assert action.help or not action.option_strings, (name, action.option_strings)


def test_import_structure(tmp_path):
    # the package module loads no submodule, and the CLI never loads the
    # test-only reference
    proc = run_python(tmp_path, "-c", (
        "import sys\n"
        "import simulmeas\n"
        "print(sorted(m for m in sys.modules if m.startswith('simulmeas.')))\n"
        "import simulmeas.cli\n"
        "print('simulmeas.qmath' in sys.modules)\n"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nFalse\n", "")


def test_every_package_error_has_its_own_exit_code():
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.SimulmeasError)
               and cls is not errors.SimulmeasError}
    assert set(cli.EXIT_CODES) == classes
    codes = set(cli.EXIT_CODES.values())
    assert len(codes) == len(classes) and not codes & {cli.EXIT_OK, cli.EXIT_IO}


def _huge(n_digits=400):
    return "9" * n_digits


ADVERSARIAL = [
    *[["state", "--w", w, "--c", c] for w, c in (
        ("nan", "0.5"), ("inf", "0.5"), ("-0.5", "0.5"), ("0.5", "nan"), ("0.5", "inf"),
        ("0.5", "-0.5"), ("0.5", "1e-300"), ("0.5", "1e-160"), ("0", "1e-320"),
        ("1", "0.9999999999999999"))],
    ["state", "--w", "0.5", "--c", "0.5", "--sign=0"],
    *[["sweep", "--grid", g] for g in ("-1", "0", "1", _huge(), "nan")],
    ["sweep", "--grid", "1000000000000"],
    *[["calibrate", "--plates", p] for p in ("-3", "0", _huge(), "10000000000000000000000")],
    ["calibrate", "--plates", _huge(), "--index", "nan"],
    *[["calibrate", "--plates", "10", "--index", i] for i in ("nan", "inf", "-inf", "-1.5",
                                                                "1e200", "1e154", "1e100")],
    *[["mc", "--plates", "10", "--shots", "100", *extra] for extra in (
        ["--index", "inf"], ["--index", "nan"], ["--root", _huge()], ["--root", "-1"],
        ["--root", "0"], ["--seed", _huge()], ["--shots", _huge()], ["--shots", "-1"],
        ["--visibility", "nan"], ["--visibility", "inf"], ["--visibility", "-0.1"])],
    ["mc", "--plates", _huge(), "--shots", "100"],
    ["mc", "--plates", "10000000000000000000000", "--shots", "100"],
    ["mc", "--plates", "-1", "--shots", "100"],
    ["mc", "--plates", "200", "--shots", "1000"],
    *[["mc", "--w", w, "--c", c, "--shots", "100"] for w, c in (
        ("nan", "0.5"), ("inf", "0.5"), ("-1", "0.5"), ("1e300", "0.5"), ("0.5", "nan"),
        ("0.5", "inf"), ("0.5", "-1"), ("0.5", "1e-300"), ("0.5", "1e-160"), ("0", "0.5"),
        ("1", "0.5"), ("1", "1e-150"), ("0.999999", "1e-150"))],
    ["mc", "--w", "0.999999", "--c", "1e-150", "--shots", "1000000000000000000"],
    ["mc", "--w", "0.999999999999", "--c", "1e-150", "--shots", "100000000000000", "--seed", "1"],
    ["mc", "--w", "0.5", "--c", "0.5", "--seed", "-1"],
    ["mc", "--w", "0.5", "--c", "0.5", "--seed", _huge(), "--shots", "10"],
    ["mc", "--w", "0.5", "--c", "0.5", "--shots", "0"],
    ["mc", "--w", "0.5", "--c", "0.5", "--shots", _huge()],
    ["mc", "--w", "0.75", "--c", "0.7", "--root", "2", "--shots", "100", "--seed", "1"],
]


# the adversarial inputs that are valid but warn, and what they warn of
ADVERSARIAL_WARNINGS = {
    "state --w 1 --c 0.9999999999999999": (BOUNDARY,),
    "mc --plates 200 --shots 1000": (ROOT_COUNT, ZERO_MARGINAL),
    "mc --w 1 --c 1e-150 --shots 100": (ZERO_MARGINAL,),
    "mc --w 0.999999 --c 1e-150 --shots 100": (ZERO_MARGINAL,),
}


class TestAdversarialInputs:
    """Every input ends in a documented exit code with an error line, never a traceback."""

    DOCUMENTED = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_SINGULAR, cli.EXIT_INFEASIBLE,
                  cli.EXIT_IO}

    def check(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses what it cannot parse
            code = exc.code
        err = capsys.readouterr().err
        assert code in self.DOCUMENTED, (argv, code, err)
        assert "Traceback" not in err
        if code != cli.EXIT_OK:
            assert "error" in err
        return err

    @pytest.mark.parametrize("argv", ADVERSARIAL, ids=lambda argv: " ".join(argv)[:60])
    def test_flags(self, capsys, argv):
        err = self.check(capsys, argv)
        assert_warned(err, *ADVERSARIAL_WARNINGS.get(" ".join(argv), ()))

    def test_config_file_not_utf8(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 7\n\xff\n")
        code, _, err = run(capsys, "--config", str(cfg), "mc", "--w", "0.5", "--c", "0.5")
        assert code == cli.EXIT_USAGE
        assert err.startswith("error:") and str(cfg) in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["seed", "shots", "visibility", "index", "grid", "format"])
    @pytest.mark.parametrize("value", ["", "nan", "inf", "-1", _huge()])
    def test_config_values(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        for argv in (["sweep", "--grid", "3"] if key != "grid" else ["sweep"],
                     ["calibrate", "--plates", "10"],
                     ["mc", "--w", "0.8", "--c", "0.6", "--shots", "10"]
                     if key != "shots" else ["mc", "--w", "0.8", "--c", "0.6"],
                     ["mc", "--plates", "10"] if key == "shots" else
                     ["mc", "--plates", "10", "--shots", "10"]):
            self.check(capsys, ["--config", str(cfg), *argv])
