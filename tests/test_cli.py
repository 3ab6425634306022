import json
import math

import pytest

from simulmeas import cli
from simulmeas.cli import main, sweep_row, sweep_rows


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

    def test_singular_overlap_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "state", "--w", "0.3", "--c", "0")
        assert code == cli.EXIT_SINGULAR
        assert "singular" in err

    def test_bad_probability_is_usage_error(self, capsys):
        code, _, err = run(capsys, "state", "--w", "1.5", "--c", "0.5")
        assert code == cli.EXIT_USAGE
        assert "error" in err


class TestSweepRows:
    def test_endpoint_rows(self):
        row = sweep_row(1.0)
        assert row.min_product == pytest.approx(1.0)
        assert row.sharp_product == pytest.approx(0.0)
        assert math.isinf(row.max_product)

    def test_symmetric_row(self):
        row = sweep_row((2 + math.sqrt(2)) / 4)
        assert row.min_product == pytest.approx(1.5, abs=1e-12)
        assert row.max_product == pytest.approx(2.0, abs=1e-12)

    def test_row_invariant(self):
        for w in (0.5, 0.62, 0.85, 0.99, 1.0):
            row = sweep_row(w)
            assert row.min_product == pytest.approx(1 + row.sharp_product, abs=1e-12)

    def test_min_product_continuity(self):
        # the sharp product has a square-root cusp at w = 1 where its slope
        # diverges, so a uniform per-step bound cannot hold there; check the
        # analytic modulus of continuity everywhere and the tight bound away
        # from the cusp
        step = 0.5 / 199
        rows = sweep_rows([0.5 + step * i for i in range(200)])
        for prev, cur in zip(rows, rows[1:]):
            delta = abs(cur.min_product - prev.min_product)
            envelope = 2 * step + 2 * math.sqrt(2) * (
                math.sqrt(1 - prev.w_a_plus) - math.sqrt(max(1 - cur.w_a_plus, 0.0)))
            assert delta <= envelope + 1e-9
            if cur.w_a_plus <= 0.95:
                assert delta < 0.01

    def test_rejects_unordered_grid(self):
        with pytest.raises(Exception):
            sweep_rows([0.6, 0.5])


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

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--out", str(tmp_path / "no" / "dir.csv"))
        assert code == cli.EXIT_IO
        assert "i/o" in err


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

    @pytest.mark.parametrize("argv", [
        ["--w", "0.5", "--c", "0.9", "--shots", "1000", "--seed", "9"],
        ["--plates", "24", "--index", "1.55", "--root", "1", "--shots", "1000", "--seed", "2"],
    ])
    def test_sampled_product_below_floor_is_reported(self, capsys, argv):
        # these draws clamp a sampled sharp uncertainty at 0, which puts the
        # estimate below 1 + delta_a*delta_b; that is noise, not a usage error
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

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sede = 7\n")
        code, _, err = run(capsys, "--config", str(cfg), "sweep", "--grid", "3")
        assert code == cli.EXIT_USAGE
        assert "unknown config key" in err
