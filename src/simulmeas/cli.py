"""Command-line front end: state reports, sweeps, calibration, Monte Carlo.

Subcommands
-----------
state      protocol quantities for one equatorial state at a given overlap
sweep      minimum/maximum/sharp product curves over w_a_plus, as CSV or JSON
calibrate  rotation angles where a plate stack reaches the minimum product
mc         seeded coincidence-counting simulation of one setting

All output is deterministic for a fixed configuration (including the seed).
CSV numbers carry 12 significant digits; divergent values (the maximum
product at the sweep endpoints) print as ``inf`` in CSV and ``null`` in
JSON. A key-value config file can pin defaults; explicit flags win. Every
subcommand reads and validates it, even one that uses none of its keys.

Warnings a subcommand raises print as ``warning: <message>`` lines on stderr.

Exit codes: 0 success, 2 usage error, 3 singular rescaling, 4 infeasible
calibration, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import experiment, protocol
from .errors import CalibrationInfeasibleError, RescalingSingularError, UsageError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_INFEASIBLE = 4
EXIT_IO = 5

SWEEP_COLUMNS = ["w_a_plus", "delta_a", "delta_b", "c_opt",
                 "min_product", "max_product", "sharp_product"]
MC_COLUMNS = ["w_a_plus", "c_used", "shots", "seed", "visibility",
              "product_measured", "product_stderr", "product_analytic"]
SWEEP_NOTE = ("products are symmetric about w_a_plus = 0.5; "
              "max_product diverges where c_opt reaches 0 or 1")

# the multinomial sampler draws int64 counts
MAX_SHOTS = 2 ** 63 - 1
# largest sweep grid: ten times the largest sweep perfbench runs; rendering
# JSON peaks at about 0.75 kB of memory a row (a 100 001-row JSON sweep
# peaks at 105 MB resident, 29 MB of it the interpreter and numpy)
MAX_GRID = 10 ** 6

_CONFIG_KEYS = {"seed": int, "shots": int, "visibility": float,
                "index": float, "grid": int, "format": str}


def _fmt(x) -> str:
    """12-significant-digit, locale-independent rendering."""
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _json_value(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


# --------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    seed: int = 20251
    shots: int = experiment.DEFAULT_SHOTS
    visibility: float = 1.0
    index: float = experiment.DEFAULT_REFRACTIVE_INDEX
    grid: int = 201
    format: str = "csv"
    out: str | None = None


def load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not a UTF-8 text file ({exc})") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from exc
    if "format" in values and values["format"] not in ("csv", "json"):
        raise UsageError(f"{path}: format must be 'csv' or 'json'")
    return values


def merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, val in load_config_file(args.config).items():
            setattr(cfg, key, val)
    for key in ("seed", "shots", "visibility", "index", "grid", "format", "out"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


# --------------------------------------------------------------------------
# sweep columns

def sweep_columns(w: np.ndarray) -> dict:
    """The sweep's `SWEEP_COLUMNS` as arrays over the w_a_plus values ``w``."""
    delta_a, delta_b = protocol.sharp_deltas(w)
    value, c_opt = protocol.min_product(delta_a, delta_b)
    # the maximum product diverges where c_opt reaches 0 or 1
    interior = (c_opt > 0.0) & (c_opt < 1.0)
    max_p = np.full_like(c_opt, math.inf)
    max_p[interior] = protocol.max_product(c_opt[interior])
    return dict(zip(SWEEP_COLUMNS, (w, delta_a, delta_b, c_opt, value, max_p,
                                    delta_a * delta_b)))


def _sweep_grid(grid: int, full_range: bool) -> np.ndarray:
    if not 2 <= grid <= MAX_GRID:
        raise UsageError(f"grid must be in 2..{MAX_GRID}, got {grid}")
    lo = 0.0 if full_range else 0.5
    step = (1.0 - lo) / (grid - 1)
    return lo + step * np.arange(grid)


_CSV_HEAD = f"# {SWEEP_NOTE}\n{','.join(SWEEP_COLUMNS)}\n"
_CSV_ROW = ",".join(["%.12g"] * len(SWEEP_COLUMNS)) + "\n"
_JSON_DOC = '{\n  "note": ' + json.dumps(SWEEP_NOTE) + ',\n  "rows": [\n%s\n  ]\n}\n'
# the layout json.dumps(indent=2) gives each row; %s renders a float as its
# shortest repr, as json does
_JSON_ROW = "    {\n%s\n    }" % ",\n".join(f'      "{col}": %s' for col in SWEEP_COLUMNS)


def render_sweep_csv(columns: dict) -> str:
    """The sweep as CSV: a note, the header and one 12-digit row per w."""
    cells = (columns[col].tolist() for col in SWEEP_COLUMNS)
    # list() before join, so the cell values are freed before the text is built
    return _CSV_HEAD + "".join(list(map(_CSV_ROW.__mod__, zip(*cells))))


def _json_cells(column: np.ndarray) -> list:
    """The column as Python floats, with "null" where a value is not finite."""
    cells = column.tolist()
    for k in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[k] = "null"
    return cells


def render_sweep_json(columns: dict) -> str:
    """The sweep as the bytes of ``json.dumps({"note", "rows"}, indent=2)``."""
    cells = (_json_cells(columns[col]) for col in SWEEP_COLUMNS)
    return _JSON_DOC % ",\n".join(list(map(_JSON_ROW.__mod__, zip(*cells))))


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _append_point(path: str | None, fmt: str, point: dict):
    if path is None:
        return
    if fmt == "json":
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps({col: _json_value(point[col]) for col in MC_COLUMNS}) + "\n")
        return
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        if fresh:
            fh.write(",".join(MC_COLUMNS) + "\n")
        fh.write(",".join(_fmt(point[col]) for col in MC_COLUMNS) + "\n")


# --------------------------------------------------------------------------
# subcommands

def cmd_state(args, cfg: RunConfig) -> int:
    sign = +1 if args.sign == "+" else -1
    s = protocol.make_equatorial(args.w, sign)
    pa = protocol.sharp_probabilities(s, "A")
    pb = protocol.sharp_probabilities(s, "B")
    delta_a, delta_b = protocol.sharp_deltas(s.w_a_plus)
    da_prime, db_prime = protocol.unsharp_deltas(delta_a, delta_b, args.c)
    value, c_opt = protocol.min_product(delta_a, delta_b)
    scan = protocol.numeric_c_scan(s)

    print(f"equatorial state: w_a_plus = {_fmt(s.w_a_plus)}, sign = {args.sign}")
    print(f"amplitudes: [{_fmt(s.amplitudes[0])}, {_fmt(s.amplitudes[1])}]")
    print(f"sharp probabilities: A -> ({_fmt(pa[0])}, {_fmt(pa[1])})   "
          f"B -> ({_fmt(pb[0])}, {_fmt(pb[1])})")
    print(f"sharp uncertainties: delta_a = {_fmt(delta_a)}  delta_b = {_fmt(delta_b)}  "
          f"product = {_fmt(delta_a * delta_b)}")
    print(f"unsharp at c = {_fmt(args.c)}: delta_a' = {_fmt(da_prime)}  "
          f"delta_b' = {_fmt(db_prime)}  product = {_fmt(da_prime * db_prime)}")
    at_opt = "  [at optimum]" if abs(args.c - c_opt) <= 1e-3 else ""
    print(f"closed-form optimum: c_opt = {_fmt(c_opt)}  min_product = {_fmt(value)}{at_opt}")
    flag = " (boundary)" if scan.boundary else ""
    print(f"numeric scan: c_best = {_fmt(scan.c_best)}  "
          f"product_best = {_fmt(scan.product_best)}{flag}")
    print(f"max product at c = {_fmt(args.c)}: {_fmt(protocol.max_product(args.c))}")
    if args.c < 0.01 or args.c > 0.99:
        print("warning: c is near a singular boundary; one rescaled eigenvalue is very large",
              file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args, cfg: RunConfig) -> int:
    columns = sweep_columns(_sweep_grid(cfg.grid, args.full_range))
    text = render_sweep_json(columns) if cfg.format == "json" else render_sweep_csv(columns)
    _write_text(cfg.out, text)
    return EXIT_OK


def cmd_calibrate(args, cfg: RunConfig) -> int:
    t_s = experiment.stack_transmittance(args.plates, cfg.index)
    print(f"plates = {args.plates}  index = {_fmt(cfg.index)}  t_s = {_fmt(t_s)}")
    roots = experiment.calibrate_alpha(args.plates, cfg.index)
    print("root  alpha_rad         c                 w_a_plus          "
          "min_product       residual")
    for k, alpha in enumerate(roots, start=1):
        st = experiment.prepare(t_s, alpha)
        value, c_opt = protocol.min_product(st.delta_a, st.delta_b)
        print(f"{k:<5d} {_fmt(alpha):<18s}{_fmt(st.c):<18s}{_fmt(st.w_a_plus):<18s}"
              f"{_fmt(value):<18s}{_fmt(abs(st.c - c_opt))}")
    return EXIT_OK


def _resolve_mc_setting(args, cfg: RunConfig) -> tuple[float, float, float, float]:
    """(w, c, x, y) of the setting to sample: a calibrated stack or an explicit point."""
    if (args.plates is not None or args.root is not None) and (
            args.w is not None or args.c is not None):
        raise UsageError("give either --plates/--root or --w/--c, not both")
    if args.plates is not None:
        root = 1 if args.root is None else args.root
        t_s = experiment.stack_transmittance(args.plates, cfg.index)
        roots = experiment.calibrate_alpha(args.plates, cfg.index)
        if not 1 <= root <= len(roots):
            raise UsageError(f"--root must be in 1..{len(roots)} for {args.plates} plates")
        st = experiment.prepare(t_s, roots[root - 1])
        return st.w_a_plus, st.c, st.x, st.y
    if args.w is None or args.c is None:
        raise UsageError("mc needs either --plates (with --root) or both --w and --c")
    delta_a, _ = protocol.sharp_deltas(args.w)
    return args.w, args.c, 2.0 * args.w - 1.0, delta_a


def cmd_mc(args, cfg: RunConfig) -> int:
    if cfg.seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {cfg.seed}")
    if not 1 <= cfg.shots <= MAX_SHOTS:
        raise UsageError(f"shots must be in 1..{MAX_SHOTS}, got {cfg.shots}")
    w, c, x, y = _resolve_mc_setting(args, cfg)
    # checked in a fixed order, visibility, c, w, so an input with several
    # faults always gets the same exit code
    if not 0.0 <= cfg.visibility <= 1.0:
        raise UsageError(f"visibility must be in [0, 1], got {cfg.visibility}")
    protocol.probe_noise(c)
    protocol.make_equatorial(w)
    counts, report = experiment.run_setting(x, y, c, cfg.shots, cfg.seed, cfg.visibility)

    delta_a, delta_b = abs(y), abs(x)
    analytic = protocol.unsharp_product(delta_a, delta_b, c)
    print(f"setting: w_a_plus = {_fmt(w)}  c = {_fmt(c)}  shots = {cfg.shots}  "
          f"seed = {cfg.seed}  visibility = {_fmt(cfg.visibility)}")
    print(f"counts: (B+,M+) {counts.n_pp}  (B+,M-) {counts.n_pm}  "
          f"(B-,M+) {counts.n_mp}  (B-,M-) {counts.n_mm}")
    print(f"measured product = {_fmt(report.product_simultaneous)}  "
          f"stderr = {_fmt(report.product_stderr)}")
    print(f"analytic product = {_fmt(analytic)}  "
          f"minimum possible = {_fmt(1.0 + delta_a * delta_b)}")
    _append_point(cfg.out, cfg.format, {
        "w_a_plus": w, "c_used": c, "shots": cfg.shots, "seed": cfg.seed,
        "visibility": cfg.visibility,
        "product_measured": report.product_simultaneous,
        "product_stderr": report.product_stderr,
        "product_analytic": analytic,
    })
    return EXIT_OK


# --------------------------------------------------------------------------
# parser and entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulmeas",
        description="Simultaneous unsharp measurement of complementary qubit "
                    "observables: protocol math, polarizer calibration, and "
                    "Monte Carlo coincidence counting.")
    parser.add_argument("--config", help="key-value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="report one equatorial state")
    p_state.add_argument("--w", type=float, required=True, help="w_a_plus in [0, 1]")
    p_state.add_argument("--sign", choices=["+", "-"], default="+")
    p_state.add_argument("--c", type=float, required=True, help="probe overlap in (0, 1)")
    p_state.set_defaults(func=cmd_state)

    p_sweep = sub.add_parser("sweep", help="emit product curves over w_a_plus")
    p_sweep.add_argument("--grid", type=int, default=None, help="number of rows (default 201)")
    p_sweep.add_argument("--full-range", action="store_true",
                         help="sweep w in [0, 1] instead of [0.5, 1]")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=["csv", "json"], default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="find optimal polarizer rotations")
    p_cal.add_argument("--plates", type=int, required=True, help="glass plate count")
    p_cal.add_argument("--index", type=float, default=None,
                       help="glass refractive index (default 1.5)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_mc = sub.add_parser("mc", help="Monte Carlo coincidence run of one setting")
    p_mc.add_argument("--plates", type=int, default=None)
    p_mc.add_argument("--root", type=int, default=None,
                      help="which calibrated rotation of --plates to use (1 or 2, default 1)")
    p_mc.add_argument("--w", type=float, default=None, help="explicit w_a_plus")
    p_mc.add_argument("--c", type=float, default=None, help="explicit overlap")
    p_mc.add_argument("--shots", type=int, default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--visibility", type=float, default=None)
    p_mc.add_argument("--index", type=float, default=None)
    p_mc.add_argument("--out", default=None, help="append the measured point here")
    p_mc.add_argument("--format", choices=["csv", "json"], default=None)
    p_mc.set_defaults(func=cmd_mc)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning is a diagnostic line for the shell user, printed as it is
    # raised and without the source location Python's default adds
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        try:
            return args.func(args, merge_config(args))
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except RescalingSingularError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SINGULAR
        except CalibrationInfeasibleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(f"diagnostic: margin k^2 - k_min^2 = {exc.margin:+.7f}; this plate count "
                  f"calibrates above index n* = {exc.threshold_index:.7f}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
