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

In a long-lived process, `main` builds its parser on the first call and
reuses it; nothing carries from one call to the next. `build_parser`
returns a new parser on each call, and a shell call pays for one import and
one parser build as before.

Exit codes: 0 success, 2 usage error, 3 singular rescaling, 4 infeasible
calibration, 5 I/O error; each package error prints as ``error: <message>``
and exits with its class's code in `EXIT_CODES`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import experiment, protocol
from .errors import (CalibrationInfeasibleError, RescalingSingularError, SimulmeasError,
                     UsageError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_INFEASIBLE = 4
EXIT_IO = 5
# the exit code of each package error class
EXIT_CODES = {UsageError: EXIT_USAGE, RescalingSingularError: EXIT_SINGULAR,
              CalibrationInfeasibleError: EXIT_INFEASIBLE}

SWEEP_COLUMNS = ["w_a_plus", "delta_a", "delta_b", "c_opt",
                 "min_product", "max_product", "sharp_product"]
MC_COLUMNS = ["w_a_plus", "c_used", "shots", "seed", "visibility",
              "product_measured", "product_stderr", "product_analytic"]
SWEEP_NOTE = ("products are symmetric about w_a_plus = 0.5; "
              "max_product diverges where c_opt reaches 0 or 1")

# largest sweep grid: ten times the largest sweep perfbench runs. A sweep is
# written in blocks of rows, so memory does not bound it (10^6 JSON rows
# peak at about 43 MB resident); time does: 10^6 JSON rows take 6-8 s on a
# shared 2-CPU host.
MAX_GRID = 10 ** 6

# the settings a config file may pin, and their defaults; a file value is
# parsed with its default's type
SETTINGS = {"seed": 20251, "shots": 100_000, "visibility": 1.0,
            "index": experiment.DEFAULT_REFRACTIVE_INDEX, "grid": 201, "format": "csv"}
_FORMATS = ("csv", "json")


def _fmt(x) -> str:
    """12-significant-digit, locale-independent rendering; -0 prints as 0."""
    return format(x + 0.0, ".12g") if isinstance(x, float) else str(x)


def _json_value(x):
    if isinstance(x, float):
        return x + 0.0 if math.isfinite(x) else None
    return x


# --------------------------------------------------------------------------
# configuration

def load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, a leading BOM is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
        if key not in SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = type(SETTINGS[key])(val)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from exc
    if "format" in values and values["format"] not in _FORMATS:
        raise UsageError(f"{path}: format must be 'csv' or 'json'")
    return values


def merge_config(args: argparse.Namespace) -> None:
    """Fill each setting a flag left at None from the config file, else its default."""
    pinned = load_config_file(args.config) if args.config else {}
    for key, default in SETTINGS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, pinned.get(key, default))


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


# rows computed and written per block: a block's cells and text are all a
# sweep holds in memory at a time
_CHUNK_ROWS = 4096


def _json_cells(column: np.ndarray) -> list:
    """The column as Python floats, with "null" where a value is not finite."""
    cells = column.tolist()
    for k in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[k] = "null"
    return cells


# per format: the head, the row template, the separator between rows, the
# tail, and the cells of one column. The JSON row is the layout
# json.dumps(indent=2) gives it; %s renders a float as its shortest repr, as
# json does
_SWEEP_LAYOUTS = {
    "csv": (f"# {SWEEP_NOTE}\n{','.join(SWEEP_COLUMNS)}\n",
            ",".join(["%.12g"] * len(SWEEP_COLUMNS)) + "\n", "", "", np.ndarray.tolist),
    "json": ('{\n  "note": ' + json.dumps(SWEEP_NOTE) + ',\n  "rows": [\n',
             "    {\n%s\n    }" % ",\n".join(f'      "{col}": %s' for col in SWEEP_COLUMNS),
             ",\n", "\n  ]\n}\n", _json_cells),
}


def write_sweep(w: np.ndarray, fmt: str, out) -> None:
    """Write the sweep over the w_a_plus values ``w`` to ``out`` as ``fmt``.

    CSV is a note, the header and one 12-digit row per w; JSON is the bytes
    of ``json.dumps({"note", "rows"}, indent=2)``. Rows are computed and
    written `_CHUNK_ROWS` at a time; each value has the bits the whole array
    would give, as the closed forms act element by element.
    """
    head, row, sep, tail, cells_of = _SWEEP_LAYOUTS[fmt]
    out.write(head)
    for lo in range(0, len(w), _CHUNK_ROWS):
        columns = sweep_columns(w[lo:lo + _CHUNK_ROWS])
        cells = (cells_of(columns[col]) for col in SWEEP_COLUMNS)
        out.write((sep if lo else "") + sep.join(map(row.__mod__, zip(*cells))))
    out.write(tail)


def _append_point(path: str | None, fmt: str, row: tuple):
    """Append the values ``row``, in `MC_COLUMNS` order, as a CSV row or a JSON line."""
    if path is None:
        return
    with open(path, "a", encoding="utf-8", newline="") as fh:
        if fmt == "json":
            fh.write(json.dumps(dict(zip(MC_COLUMNS, map(_json_value, row)))) + "\n")
            return
        # a pipe has no earlier rows, so it gets the header too
        if not fh.seekable() or fh.tell() == 0:
            fh.write(",".join(MC_COLUMNS) + "\n")
        fh.write(",".join(map(_fmt, row)) + "\n")


# --------------------------------------------------------------------------
# subcommands

def cmd_state(args) -> int:
    w, sign = args.w, +1 if args.sign == "+" else -1
    delta_a, delta_b = protocol.sharp_deltas(w)
    p_b = 0.5 + 0.5 * sign * delta_a  # P(B+) = (1 + y)/2, y = sign * delta_a
    da_prime, db_prime = protocol.unsharp_deltas(delta_a, delta_b, args.c)
    value, c_opt = protocol.min_product(delta_a, delta_b)
    c_best, product_best, boundary = protocol.numeric_c_scan(delta_a, delta_b)

    print(f"equatorial state: w_a_plus = {_fmt(w)}, sign = {args.sign}")
    print(f"amplitudes: [{_fmt(math.sqrt(w))}, {_fmt(sign * math.sqrt(1.0 - w))}]")
    print(f"sharp probabilities: A -> ({_fmt(w)}, {_fmt(1.0 - w)})   "
          f"B -> ({_fmt(p_b)}, {_fmt(1.0 - p_b)})")
    print(f"sharp uncertainties: delta_a = {_fmt(delta_a)}  delta_b = {_fmt(delta_b)}  "
          f"product = {_fmt(delta_a * delta_b)}")
    print(f"unsharp at c = {_fmt(args.c)}: delta_a' = {_fmt(da_prime)}  "
          f"delta_b' = {_fmt(db_prime)}  product = {_fmt(da_prime * db_prime)}")
    at_opt = "  [at optimum]" if abs(args.c - c_opt) <= 1e-3 else ""
    print(f"closed-form optimum: c_opt = {_fmt(c_opt)}  min_product = {_fmt(value)}{at_opt}")
    flag = " (boundary)" if boundary else ""
    print(f"numeric scan: c_best = {_fmt(c_best)}  product_best = {_fmt(product_best)}{flag}")
    print(f"max product at c = {_fmt(args.c)}: {_fmt(protocol.max_product(args.c))}")
    if args.c < 0.01 or args.c > 0.99:
        warnings.warn("c is near a singular boundary; one rescaled eigenvalue is very large")
    return EXIT_OK


def cmd_sweep(args) -> int:
    w = _sweep_grid(args.grid, args.full_range)
    if args.out is None:
        write_sweep(w, args.format, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_sweep(w, args.format, fh)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    t_s = experiment.stack_transmittance(args.plates, args.index)
    print(f"plates = {args.plates}  index = {_fmt(args.index)}  t_s = {_fmt(t_s)}")
    roots = experiment.calibrate_alpha(args.plates, args.index)
    print("root  alpha_rad         c                 w_a_plus          "
          "min_product       residual")
    for k, alpha in enumerate(roots, start=1):
        x, y, c = experiment.prepare(t_s, alpha)
        value, c_opt = protocol.min_product(abs(y), abs(x))
        print(f"{k:<5d} {_fmt(alpha):<18s}{_fmt(c):<18s}{_fmt(0.5 * (1.0 + x)):<18s}"
              f"{_fmt(value):<18s}{_fmt(abs(c - c_opt))}")
    return EXIT_OK


def cmd_mc(args) -> int:
    if args.seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {args.seed}")
    if not 1 <= args.shots <= experiment.MAX_SHOTS:
        raise UsageError(f"shots must be in 1..{experiment.MAX_SHOTS}, got {args.shots}")
    if (args.plates is not None or args.root is not None) and (
            args.w is not None or args.c is not None):
        raise UsageError("give either --plates/--root or --w/--c, not both")
    if args.plates is not None:
        # a calibrated stack leaves visibility and c to run_setting
        root = 1 if args.root is None else args.root
        t_s = experiment.stack_transmittance(args.plates, args.index)
        roots = experiment.calibrate_alpha(args.plates, args.index)
        if not 1 <= root <= len(roots):
            raise UsageError(f"--root must be in 1..{len(roots)} for {args.plates} plates")
        x, y, c = experiment.prepare(t_s, roots[root - 1])
        w = 0.5 * (1.0 + x)
    elif args.w is None or args.c is None:
        raise UsageError("mc needs either --plates (with --root) or both --w and --c")
    else:
        # an explicit point checks visibility and c first, as w comes after them
        if not 0.0 <= args.visibility <= 1.0:
            raise UsageError(f"visibility must be in [0, 1], got {args.visibility}")
        protocol.probe_noise(args.c)
        w, c = args.w, args.c
        y, _ = protocol.sharp_deltas(w)
        x = 2.0 * w - 1.0
    counts, product, stderr = experiment.run_setting(x, y, c, args.shots, args.seed,
                                                     args.visibility)

    delta_a, delta_b = abs(y), abs(x)
    analytic = protocol.unsharp_product(delta_a, delta_b, c)
    floor, _ = protocol.min_product(delta_a, delta_b)
    print(f"setting: w_a_plus = {_fmt(w)}  c = {_fmt(c)}  shots = {args.shots}  "
          f"seed = {args.seed}  visibility = {_fmt(args.visibility)}")
    print(f"counts: (B+,M+) {counts.n_pp}  (B+,M-) {counts.n_pm}  "
          f"(B-,M+) {counts.n_mp}  (B-,M-) {counts.n_mm}")
    print(f"measured product = {_fmt(product)}  stderr = {_fmt(stderr)}")
    print(f"analytic product = {_fmt(analytic)}  minimum possible = {_fmt(floor)}")
    _append_point(args.out, args.format,
                  (w, c, args.shots, args.seed, args.visibility, product, stderr, analytic))
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
    p_state.add_argument("--sign", choices=["+", "-"], default="+",
                         help="sign of the |A-> amplitude (default +)")
    p_state.add_argument("--c", type=float, required=True, help="probe overlap in (0, 1)")
    p_state.set_defaults(func=cmd_state)

    p_sweep = sub.add_parser("sweep", help="emit product curves over w_a_plus")
    p_sweep.add_argument("--grid", type=int, default=None,
                         help=f"number of rows (default {SETTINGS['grid']})")
    p_sweep.add_argument("--full-range", action="store_true",
                         help="sweep w in [0, 1] instead of [0.5, 1]")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=_FORMATS, default=None,
                         help=f"output format (default {SETTINGS['format']})")
    p_sweep.set_defaults(func=cmd_sweep)

    index_help = f"glass refractive index (default {SETTINGS['index']})"
    p_cal = sub.add_parser("calibrate", help="find optimal polarizer rotations")
    p_cal.add_argument("--plates", type=int, required=True, help="glass plate count")
    p_cal.add_argument("--index", type=float, default=None, help=index_help)
    p_cal.set_defaults(func=cmd_calibrate)

    p_mc = sub.add_parser("mc", help="Monte Carlo coincidence run of one setting")
    p_mc.add_argument("--plates", type=int, default=None, help="glass plate count to calibrate")
    p_mc.add_argument("--root", type=int, default=None,
                      help="which calibrated rotation of --plates to use (1 or 2, default 1)")
    p_mc.add_argument("--w", type=float, default=None, help="explicit w_a_plus")
    p_mc.add_argument("--c", type=float, default=None, help="explicit overlap")
    p_mc.add_argument("--shots", type=int, default=None,
                      help=f"coincidences to sample (default {SETTINGS['shots']})")
    p_mc.add_argument("--seed", type=int, default=None,
                      help=f"sampler seed (default {SETTINGS['seed']})")
    p_mc.add_argument("--visibility", type=float, default=None,
                      help=f"state visibility in [0, 1] (default {SETTINGS['visibility']})")
    p_mc.add_argument("--index", type=float, default=None, help=index_help)
    p_mc.add_argument("--out", default=None, help="append the measured point here")
    p_mc.add_argument("--format", choices=_FORMATS, default=None,
                      help=f"format of the --out file (default {SETTINGS['format']})")
    p_mc.set_defaults(func=cmd_mc)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


# the parser `main` builds on its first call and reuses: building it costs
# more than most ops, and parse_args carries nothing from call to call
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # a warning is a diagnostic line for the shell user, printed as it is
    # raised and without the source location Python's default adds
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        try:
            merge_config(args)
            return args.func(args)
        except SimulmeasError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CODES[type(exc)]
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
