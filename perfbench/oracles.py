"""Independent oracles for the simulmeas CLI output.

Everything here is derived from the physics (closed forms in the stack
parameter and in (w, c, visibility)), never from the package: this module
must not import ``simulmeas``. Each ``check_*`` function takes one op's
parameters and its captured exit code, stdout, stderr and ``--out`` text and
returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

SWEEP_COLUMNS = ["w_a_plus", "delta_a", "delta_b", "c_opt",
                 "min_product", "max_product", "sharp_product"]
MC_COLUMNS = ["w_a_plus", "c_used", "shots", "seed", "visibility",
              "product_measured", "product_stderr", "product_analytic"]
CALIBRATE_HEADER = ["root", "alpha_rad", "c", "w_a_plus", "min_product", "residual"]

# numbers print with 12 significant digits, so a correct value may differ
# from the oracle's by half a unit in the 12th digit
RTOL_PRINTED = 1e-11
# the product statistic must lie within this many (conservative) standard
# errors of the visibility-aware closed form
Z_LIMIT = 6.0
# the program bisects the rotation angle to 1e-10
ALPHA_ATOL = 2e-10


def close(actual: float, expected: float, rtol: float = RTOL_PRINTED, atol: float = 0.0) -> bool:
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= atol + rtol * abs(expected)


# --------------------------------------------------------------------------
# closed forms

def sharp_deltas(w):
    """(delta_a, delta_b) of the equatorial state with A+ weight w."""
    w = np.asarray(w, dtype=float)
    return 2.0 * np.sqrt(np.maximum(w * (1.0 - w), 0.0)), np.abs(2.0 * w - 1.0)


def unsharp_deltas(da, db, c):
    return (math.sqrt(da * da + c * c / (1.0 - c * c)),
            math.sqrt(db * db + (1.0 - c * c) / (c * c)))


def marginals(w: float, c: float, visibility: float = 1.0) -> tuple[float, float]:
    """|B+ marginal - 1/2| and |M+ marginal - 1/2| of the measured pair.

    Object B outcome: 1/2 +- c*sqrt(w(1-w)); probe M outcome in the
    equal-angle basis: 1/2 +- sqrt(1-c^2)*(2w-1)/2. A visibility V mixes in a
    uniform background, which shrinks every deviation from 1/2 by V. The
    signs depend on the state's branch and never enter the product.
    """
    dx = visibility * c * math.sqrt(w * (1.0 - w))
    dy = visibility * math.sqrt(1.0 - c * c) * abs(2.0 * w - 1.0) / 2.0
    return dx, dy


def product_from_marginals(x: float, y: float, c: float) -> float:
    """Inferred product from the B+ marginal x and the M+ marginal y."""
    return (2.0 / c * math.sqrt(max(x * (1.0 - x), 0.0))
            * 2.0 / math.sqrt(1.0 - c * c) * math.sqrt(max(y * (1.0 - y), 0.0)))


def expected_product(w: float, c: float, shots: int, visibility: float) -> tuple[float, float]:
    """Visibility-aware product and a conservative standard error for ``shots``.

    The error bound adds the two marginals' delta-method terms in absolute
    value, which covers any correlation between them.
    """
    dx, dy = marginals(w, c, visibility)
    value = product_from_marginals(0.5 + dx, 0.5 + dy, c)
    # d(value)/dx = value*(1-2x)/(2x(1-x)), and x(1-x) = 1/4 - dx^2
    err = value * sum(d / math.sqrt(0.25 - d * d) for d in (dx, dy)) / math.sqrt(shots)
    return value, err


def estimate_from_counts(n_pp: int, n_pm: int, n_mp: int, n_mm: int, c: float) -> tuple[float, float]:
    """Product and delta-method standard error from raw coincidence counts."""
    n = n_pp + n_pm + n_mp + n_mm
    x = (n_pp + n_pm) / n
    y = (n_pp + n_mp) / n
    value = product_from_marginals(x, y, c)
    vx, vy = x * (1.0 - x), y * (1.0 - y)
    if vx <= 0.0 or vy <= 0.0:
        return value, 0.0
    gx = value * (1.0 - 2.0 * x) / (2.0 * vx)
    gy = value * (1.0 - 2.0 * y) / (2.0 * vy)
    cov = n_pp / n - x * y
    var = (gx * gx * vx + gy * gy * vy + 2.0 * gx * gy * cov) / n
    return value, math.sqrt(max(var, 0.0))


# --------------------------------------------------------------------------
# the Brewster stack

def plate_transmittance(index: float) -> float:
    return 4.0 * index * index / (1.0 + index * index) ** 2


def stack_parameters(plates: int, index: float) -> tuple[float, float, float]:
    """(t_s, k, a): t = t_s, k = (1-t^2)/(1+t^2) and a = 1-k^2 = 4t^2/(1+t^2)^2."""
    t = plate_transmittance(index) ** plates
    k = (1.0 - t * t) / (1.0 + t * t)
    a = 4.0 * t * t / (1.0 + t * t) ** 2
    return t, k, a


def family_at(alpha: float, k: float, a: float) -> dict:
    """Prepared (w, c) and derived quantities at rotation ``alpha``.

    The stack prepares delta_b = k*cos(2 alpha), w = (1 + delta_b)/2 and
    c = k*sin(2 alpha)/delta_a with delta_a^2 = a + k^2 sin^2(2 alpha).
    cos(2 alpha) is taken as 1 - 2 sin^2(alpha) near 0 and as sin(2 beta),
    beta = pi/4 - alpha, near pi/4, so both ends stay well conditioned.
    """
    if alpha <= math.pi / 8.0:
        cos2 = 1.0 - 2.0 * math.sin(alpha) ** 2
    else:
        cos2 = math.sin(2.0 * (math.pi / 4.0 - alpha))
    sin2 = math.sin(2.0 * alpha)
    db = k * cos2
    da = math.sqrt(a + (k * sin2) ** 2)
    c = k * sin2 / da
    c_opt = math.sqrt(da / (da + db))
    return {"w": 0.5 * (1.0 + db), "c": c, "delta_a": da, "delta_b": db,
            "min_product": 1.0 + da * db, "residual": abs(c - c_opt)}


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] with f(lo) < 0 < f(hi) or the reverse, to the last bit."""
    f_lo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if (f(mid) < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid


def calibration_roots(plates: int, index: float, grid: int = 4000) -> list[float]:
    """Rotation angles where the stack prepares the minimum-product state.

    The optimality condition c^2 = delta_a/(delta_a + delta_b) reduces to
    a*delta_a = (delta_a^2 - a)*delta_b. With u = k^2 - delta_b^2 (so
    delta_a^2 = a + u) it reads f = u*delta_b - a*sqrt(a + u) = 0, negative
    at both ends (delta_b = 0 and delta_b = k). Near delta_b = k the root is
    found in s = k - delta_b, where u = s*(2k - s); near delta_b = 0 in
    delta_b itself. Both are solved to the last bit, then mapped to alpha
    by asin, which keeps thick stacks' roots (alpha -> 0 and alpha -> pi/4)
    exact. Returns [] for an infeasible stack.
    """
    _, k, a = stack_parameters(plates, index)

    def f_s(s):  # delta_b = k - s
        u = s * (2.0 * k - s)
        return u * (k - s) - a * math.sqrt(a + u)

    def f_db(db):
        u = (k - db) * (k + db)
        return u * db - a * math.sqrt(a + u)

    s_grid = [k * (j + 0.5) / grid for j in range(grid)]
    positive = [s for s in s_grid if f_s(s) > 0.0]
    if not positive:
        # the positive region may be narrower than the grid: refine the peak
        best = max(s_grid, key=f_s)
        lo, hi = max(best - k / grid, 0.0), min(best + k / grid, k)
        for _ in range(200):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if f_s(m1) < f_s(m2):
                lo = m1
            else:
                hi = m2
        peak = 0.5 * (lo + hi)
        if f_s(peak) <= 0.0:
            return []
        positive = [peak]
    s_root = _bisect(f_s, 0.0, positive[0])
    db_root = _bisect(f_db, 0.0, k - positive[-1])
    alpha_small = math.asin(math.sqrt(s_root / (2.0 * k)))
    alpha_large = math.pi / 4.0 - 0.5 * math.asin(db_root / k)
    return [alpha_small, alpha_large]


# --------------------------------------------------------------------------
# line templates: literal text with numbers checked by tolerance

_NUM = r"([-+]?(?:inf|nan|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?))"


class Num:
    """A number in a template line, compared within rtol/atol; None only captures it."""

    def __init__(self, expected=None, rtol=RTOL_PRINTED, atol=0.0, name=None):
        self.expected, self.rtol, self.atol, self.name = expected, rtol, atol, name


def match_line(actual: str, parts, problems: list, what: str) -> dict:
    """Match one output line against literal strings and `Num` slots.

    Returns the captured numbers by slot name; appends a problem on a
    structural mismatch or an out-of-tolerance number.
    """
    pattern = "".join(_NUM if isinstance(p, Num) else re.escape(p) for p in parts)
    m = re.fullmatch(pattern, actual)
    if m is None:
        problems.append(f"{what}: line {actual!r} does not match the expected layout")
        return {}
    captured = {}
    slots = [p for p in parts if isinstance(p, Num)]
    for slot, text in zip(slots, m.groups()):
        value = float(text)
        if slot.name:
            captured[slot.name] = value
        if slot.expected is not None and not close(value, slot.expected, slot.rtol, slot.atol):
            problems.append(f"{what}: {text} differs from expected {slot.expected!r}")
    return captured


def _lines(text: str) -> list[str]:
    return text.split("\n")[:-1] if text.endswith("\n") else text.split("\n")


def _expect_exit(rc: int, expected: int, stderr: str, problems: list) -> bool:
    if rc != expected:
        tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
        problems.append(f"exit code {rc}, expected {expected} {tail}")
        return False
    if expected != 0 and "error" not in stderr:
        problems.append("non-zero exit without an error message on stderr")
    return True


# --------------------------------------------------------------------------
# sweep

def sweep_expected(grid: int, full_range: bool) -> tuple[np.ndarray, np.ndarray]:
    """Expected sweep table, one column per SWEEP_COLUMNS entry, and its rtol.

    max_product uses the independent form (da + db)/sqrt(da*db), which is
    1/(c sqrt(1-c^2)) at c = c_opt; it is infinite where c_opt reaches 0 or
    1. Near c_opt = 1 that value is ill conditioned: a few ulps of c_opt move
    it by d(ln P)/dc = c/(1-c^2) - 1/c each, which sets its tolerance.
    """
    lo = 0.0 if full_range else 0.5
    step = (1.0 - lo) / (grid - 1)
    w = lo + step * np.arange(grid)
    da, db = sharp_deltas(w)
    total = da + db
    prod = da * db
    with np.errstate(divide="ignore", invalid="ignore"):
        c_opt = np.sqrt(da / total)
        interior = (c_opt > 0.0) & (c_opt < 1.0)
        max_p = np.where(interior, total / np.sqrt(prod), np.inf)
        rtol_max = np.where(interior, 1e-9 + 4.4e-16 * (1.0 / c_opt + c_opt / (1.0 - c_opt ** 2)),
                            0.0)
    table = np.column_stack([w, da, db, c_opt, 1.0 + prod, max_p, prod])
    rtol = np.full(table.shape, RTOL_PRINTED)
    rtol[:, SWEEP_COLUMNS.index("max_product")] = rtol_max
    return table, rtol


def _compare_table(table: np.ndarray, expected: np.ndarray, rtol: np.ndarray, problems: list):
    if table.shape != expected.shape:
        problems.append(f"sweep table shape {table.shape}, expected {expected.shape}")
        return
    both_inf = np.isinf(table) & np.isinf(expected) & (np.sign(table) == np.sign(expected))
    with np.errstate(invalid="ignore"):
        ok = both_inf | (np.abs(table - expected) <= rtol * np.abs(expected))
    if not ok.all():
        row, col = np.argwhere(~ok)[0]
        problems.append(f"sweep row {row} {SWEEP_COLUMNS[col]} = {table[row, col]!r}, "
                        f"expected {expected[row, col]!r} ({int((~ok).sum())} cells differ)")


def parse_sweep_csv(text: str, problems: list) -> np.ndarray | None:
    lines = _lines(text)
    if len(lines) < 2 or not lines[0].startswith("# ") or lines[1] != ",".join(SWEEP_COLUMNS):
        problems.append("sweep CSV lacks the note line or the column header")
        return None
    body = lines[2:]
    try:
        values = np.array(",".join(body).split(","), dtype=float)
    except ValueError as exc:
        problems.append(f"sweep CSV has a non-numeric cell: {exc}")
        return None
    if values.size != len(body) * len(SWEEP_COLUMNS):
        problems.append("sweep CSV rows do not all have 7 cells")
        return None
    return values.reshape(len(body), len(SWEEP_COLUMNS))


def parse_sweep_json(text: str, problems: list) -> np.ndarray | None:
    try:
        doc = json.loads(text)
        rows = doc["rows"]
        if not isinstance(doc["note"], str) or any(list(r) != SWEEP_COLUMNS for r in rows):
            raise KeyError("columns")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"sweep JSON malformed: {exc!r}")
        return None
    # null marks a divergent value, which the table holds as inf
    table = np.array([[r[c] for c in SWEEP_COLUMNS] for r in rows], dtype=float)
    return np.where(np.isnan(table), np.inf, table).reshape(len(rows), len(SWEEP_COLUMNS))


def check_sweep(op: dict, rc: int, stdout: str, stderr: str, out_text: str | None) -> list:
    problems: list = []
    if not _expect_exit(rc, 0, stderr, problems):
        return problems
    text = out_text if op["out"] else stdout
    if op["out"] and stdout:
        problems.append("sweep with --out also wrote to stdout")
    if text is None:
        problems.append("sweep --out file missing")
        return problems
    parse = parse_sweep_json if op["format"] == "json" else parse_sweep_csv
    table = parse(text, problems)
    if table is not None:
        _compare_table(table, *sweep_expected(op["grid"], op["full_range"]), problems)
    return problems


# --------------------------------------------------------------------------
# state

def check_state(op: dict, rc: int, stdout: str, stderr: str, out_text: str | None) -> list:
    problems: list = []
    if not _expect_exit(rc, 0, stderr, problems):
        return problems
    w, c, sign = float(op["w"]), float(op["c"]), op["sign"]
    s = 1.0 if sign == "+" else -1.0
    da, db = (float(v) for v in sharp_deltas(w))
    dap, dbp = unsharp_deltas(da, db, c)
    c_opt = math.sqrt(da / (da + db))
    p_min = 1.0 + da * db
    coherence = math.sqrt(w * (1.0 - w))
    lines = _lines(stdout)
    if len(lines) != 8:
        return problems + [f"state printed {len(lines)} lines, expected 8"]

    # "[at optimum]" appears within 1e-3 of c_opt; exactly at the edge either is right
    gap = abs(c - c_opt)
    at_opt = "  [at optimum]" if gap <= 1e-3 else ""
    opt_line = lines[5]
    if abs(gap - 1e-3) < 1e-12:
        at_opt = "  [at optimum]" if opt_line.endswith("]") else ""

    # the brute-force scan searches linspace(1e-4, 1-1e-4, 1000) and refines;
    # it flags a boundary when the grid minimum is the first or last point
    grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    scan_line = lines[6]
    if grid[1] <= c_opt <= grid[-2]:
        boundary = ""
    elif c_opt < grid[0] or c_opt > grid[-1]:
        boundary = " (boundary)"
    else:
        boundary = " (boundary)" if scan_line.endswith(")") else ""
    c_best = min(max(c_opt, grid[0]), grid[-1])
    du, dv = unsharp_deltas(da, db, c_best)

    match_line(lines[0], ["equatorial state: w_a_plus = ", Num(w), f", sign = {sign}"],
               problems, "state line 1")
    match_line(lines[1], ["amplitudes: [", Num(math.sqrt(w)), ", ", Num(s * math.sqrt(1.0 - w)),
                          "]"], problems, "state line 2")
    match_line(lines[2], ["sharp probabilities: A -> (", Num(w), ", ", Num(1.0 - w),
                          ")   B -> (", Num(0.5 + s * coherence), ", ",
                          Num(0.5 - s * coherence, atol=1e-15), ")"],
               problems, "state line 3")
    match_line(lines[3], ["sharp uncertainties: delta_a = ", Num(da), "  delta_b = ", Num(db),
                          "  product = ", Num(da * db)], problems, "state line 4")
    match_line(lines[4], ["unsharp at c = ", Num(c), ": delta_a' = ", Num(dap),
                          "  delta_b' = ", Num(dbp), "  product = ", Num(dap * dbp)],
               problems, "state line 5")
    match_line(opt_line, ["closed-form optimum: c_opt = ", Num(c_opt), "  min_product = ",
                          Num(p_min), at_opt], problems, "state line 6")
    match_line(scan_line, ["numeric scan: c_best = ", Num(c_best, rtol=0.0, atol=1e-6),
                           "  product_best = ", Num(du * dv, rtol=1e-6 if boundary else 1e-9),
                           boundary],
               problems, "state line 7")
    match_line(lines[7], ["max product at c = ", Num(c), ": ",
                          Num(1.0 / (c * math.sqrt(1.0 - c * c)))], problems, "state line 8")
    if (c < 0.01 or c > 0.99) and "warning" not in stderr:
        problems.append("no warning for an overlap near a singular boundary")
    return problems


# --------------------------------------------------------------------------
# calibrate

class CalibrationOracle:
    """Caches the exact roots per (plates, index) for the calibration checks."""

    def __init__(self):
        self._roots: dict = {}

    def roots(self, plates: int, index: float) -> list[float]:
        key = (plates, index)
        if key not in self._roots:
            self._roots[key] = calibration_roots(plates, index)
        return self._roots[key]

    def check_calibrate(self, op: dict, rc: int, stdout: str, stderr: str,
                        out_text: str | None) -> list:
        problems: list = []
        plates, index = op["plates"], float(op["index"])
        roots = self.roots(plates, index)
        t, k, a = stack_parameters(plates, index)
        if not _expect_exit(rc, 0 if roots else 4, stderr, problems):
            return problems
        lines = _lines(stdout)
        if not lines:
            return problems + ["calibrate printed nothing"]
        match_line(lines[0], [f"plates = {plates}  index = ", Num(index), "  t_s = ", Num(t)],
                   problems, "calibrate header")
        if not roots:
            if len(lines) != 1:
                problems.append("infeasible calibrate printed a root table")
            return problems
        if len(lines) < 2 or lines[1].split() != CALIBRATE_HEADER:
            return problems + ["calibrate table header missing"]
        rows = lines[2:]
        if len(rows) != len(roots):
            return problems + [f"calibrate found {len(rows)} roots, expected {len(roots)} "
                               f"at {[f'{r:.12g}' for r in roots]}"]
        for j, (row, root) in enumerate(zip(rows, roots), start=1):
            cells = row.split()
            if len(cells) != 6 or cells[0] != str(j):
                problems.append(f"calibrate row {j} malformed: {row!r}")
                continue
            alpha = float(cells[1])
            if not close(alpha, root, rtol=1e-9, atol=ALPHA_ATOL):
                problems.append(f"calibrate root {j} alpha = {alpha!r}, expected {root!r}")
                continue
            fam = family_at(alpha, k, a)
            for name, text, rtol, atol in (("c", cells[2], 1e-9, 0.0),
                                           ("w", cells[3], 1e-9, 0.0),
                                           ("min_product", cells[4], 1e-9, 0.0),
                                           ("residual", cells[5], 0.0, 1e-9)):
                if not close(float(text), fam[name], rtol, atol):
                    problems.append(f"calibrate root {j} {name} = {text}, expected {fam[name]!r}")
        return problems

    def check_mc_plates(self, op: dict, rc: int, stdout: str, stderr: str,
                        out_text: str | None) -> list:
        plates, index, root = op["plates"], float(op["index"]), op["root"]
        roots = self.roots(plates, index)
        expected_rc = 0 if len(roots) >= root else (4 if not roots else 2)
        problems: list = []
        if not _expect_exit(rc, expected_rc, stderr, problems) or expected_rc != 0:
            return problems
        _, k, a = stack_parameters(plates, index)
        return check_mc_output(op, stdout, out_text, problems,
                               root_band(roots[root - 1], k, a))


def root_band(root: float, k: float, a: float) -> dict:
    """(value, allowed error) of the prepared quantities at a calibration root.

    The program may place the root anywhere within ALPHA_ATOL, so each
    quantity may move by as much as it does over that interval.
    """
    fams = [family_at(root + d, k, a) for d in (-ALPHA_ATOL, 0.0, ALPHA_ATOL)]
    band = {}
    for name in ("w", "c", "min_product"):
        values = [f[name] for f in fams]
        band[name] = (values[1], max(values) - min(values) + RTOL_PRINTED * abs(values[1]))
    products = [math.prod(unsharp_deltas(f["delta_a"], f["delta_b"], f["c"])) for f in fams]
    band["product"] = (products[1], max(products) - min(products)
                       + RTOL_PRINTED * products[1])
    return band


# --------------------------------------------------------------------------
# mc

def point_band(w: float, c: float) -> dict:
    """(value, allowed error) of the quantities of an explicit (w, c) setting."""
    da, db = (float(v) for v in sharp_deltas(w))
    product = math.prod(unsharp_deltas(da, db, c))
    return {"w": (w, 0.0), "c": (c, 0.0), "min_product": (1.0 + da * db, 0.0),
            "product": (product, 0.0)}


def check_mc_output(op: dict, stdout: str, out_text: str | None, problems: list,
                    band: dict) -> list:
    shots, seed, vis = op["shots"], op["seed"], float(op["visibility"])
    w, c = band["w"][0], band["c"][0]

    def slot(name, key=None):
        value, atol = band[key or name]
        return Num(value, atol=atol, name=name)

    lines = _lines(stdout)
    if len(lines) != 4:
        return problems + [f"mc printed {len(lines)} lines, expected 4"]
    setting = match_line(lines[0], ["setting: w_a_plus = ", slot("w"), "  c = ", slot("c"),
                                    f"  shots = {shots}  seed = {seed}  visibility = ",
                                    Num(vis)], problems, "mc setting")
    counts = match_line(lines[1], ["counts: (B+,M+) ", Num(name="pp"), "  (B+,M-) ", Num(name="pm"),
                                   "  (B-,M+) ", Num(name="mp"), "  (B-,M-) ", Num(name="mm")],
                        problems, "mc counts")
    measured = match_line(lines[2], ["measured product = ", Num(name="value"), "  stderr = ",
                                     Num(name="stderr")], problems, "mc measured")
    match_line(lines[3], ["analytic product = ", slot("analytic", "product"),
                          "  minimum possible = ", slot("min_product")], problems, "mc analytic")
    if len(counts) != 4 or len(measured) != 2 or len(setting) != 2:
        return problems
    n = [int(counts[key]) for key in ("pp", "pm", "mp", "mm")]
    if min(n) < 0 or sum(n) != shots:
        return problems + [f"counts {n} do not sum to {shots} shots"]
    # the reported estimate is the reduction of the reported counts; the
    # product moves with c by d(ln P)/dc = c/(1-c^2) - 1/c, so the program's
    # own c, known to within the band, sets the tolerance ...
    value, err = estimate_from_counts(*n, c)
    c_err = band["c"][1] + RTOL_PRINTED * c
    rtol = 1e-10 + c_err * (1.0 / c + c / (1.0 - c * c))
    if not close(measured["value"], value, rtol=rtol):
        problems.append(f"measured product {measured['value']!r} is not the reduction "
                        f"of the counts ({value!r})")
    if not close(measured["stderr"], err, rtol=1e-6 + rtol, atol=1e-15):
        problems.append(f"stderr {measured['stderr']!r} is not the delta-method error ({err!r})")
    # ... and the counts are consistent with the visibility-aware closed form
    mean, sigma = expected_product(w, c, shots, vis)
    if abs(measured["value"] - mean) > Z_LIMIT * sigma + 1e-12 * mean:
        problems.append(f"measured product {measured['value']!r} is more than {Z_LIMIT:g} "
                        f"standard errors ({sigma:.3g}) from {mean!r}")
    if op["out"]:
        _check_mc_append(op, lines, out_text, problems)
    return problems


def _check_mc_append(op: dict, lines: list, out_text: str | None, problems: list):
    # the appended record repeats the printed numbers: same 12-digit
    # rendering in CSV, full precision in JSON
    words = lines[0].split() + lines[2].split() + lines[3].split()
    printed = {"w_a_plus": words[3], "c_used": words[6], "shots": words[9], "seed": words[12],
               "visibility": words[15], "product_measured": words[19],
               "product_stderr": words[22], "product_analytic": words[26]}
    appended = _lines(out_text or "")
    if op["format"] == "json":
        if len(appended) != 1:
            problems.append(f"mc --out appended {len(appended)} JSON lines, expected 1")
            return
        try:
            record = json.loads(appended[0])
        except ValueError:
            problems.append("mc --out JSON line does not parse")
            return
        if list(record) != MC_COLUMNS:
            problems.append(f"mc --out JSON keys {list(record)}")
            return
        for key in MC_COLUMNS:
            if not close(float(record[key]), float(printed[key])):
                problems.append(f"mc --out {key} = {record[key]!r}, printed {printed[key]}")
        return
    if op["fresh_out"]:
        if not appended or appended[0] != ",".join(MC_COLUMNS):
            problems.append("new mc CSV file lacks its header")
            return
        appended = appended[1:]
    if appended != [",".join(printed[key] for key in MC_COLUMNS)]:
        problems.append(f"mc --out CSV appended {appended!r}")


def check_mc(op: dict, rc: int, stdout: str, stderr: str, out_text: str | None) -> list:
    problems: list = []
    if not _expect_exit(rc, 0, stderr, problems):
        return problems
    return check_mc_output(op, stdout, out_text, problems,
                           point_band(float(op["w"]), float(op["c"])))
