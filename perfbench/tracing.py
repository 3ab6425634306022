"""Spans around the package's public functions, installed from outside.

`Tracer.installed()` replaces every public function of ``qmath``,
``protocol``, ``experiment`` and ``cli`` with a wrapper that records a span
(name, start, end, parent span, op id) and restores the originals on exit.
The package calls across modules through module attributes
(``protocol.decompose``, ``experiment.calibrate_alpha``), and within a
module through its globals, which are the same attributes, so every call
passes a wrapper.

`cli.sweep_row` runs once per sweep row. Timing it, and the closed forms it
calls, would add several timer reads per row, so inside it calls are only
counted: their time stays in the caller's span, `cli.sweep_rows`.

Spans are kept in flat arrays and written out once, by `save`; `metrics`
turns them into per-op self times and counts per layer.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array

import numpy as np

# layer group of each public function; every qmath function is one group,
# and other names missing here fall into "<module>.other"
GROUPS = {
    "cli.sweep_rows": "cli.sweep_rows",
    "cli.render_sweep_csv": "cli.render",
    "cli.render_sweep_json": "cli.render",
    "cli.sweep_row": "cli.sweep_row",
    **{f"protocol.{n}": "protocol.closed_form" for n in (
        "sharp_probabilities", "sharp_deltas", "sharp_uncertainties", "unsharp_deltas",
        "unsharp_product", "min_product", "max_product", "rescaled_eigenvalues",
        "inferred_means", "make_equatorial")},
    **{f"protocol.{n}": "protocol.amplitude" for n in (
        "observable_pair", "entangle", "decompose", "probe_basis", "probe_basis_for_overlap",
        "joint_probabilities", "direct_unsharp_deltas", "unsharp_uncertainties")},
    "protocol.numeric_c_scan": "protocol.scan",
    # the optics are the inside of prepare
    **{f"experiment.{n}": "experiment.prepare" for n in (
        "prepare", "singlet", "polarizer_operator", "plate_transmittance")},
    "experiment.calibrate_alpha": "experiment.calibrate",
    "experiment.sample_coincidences": "experiment.sample",
    **{f"experiment.sample_coincidences.{size}": f"experiment.sample.{size}"
       for size in ("small", "mid", "large")},
    "experiment.report_from_probabilities": "experiment.estimate",
    "experiment.estimate_report": "experiment.estimate",
    "experiment.run_setting": "experiment.run",
    "experiment.run_state_setting": "experiment.run",
}
# main and every other cli function not named above (parsing, config, the
# cmd_* printers) is the front end's own time
CLI_DEFAULT = "cli.main"
COUNT_ONLY = {"cli.sweep_row"}
SMALL_SHOTS, LARGE_SHOTS = 10_000, 1_000_000
OP = "op"


def group_of(name: str) -> str:
    if name in GROUPS:
        return GROUPS[name]
    module = name.split(".")[0]
    return {"cli": CLI_DEFAULT, "qmath": "qmath"}.get(module, f"{module}.other")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric: most are per op, sampling is per call."""
    if metric.startswith("experiment.sample."):
        return "ms/call"
    for suffix, unit in ((".self_ms", "ms/op"), (".calls", "count/op"), (".bytes", "bytes/op")):
        if metric.endswith(suffix):
            return unit
    return "1"


def public_functions(module) -> list[str]:
    """Names of the functions a module defines and does not mark private."""
    return sorted(name for name, obj in vars(module).items()
                  if isinstance(obj, types.FunctionType) and not name.startswith("_")
                  and obj.__module__ == module.__name__)


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.start, self.end = array("q"), array("q")
        self.parent, self.name, self.op = array("q"), array("q"), array("q")
        self.stack = [-1]
        self.quiet = [0]
        self.op_id = [-1]
        self.roots_found = 0
        self.calibrate_prepares = 0
        self.calibrate_calls = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    # -- spans

    def open(self, nid: int) -> int:
        idx = len(self.end)
        self.end.append(0)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.op.append(self.op_id[0])
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Root span of one CLI invocation as the harness sees it."""
        self.op_id[0] = op_id
        idx = self.open(self.name_id(OP))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers

    def _wrap(self, qualname: str, fn):
        nid = self.name_id(qualname)
        calls, quiet, open_, close = self.calls, self.quiet, self.open, self.close

        if qualname in COUNT_ONLY:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                calls[nid] += 1
                quiet[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    quiet[0] -= 1
            return count_only

        if qualname == "experiment.sample_coincidences":
            # split sampling by shot count: its cost should not depend on it
            ids = {size: self.name_id(f"{qualname}.{size}") for size in ("small", "mid", "large")}

            @functools.wraps(fn)
            def sample(*args, **kwargs):
                calls[nid] += 1
                shots = args[1] if len(args) > 1 else kwargs["shots"]
                size = ("small" if shots <= SMALL_SHOTS else
                        "large" if shots >= LARGE_SHOTS else "mid")
                calls[ids[size]] += 1
                idx = open_(ids[size])
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
            return sample

        if qualname == "experiment.calibrate_alpha":
            prepare_id = self.name_id("experiment.prepare")

            @functools.wraps(fn)
            def calibrate(*args, **kwargs):
                calls[nid] += 1
                before = calls[prepare_id]
                idx = open_(nid)
                try:
                    roots = fn(*args, **kwargs)
                finally:
                    close(idx)
                    self.calibrate_calls += 1
                    self.calibrate_prepares += calls[prepare_id] - before
                self.roots_found += len(roots)
                return roots
            return calibrate

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[nid] += 1
            if quiet[0]:
                return fn(*args, **kwargs)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return timed

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every public function of ``modules``; restore them on exit."""
        originals = []
        try:
            for module in modules:
                short = module.__name__.rsplit(".", 1)[-1]
                for name in public_functions(module):
                    fn = getattr(module, name)
                    originals.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{short}.{name}", fn))
            yield self
        finally:
            for module, name, fn in reversed(originals):
                setattr(module, name, fn)

    # -- results

    def arrays(self) -> dict:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("start", "end", "parent", "name", "op")}

    def save(self, path: str, op_kinds: list[str]):
        np.savez_compressed(path, names=np.array(self.names), op_kinds=np.array(op_kinds), **self.arrays())

    def metrics(self, n_ops: int, out_bytes: int, untraced_s: float) -> dict:
        """Per-layer metrics per op; sampling self time per call.

        A span's self time is its duration minus its children's durations.
        """
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        groups = sorted({group_of(n) for n in self.names})
        group_ids = np.array([groups.index(group_of(n)) for n in self.names], dtype=np.int64)
        self_ns = np.bincount(group_ids[a["name"]], weights=dur - child, minlength=len(groups))
        self_ms = {g: float(v) / 1e6 for g, v in zip(groups, self_ns)}
        calls: dict[str, int] = {}
        for name, count in zip(self.names, self.calls):
            calls[group_of(name)] = calls.get(group_of(name), 0) + count

        def per_op(value):
            return value / n_ops

        def per_call(group):
            return self_ms[group] / calls[group] if calls.get(group) else 0.0

        is_op = a["name"] == self._ids[OP]
        op_ns = float(dur[is_op].sum())
        m = {"cli.out.bytes": per_op(out_bytes)}
        for group in ("cli.main", "cli.sweep_rows", "cli.render", "protocol.closed_form",
                      "protocol.amplitude", "protocol.scan", "qmath", "experiment.prepare",
                      "experiment.calibrate", "experiment.estimate", "experiment.run"):
            m[f"{group}.self_ms"] = per_op(self_ms.get(group, 0.0))
        for group in ("cli.sweep_row", "protocol.closed_form", "protocol.amplitude",
                      "protocol.scan", "qmath"):
            m[f"{group}.calls"] = per_op(calls.get(group, 0))
        m["experiment.prepare.calls"] = per_op(
            self.calls[self._ids["experiment.prepare"]] if "experiment.prepare" in self._ids
            else 0)
        # useful outcomes over attempts; a calibration that needs no prepare
        # call counts as one attempt
        m["experiment.calibrate.roots_per_prepare"] = (
            self.roots_found / max(self.calibrate_prepares, self.calibrate_calls)
            if self.calibrate_calls else 0.0)
        for size in ("small", "large"):
            m[f"experiment.sample.{size}.self_ms"] = per_call(f"experiment.sample.{size}")
        m["trace.overhead_frac"] = op_ns / 1e9 / untraced_s - 1.0
        m["trace.coverage_frac"] = float(child[is_op].sum()) / op_ns if op_ns else 0.0
        return m
