"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into public sphereacs functions by wrappers
defined here and installed from outside the package (module attributes and
class methods are swapped for wrappers and restored afterwards); the package
itself is not modified.  Each span has a name, start, end, parent span, the id
of the CLI command it belongs to, and two per-name attributes:

    n  rows for batched functions, the gauge degree for objective
       evaluations, the evaluations used for a Nelder-Mead call
    x  the value of an objective evaluation, the budget of a Nelder-Mead call

A span is recorded only while a command is open, so checks that call library
code between commands leave no trace.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# Commands of the CLI, in the order the per-layer metrics list them.
COMMANDS = (
    "audit.curvature",
    "audit.gray",
    "audit.splitting",
    "audit.components",
    "audit.ricci-star",
    "nijenhuis.s2",
    "nijenhuis.s6-octonion",
    "nijenhuis.product",
    "nijenhuis.gauged",
    "search.s2xs4",
)

DEGREES = (0, 1, 2)

IDENTITIES = ("gray_combination", "splitting_defect", "ricci_star_bilinear", "component_audit")

# Every per-layer metric, with its unit, in output order.
PER_LAYER_METRICS: dict[str, str] = {
    "search.gauge_rotations.calls": "count",
    "search.gauge_rotations.rows": "count",
    "search.gauge_rotations.s": "s",
    "search.objective.evals": "count",
    "search.objective.s": "s",
    **{f"search.objective.ms_p50.deg{d}": "ms" for d in DEGREES},
    "search.objective.ms_p99": "ms",
    "search.nelder_mead.self_s": "s",
    "search.restarts.budget_exhausted_frac": "1",
    "search.objective.improving_frac": "1",
    "search.splitting_pressure_probe.s": "s",
    "search.floor_energy": "1",
    "fields.nijenhuis_batch.calls": "count",
    "fields.nijenhuis_batch.rows": "count",
    "fields.nijenhuis_batch.self_s": "s",
    "fields.base_field.rows": "count",
    "fields.base_field.s": "s",
    "fields.sample_tangent_pairs.s": "s",
    "fields.validity_check.s": "s",
    "octonion.cross7_matrices.rows": "count",
    "octonion.cross7_matrices.s": "s",
    "manifold.product_curvature.calls": "count",
    "manifold.product_curvature.s": "s",
    "manifold.symmetry_audit.s": "s",
    **{f"identities.{name}.{kind}": unit for name in IDENTITIES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "acs.random_structures.calls": "count",
    "acs.random_structures.s": "s",
    "acs.validate_acs.calls": "count",
    "acs.validate_acs.s": "s",
    "acs.acs_from_text.s": "s",
    "sampling.chart_safe_points.s": "s",
    "sampling.load_points.s": "s",
    **{f"cli.{command}.s": "s" for command in COMMANDS},
    "cli.report_format.s": "s",
    "cli.report.bytes": "bytes",
    "bench.trace_overhead_s": "s",
    "bench.failed_frac": "1",
}


class Tracer:
    """Spans kept in compact parallel arrays until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.command = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")
        self.x = array("d")
        self._stack: list[int] = []
        self.current_command = -1
        self._restore: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.command.append(self.current_command)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.n.append(0)
        self.x.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_command(self, command_id: int, name: str) -> int:
        self.current_command = command_id
        return self.open(self.intern(name))

    def end_command(self, idx: int) -> None:
        self.close(idx)
        self.current_command = -1

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, n_of=None, x_of=None):
        """A traced copy of ``fn``; ``n_of``/``x_of`` map (args, result) to
        the span's n and x attributes."""
        name_id = self.intern(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current_command < 0:
                return fn(*args, **kwargs)
            idx = tracer.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if n_of is not None:
                tracer.n[idx] = n_of(args, kwargs, out)
            if x_of is not None:
                tracer.x[idx] = x_of(args, kwargs, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, original, wrapper) -> None:
        """Point every sphereacs module attribute bound to ``original`` at
        ``wrapper``, including names imported into other modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sphereacs" or mod_name.startswith("sphereacs.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries listed in the benchmark README."""
        from sphereacs import acs, cli, fields, identities, manifold, octonion, sampling, search

        def rows(i):
            return lambda args, kwargs, out: np.shape(args[i])[0] if np.ndim(args[i]) > 1 else 1

        def fn(module, attr, name, **kw):
            original = getattr(module, attr)
            self.replace_function(original, self.wrap(original, name, **kw))

        def method(cls, attr, name, **kw):
            self._set(cls, attr, self.wrap(getattr(cls, attr), name, **kw))

        method(search.GaugeParametrization, "gauge_rotations", "search.gauge_rotations", n_of=rows(2))
        fn(search, "nelder_mead", "search.nelder_mead",
           n_of=lambda a, k, out: out[2],
           x_of=lambda a, k, out: k.get("budget", a[2] if len(a) > 2 else 0))
        fn(search, "splitting_pressure_probe", "search.splitting_pressure_probe")

        make_objective = search.make_energy_objective

        def make_energy_objective(parametrization, *args, **kwargs):
            objective = make_objective(parametrization, *args, **kwargs)
            degree = parametrization.degree
            return self.wrap(objective, "search.objective",
                             n_of=lambda a, k, out: degree, x_of=lambda a, k, out: out)

        self.replace_function(make_objective, make_energy_objective)

        product_field = fields.product_acs_field

        def product_acs_field(*args, **kwargs):
            jf = product_field(*args, **kwargs)
            return fields.ACSField(
                jf.manifold, self.wrap(jf.fn, "fields.base_field", n_of=rows(0)), jf.name
            )

        self.replace_function(product_field, product_acs_field)
        fn(fields, "nijenhuis_batch", "fields.nijenhuis_batch", n_of=rows(3))
        fn(fields, "sample_tangent_pairs", "fields.sample_tangent_pairs")
        fn(fields, "acs_field_validity_check", "fields.validity_check")
        fn(octonion, "cross7_matrices", "octonion.cross7_matrices", n_of=rows(0))

        method(manifold.CurvatureOracle, "product_curvature", "manifold.product_curvature")
        method(manifold.CurvatureOracle, "symmetry_audit", "manifold.symmetry_audit")

        for attr in ("gray_combination", "splitting_defect", "ricci_star_bilinear"):
            fn(identities, attr, f"identities.{attr}")
        fn(identities, "ricci_star_component_audit", "identities.component_audit")

        fn(acs, "random_orthogonal_acs", "acs.random_structures")
        fn(acs, "random_block_diagonal_acs", "acs.random_structures")
        fn(acs, "validate_acs", "acs.validate_acs")
        fn(acs, "acs_from_text", "acs.acs_from_text")

        fn(sampling, "chart_safe_points", "sampling.chart_safe_points")
        fn(sampling, "load_points", "sampling.load_points")

        for attr in ("rows_to_csv", "rows_to_records", "rows_to_table"):
            fn(cli, attr, "cli.report_format")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            command=np.frombuffer(self.command, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            n=np.frombuffer(self.n, dtype=np.int64).copy(),
            x=np.frombuffer(self.x, dtype=np.float64).copy(),
        )


@dataclass
class Spans:
    names: list[str]
    name: np.ndarray
    command: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    n: np.ndarray
    x: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - covered

    def save(self, path) -> None:
        np.savez(
            path, names=np.array(self.names), name=self.name, command=self.command,
            parent=self.parent, start=self.start, end=self.end, n=self.n, x=self.x,
        )


def _improving_frac(spans: Spans, objective: np.ndarray, nelder: np.ndarray) -> float:
    """Share of Nelder-Mead evaluations, after each restart's first, that
    lower that restart's best value so far."""
    inside = objective & nelder[np.maximum(spans.parent, 0)] & (spans.parent >= 0)
    best: dict[int, float] = {}
    improving = counted = 0
    for parent, value in zip(spans.parent[inside], spans.x[inside]):
        parent = int(parent)
        if parent in best:
            counted += 1
            if value < best[parent]:
                improving += 1
                best[parent] = value
        else:
            best[parent] = value
    return improving / counted if counted else 0.0


def layer_metrics(spans: Spans, commands: set[int]) -> dict[str, float]:
    """Per-layer metrics over the spans of the given command ids; metrics
    owned by the runner (report bytes, floor, overhead, failures) are left
    out."""
    in_round = np.isin(spans.command, list(commands))
    dur = spans.duration
    self_t = spans.self_time()
    ids = {name: i for i, name in enumerate(spans.names)}

    def mask(name: str) -> np.ndarray:
        return in_round & (spans.name == ids.get(name, -1))

    out: dict[str, float] = {}

    def put(prefix: str, name: str, *kinds: str) -> None:
        m = mask(name)
        for kind in kinds:
            if kind == "calls":
                out[f"{prefix}.calls"] = int(np.sum(m))
            elif kind == "rows":
                out[f"{prefix}.rows"] = int(np.sum(spans.n[m]))
            elif kind == "s":
                out[f"{prefix}.s"] = float(np.sum(dur[m]))
            elif kind == "self_s":
                out[f"{prefix}.self_s"] = float(np.sum(self_t[m]))

    put("search.gauge_rotations", "search.gauge_rotations", "calls", "rows", "s")
    objective = mask("search.objective")
    out["search.objective.evals"] = int(np.sum(objective))
    out["search.objective.s"] = float(np.sum(dur[objective]))
    for d in DEGREES:
        sel = dur[objective & (spans.n == d)]
        out[f"search.objective.ms_p50.deg{d}"] = float(np.median(sel) * 1e3) if sel.size else 0.0
    sel = dur[objective]
    out["search.objective.ms_p99"] = float(np.percentile(sel, 99) * 1e3) if sel.size else 0.0
    nelder = mask("search.nelder_mead")
    out["search.nelder_mead.self_s"] = float(np.sum(self_t[nelder]))
    out["search.restarts.budget_exhausted_frac"] = (
        float(np.mean(spans.n[nelder] >= spans.x[nelder])) if np.any(nelder) else 0.0
    )
    out["search.objective.improving_frac"] = _improving_frac(spans, objective, nelder)
    put("search.splitting_pressure_probe", "search.splitting_pressure_probe", "s")

    put("fields.nijenhuis_batch", "fields.nijenhuis_batch", "calls", "rows", "self_s")
    put("fields.base_field", "fields.base_field", "rows", "s")
    put("fields.sample_tangent_pairs", "fields.sample_tangent_pairs", "s")
    put("fields.validity_check", "fields.validity_check", "s")
    put("octonion.cross7_matrices", "octonion.cross7_matrices", "rows", "s")

    put("manifold.product_curvature", "manifold.product_curvature", "calls", "s")
    put("manifold.symmetry_audit", "manifold.symmetry_audit", "s")
    for name in IDENTITIES:
        put(f"identities.{name}", f"identities.{name}", "calls", "self_s")

    put("acs.random_structures", "acs.random_structures", "calls", "s")
    put("acs.validate_acs", "acs.validate_acs", "calls", "s")
    put("acs.acs_from_text", "acs.acs_from_text", "s")
    put("sampling.chart_safe_points", "sampling.chart_safe_points", "s")
    put("sampling.load_points", "sampling.load_points", "s")
    for command in COMMANDS:
        put(f"cli.{command}", f"cli.{command}", "s")
    put("cli.report_format", "cli.report_format", "s")
    return out
