"""Command-line surface: configuration parsing, per-command default
manifolds, dispatch to library audits, field runs and searches, and the
report writers.

Commands
--------
    audit     {curvature | gray | splitting | components | ricci-star}
    nijenhuis {s2 | s6-octonion | product | gauged}
    search    {s2xs4 | s6}

One table, ``COMMANDS``, keyed by ``(command, target)``, gives each command
its default manifold, whether it runs on that manifold's factor dimensions
only (``fixed_dims``), and its runner; the parser and the dispatch read it.
Each audit suite is one library function returning an ``AuditReport``
(``report.py`` holds the only row type): the curvature symmetries live on
``manifold.CurvatureOracle``, the gray, components and ricci-star suites in
``identities`` and the splitting suite in ``search``.  Field runs and
searches record their per-point norms and per-restart energies as value
rows of the same report type.

Every run prints a human-readable table on stdout and writes a
machine-readable report (``FORMATS``: csv, the default, or records; 17
significant digits) plus a manifest to the output directory.  Exit codes:
0 = completed and every asserted check passed, 1 = an asserted check
failed, 2 = usage or configuration error or a non-finite computed value
(say, from a curvature of 1e308), named by its row.  Recorded-only
mismatches (the component audit on factor-mixing structures) never affect
the exit code.

Configuration file: flat ``key = value`` lines, ``#`` comments, and one
``factor = dim=<int> curvature=<float>`` line per sphere factor.  Unknown
keys are errors.  Example::

    # S2 x S4 obstruction search
    factor = dim=2 curvature=1.0
    factor = dim=4 curvature=1.0
    seed = 7
    points = 100
    restarts = 20
    budget = 2000
    degrees = 0,1,2
    format = csv

The keys are the fields of ``RunConfig``, each parsed by the field's type
(``factors`` is given as the ``factor`` lines): seed, samples, points,
frame_pairs, restarts, budget, generators, degrees (a non-empty list of
distinct gauge degrees >= 0), init_scale, chart_margin (both positive and
finite), swap_probe, restriction_check, format, out, acs_file and
points_file.  A config file without a ``factor`` line is an error; without a
config file each command runs on its default manifold.  A ``fixed_dims``
command takes only that manifold's factor dimensions (any curvatures), and
``nijenhuis gauged`` takes exactly one degree.  The
environment variable SPHEREACS_CONFIG_DIR may point to a directory searched
for bare config file names.

The manifest ``<command>_<target>_manifest.json`` records the package
version, the command and target, the run's config (every ``RunConfig``
field but ``out``, with ``factors`` those of the manifold that ran), the
report's row counts and the wall-clock time.

``search --baseline PATH`` also writes the experiment's floor baseline as
JSON: the grid configuration, the cell minima, every restart's energy and
evaluation count, the floor and the disclaimer.  The committed
``baselines/s2xs4_floor.json`` is regenerated with

    sphereacs search s2xs4 --config baselines/s2xs4_floor.cfg \
        --baseline baselines/s2xs4_floor.json

File formats referenced by config keys:

* ``acs_file`` (components suite): plain-text row-major square matrix with a
  header line holding total_dim, then one whitespace-separated row per line;
  numbers at 17 significant digits round-trip doubles exactly.
* ``points_file`` (nijenhuis commands): one sample point per line as
  whitespace-separated ambient coordinates (sum of dim+1 per factor); each
  factor block must lie on its unit sphere to 1e-6, and 4-sphere blocks must
  keep ``chart_margin`` from the chart's bad set, as generated points do.

Non-finite numbers (nan, inf) in a factor curvature, an ``acs_file`` or a
``points_file`` are usage errors (exit code 2), and so is a config file,
``acs_file`` or ``points_file`` that is not UTF-8 text.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, get_type_hints
from pathlib import Path

import numpy as np

from . import __version__
from .acs import acs_from_text
from .config import TOL
from .errors import ConfigError, ContractViolation, DegenerateInput, InvalidManifold, SearchError
from .fields import (
    acs_field_validity_check,
    default_acs_field,
    nijenhuis_norms,
    second_factor_restriction_check,
)
from .identities import (
    component_audit_suite,
    gray_cancellation_audit,
    ricci_star_exchange_audit,
)
from .manifold import CurvatureOracle, ProductManifold, SphereFactor
from .report import AuditReport, Check
from .sampling import chart_safe_mask, chart_safe_points, load_points, read_text
from .search import (
    ExperimentConfig,
    GaugeParametrization,
    energy_floor_experiment,
    splitting_audit,
)

FORMATS = ("csv", "records")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; the fields are the config keys (module docstring)."""

    factors: tuple[tuple[int, float], ...] = ()
    seed: int = 7
    samples: int = 500
    points: int = 60
    frame_pairs: int = 2
    restarts: int = 3
    budget: int = 300
    generators: int = 4
    degrees: tuple[int, ...] = (0,)
    init_scale: float = 0.5
    chart_margin: float = 0.05
    swap_probe: bool = False
    restriction_check: bool = False
    format: str = "csv"
    out: str = "runs"
    # optional file inputs: a serialised structure matrix for the components
    # suite, and a plain-text sample-point list for the field commands
    acs_file: str = ""
    points_file: str = ""

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # counts stay below 2**31 so that array sizes built from them fit
        for name in ("samples", "points", "frame_pairs", "restarts", "budget"):
            if not 1 <= getattr(self, name) < 2**31:
                raise ConfigError(f"{name} must be >= 1 and < 2**31")
        for name in ("init_scale", "chart_margin"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not 0 <= self.generators < 2**31:
            raise ConfigError("generators must be >= 0 and < 2**31")
        if not self.degrees or min(self.degrees) < 0:
            raise ConfigError("degrees must list at least one gauge degree, each >= 0")
        if len(set(self.degrees)) != len(self.degrees):
            raise ConfigError("degrees must not repeat a gauge degree")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}")

    def manifold(self, default_factors: tuple[tuple[int, float], ...]) -> ProductManifold:
        factors = self.factors or default_factors
        return ProductManifold(tuple(SphereFactor(d, k) for d, k in factors))


def _parse_factor(value: str) -> tuple[int, float]:
    dim = curvature = None
    for token in value.split():
        key, _, raw = token.partition("=")
        if key == "dim":
            dim = int(raw)
        elif key == "curvature":
            curvature = float(raw)
        else:
            raise ConfigError(f"unknown factor attribute {key!r}")
    if dim is None or curvature is None:
        raise ConfigError(f"factor needs dim=<int> curvature=<float>, got {value!r}")
    return dim, curvature


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


# one value parser per config key, picked by the RunConfig field's type
_PARSERS = {int: int, float: float, bool: _parse_bool, str: str, tuple[int, ...]: _parse_ints}
_KEY_PARSERS = {
    name: _PARSERS[hint] for name, hint in get_type_hints(RunConfig).items() if name != "factors"
}


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key-value format; unknown keys are errors."""
    factors: list[tuple[int, float]] = []
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key != "factor" and key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "factor":
                factors.append(_parse_factor(value))
            else:
                values[key] = _KEY_PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(factors=tuple(factors), **values)


def load_config(path: str | None) -> RunConfig:
    """The default config without a path; a config file must carry its own
    manifold spec (fail closed) instead of the per-command default."""
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.exists() and os.sep not in path:
        config_dir = os.environ.get("SPHEREACS_CONFIG_DIR")
        if config_dir:
            candidate = Path(config_dir) / path
            if candidate.exists():
                p = candidate
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    cfg = parse_config_text(read_text(p))
    if not cfg.factors:
        raise ConfigError("config file does not specify any 'factor = dim=.. curvature=..' line")
    return cfg


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("kind", "name", "computed", "expected", "tolerance", "verdict", "asserted", "claim")

# The writers build one string per row.  Names are mostly distinct, but a
# claim is often shared by many rows, so claims go through a cache made per
# call and each distinct claim is quoted or encoded once.


def _csv_text(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _number(value: float | None, missing: str) -> str:
    return missing if value is None else format(value, ".17g")


def rows_to_csv(rows: list[Check]) -> str:
    claim = functools.cache(_csv_text)
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(
        f"{r.kind},{_csv_text(r.name)},{r.computed:.17g},{_number(r.expected, '')},"
        f"{_number(r.tolerance, '')},{r.verdict},{'true' if r.asserted else 'false'},"
        f"{claim(r.claim)}"
        for r in rows
    )
    return "\n".join(lines) + "\n"


def rows_to_records(rows: list[Check]) -> str:
    """One JSON object per row, keys in CSV_COLUMNS order."""
    claim = functools.cache(encode_basestring_ascii)
    return "\n".join(
        f'{{"kind": "{r.kind}", "name": {encode_basestring_ascii(r.name)}, '
        f'"computed": {r.computed:.17g}, '
        f'"expected": {_number(r.expected, "null")}, '
        f'"tolerance": {_number(r.tolerance, "null")}, '
        f'"verdict": "{r.verdict}", "asserted": {"true" if r.asserted else "false"}, '
        f'"claim": {claim(r.claim)}}}'
        for r in rows
    ) + "\n"


# rows of a report printed to stdout; the rest are counted
TABLE_ROWS = 40


def rows_to_table(title: str, rows: list[Check]) -> str:
    header = f"{'name':<46} {'computed':>24} {'expected':>24} verdict"
    lines = [title, "-" * len(header), header, "-" * len(header)]
    for row in rows[:TABLE_ROWS]:
        lines.append(
            f"{row.name:<46} {row.computed:>24.17g} {_number(row.expected, '-'):>24} {row.verdict}"
        )
    if len(rows) > TABLE_ROWS:
        lines.append(f"... ({len(rows) - TABLE_ROWS} more rows)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _acs_input(man: ProductManifold, cfg: RunConfig) -> np.ndarray | None:
    """The structure serialised in ``acs_file``, if one is configured."""
    if not cfg.acs_file:
        return None
    try:
        text = read_text(cfg.acs_file)
    except OSError as exc:
        raise ConfigError(f"cannot read acs_file: {exc}") from exc
    return acs_from_text(man, text)


def _field_for(target: str, man: ProductManifold, cfg: RunConfig):
    base = default_acs_field(man)
    if target != "gauged":
        return base
    if len(cfg.degrees) != 1:
        raise ConfigError("the gauged field takes exactly one gauge degree")
    parametrization = GaugeParametrization(man, cfg.degrees[0], cfg.generators, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 3])
    theta = 0.3 * rng.standard_normal(parametrization.n_params)
    return parametrization.field(theta, base)


def run_nijenhuis(man: ProductManifold, cfg: RunConfig, args: argparse.Namespace) -> AuditReport:
    jf = _field_for(args.target, man, cfg)
    if cfg.points_file:
        pts = load_points(cfg.points_file, man)
        unsafe = np.flatnonzero(~chart_safe_mask(man, pts, cfg.chart_margin))
        if unsafe.size:
            raise ConfigError(f"{cfg.points_file}: point {unsafe[0]} is within chart_margin of the chart's bad set")
    else:
        pts = chart_safe_points(man, cfg.points, cfg.seed, cfg.chart_margin)
    norms = nijenhuis_norms(jf, pts, cfg.frame_pairs, cfg.seed)
    report = acs_field_validity_check(jf, pts[:25])
    report.record_series(
        "point[{}].rms-norm", norms,
        "root mean square |N| over the seeded frame pairs at this point",
    )
    report.record("energy", np.mean(norms**2), "mean |N|^2 over all sample points and frame pairs")
    if args.target == "s2":
        # the canonical structure is integrable; N carries the velocity
        # scale 1 / r = sqrt(curvature), and so does its round-off
        report.add(
            "integrability", np.max(norms), 0.0,
            TOL.exact_nijenhuis * np.sqrt(man.factors[0].curvature),
            "the canonical S^2 structure is integrable: every per-point rms |N| is round-off",
        )
    if args.target == "product" and cfg.restriction_check:
        report.extend(second_factor_restriction_check(jf, pts[:10]))
    return report


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_search(man: ProductManifold, cfg: RunConfig, args: argparse.Namespace) -> AuditReport:
    """Run the energy-floor experiment; with ``--baseline``, also write its
    floor baseline JSON to that path."""
    experiment = energy_floor_experiment(ExperimentConfig(
        manifold=man,
        **{f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig) if f.name != "manifold"},
    ))
    if args.baseline:
        _write_json(Path(args.baseline), experiment.baseline_record())
    return experiment.report()


class Command(NamedTuple):
    """A command's default manifold, whether it runs on that manifold's factor
    dimensions only, and its runner (man, cfg, parsed args) -> AuditReport."""

    factors: tuple[tuple[int, float], ...]
    fixed_dims: bool
    run: Callable[[ProductManifold, RunConfig, argparse.Namespace], AuditReport]


# every command of the CLI, in the order its help lists the targets
COMMANDS = {
    ("audit", "curvature"): Command(((2, 1.0), (4, 1.0), (6, 2.0)), False, lambda man, cfg, args: (
        CurvatureOracle(man).symmetry_audit(cfg.samples, cfg.seed))),
    ("audit", "gray"): Command(((6, 1.0),), False, lambda man, cfg, args: (
        gray_cancellation_audit(man, cfg.samples, cfg.seed))),
    ("audit", "splitting"): Command(((2, 1.0), (4, 1.0)), False, lambda man, cfg, args: (
        splitting_audit(man, cfg.samples, cfg.seed))),
    ("audit", "components"): Command(((6, 1.0), (6, 2.0)), False, lambda man, cfg, args: (
        component_audit_suite(man, cfg.samples, cfg.seed, _acs_input(man, cfg), cfg.swap_probe))),
    ("audit", "ricci-star"): Command(((6, 1.0), (6, 2.0)), False, lambda man, cfg, args: (
        ricci_star_exchange_audit(man, cfg.samples, cfg.seed))),
    ("nijenhuis", "s2"): Command(((2, 1.0),), True, run_nijenhuis),
    ("nijenhuis", "s6-octonion"): Command(((6, 1.0),), True, run_nijenhuis),
    ("nijenhuis", "product"): Command(((2, 1.0), (6, 1.0)), True, run_nijenhuis),
    ("nijenhuis", "gauged"): Command(((2, 1.0), (4, 1.0)), False, run_nijenhuis),
    ("search", "s2xs4"): Command(((2, 1.0), (4, 1.0)), True, run_search),
    ("search", "s6"): Command(((6, 1.0),), True, run_search),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _targets(command: str) -> tuple[str, ...]:
    """The targets of a command, in ``COMMANDS`` order."""
    return tuple(t for c, t in COMMANDS if c == command)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="path to a run configuration file")
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument("--format", choices=FORMATS, help="machine report format")
    shared.add_argument("--out", help="output directory for report files")
    parser = argparse.ArgumentParser(
        prog="sphereacs",
        description="Numerical audits and obstruction searches for orthogonal "
        "almost complex structures on products of round spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_audit = sub.add_parser("audit", parents=[shared], help="run a formula audit suite")
    p_audit.add_argument("target", metavar="suite", choices=_targets("audit"))
    p_nij = sub.add_parser(
        "nijenhuis", parents=[shared], help="evaluate a structure field's Nijenhuis tensor"
    )
    p_nij.add_argument("target", metavar="field", choices=_targets("nijenhuis"))
    p_search = sub.add_parser(
        "search", parents=[shared], help="run a seeded energy-minimisation experiment"
    )
    p_search.add_argument("target", metavar="experiment", choices=_targets("search"))
    p_search.add_argument("--baseline", help="also write the floor baseline JSON to this path")
    return parser


def _emit(
    report: AuditReport, cfg: RunConfig, man: ProductManifold, command: str, target: str,
    elapsed: float, counts: dict[str, int],
) -> None:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{command}_{target.replace('-', '_')}"
    if cfg.format == "records":
        (out_dir / f"{stem}.records").write_text(rows_to_records(report.checks), encoding="utf-8")
    else:
        (out_dir / f"{stem}.csv").write_text(rows_to_csv(report.checks), encoding="utf-8")
    config = asdict(replace(cfg, factors=tuple((f.dim, f.curvature) for f in man.factors)))
    del config["out"]
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "target": target,
        "config": config,
        "counts": counts,
        "wall_clock_s": round(elapsed, 6),
    }
    _write_json(out_dir / f"{stem}_manifest.json", manifest)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command, target = args.command, args.target
    try:
        cfg = load_config(args.config)
        for key in ("seed", "format", "out"):
            if getattr(args, key) is not None:
                cfg = replace(cfg, **{key: getattr(args, key)})
        start = time.perf_counter()
        spec = COMMANDS[command, target]
        man = cfg.manifold(spec.factors)
        dims = [d for d, _ in spec.factors]
        if spec.fixed_dims and [f.dim for f in man.factors] != dims:
            raise ConfigError(
                f"{command} {target} needs sphere factors of dimensions "
                + " x ".join(map(str, dims))
            )
        # a non-finite value fails closed below, by its row: no numpy warnings
        with np.errstate(all="ignore"):
            report = spec.run(man, cfg, args)
        bad = next((c for c in report.checks if not math.isfinite(c.computed)), None)
        if bad is not None:
            raise DegenerateInput(f"row {bad.name!r} computed a non-finite value ({bad.computed})")
        elapsed = time.perf_counter() - start
        counts = report.counts()
        _emit(report, cfg, man, command, target, elapsed, counts)
    except (
        ConfigError, InvalidManifold, ContractViolation, DegenerateInput, SearchError, OSError,
        MemoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rows_to_table(f"{command} {target} on {man.describe()}", report.checks))
    print(
        f"{counts['pass']} pass / {counts['mismatch']} recorded mismatch / "
        f"{counts['fail']} fail / {counts['recorded']} value rows"
    )
    return 0 if report.passed else 1
