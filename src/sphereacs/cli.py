"""Command-line surface: configuration parsing, per-command default
manifolds, dispatch to library audits, field runs and searches, and the
report writers.

Commands
--------
    audit     {curvature | gray | splitting | components | ricci-star}
    nijenhuis {s2 | s6-octonion | product | gauged}
    search    {s2xs4 | s6}

Each audit suite is one library function returning an ``AuditReport``
(``report.py`` holds the only row type): the curvature symmetries live on
``manifold.CurvatureOracle``, the gray, components and ricci-star suites in
``identities`` and the splitting suite in ``search``.  Field runs and
searches record their per-point norms and per-restart energies as value
rows of the same report type.

Every run prints a human-readable table on stdout and writes a
machine-readable report (csv or records, 17 significant digits) plus a
manifest to the output directory.  Exit codes: 0 = completed and every
asserted check passed, 1 = an asserted check failed, 2 = usage or
configuration error.  Recorded-only mismatches (the component audit on
factor-mixing structures) never affect the exit code.

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

Keys: seed, samples, points, frame_pairs, restarts, budget, generators,
degrees (a non-empty list of gauge degrees >= 0), fd_step (within
[1e-9, 1e-2]), init_scale, chart_margin, swap_probe, restriction_check,
format, out, acs_file and points_file.  The environment variable
SPHEREACS_CONFIG_DIR may point to a directory searched for bare config file
names.

File formats referenced by config keys:

* ``acs_file`` (components suite): plain-text row-major square matrix with a
  header line holding total_dim, then one whitespace-separated row per line;
  numbers at 17 significant digits round-trip doubles exactly.
* ``points_file`` (nijenhuis commands): one sample point per line as
  whitespace-separated ambient coordinates (sum of dim+1 per factor); each
  factor block must lie on its unit sphere to 1e-6.

Non-finite numbers (nan, inf) in a factor curvature, an ``acs_file`` or a
``points_file`` are usage errors (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .acs import OrthogonalACS, acs_from_text
from .config import TOL
from .errors import (
    ConfigError,
    ContractViolation,
    DegenerateInput,
    InvalidManifold,
    SearchError,
    StepSizeError,
)
from .fields import (
    acs_field_validity_check,
    check_step,
    default_acs_field,
    nijenhuis_norms,
    product_acs_field,
    s2_rotation_blocks,
    s6_octonion_blocks,
    second_factor_restriction_check,
)
from .identities import (
    component_audit_suite,
    gray_cancellation_audit,
    ricci_star_exchange_audit,
)
from .manifold import CurvatureOracle, ProductManifold, SphereFactor
from .report import AuditReport, Check
from .sampling import chart_safe_points, load_points
from .search import (
    DISCLAIMER,
    ExperimentConfig,
    GaugeParametrization,
    energy_floor_experiment,
    splitting_audit,
)

FORMATS = ("table", "csv", "records")


@dataclass(frozen=True)
class RunConfig:
    factors: tuple[tuple[int, float], ...] = ()
    seed: int = 7
    samples: int = 500
    points: int = 60
    frame_pairs: int = 2
    restarts: int = 3
    budget: int = 300
    generators: int = 4
    degrees: tuple[int, ...] = (0,)
    fd_step: float = TOL.fd_step
    init_scale: float = 0.5
    chart_margin: float = 0.05
    swap_probe: bool = False
    restriction_check: bool = False
    format: str = "table"
    out: str = "runs"
    # optional file inputs: a serialised structure matrix for the components
    # suite, and a plain-text sample-point list for the field commands
    acs_file: str = ""
    points_file: str = ""
    # set when the config came from an explicit file, which then must carry
    # its own manifold spec (fail closed) instead of the per-suite default
    explicit: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("samples", "points", "frame_pairs", "restarts", "budget"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("init_scale", "chart_margin"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite")
        try:
            check_step(self.fd_step)
        except StepSizeError as exc:
            raise ConfigError(str(exc)) from exc
        if self.generators < 0:
            raise ConfigError("generators must be >= 0")
        if not self.degrees or min(self.degrees) < 0:
            raise ConfigError("degrees must list at least one gauge degree, each >= 0")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}")

    def manifold(self, default_factors: tuple[tuple[int, float], ...]) -> ProductManifold:
        if self.explicit and not self.factors:
            raise ConfigError("config file does not specify any 'factor = dim=.. curvature=..' line")
        factors = self.factors or default_factors
        if not factors:
            raise ConfigError("no sphere factors configured")
        try:
            return ProductManifold(tuple(SphereFactor(d, k) for d, k in factors))
        except InvalidManifold as exc:
            raise ConfigError(str(exc)) from exc


_INT_KEYS = ("seed", "samples", "points", "frame_pairs", "restarts", "budget", "generators")
_FLOAT_KEYS = ("fd_step", "init_scale", "chart_margin")
_BOOL_KEYS = ("swap_probe", "restriction_check")
_STR_KEYS = ("format", "out", "acs_file", "points_file")


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


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key-value format; unknown keys are errors."""
    factors: list[tuple[int, float]] = []
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in _INT_KEYS + _FLOAT_KEYS + _BOOL_KEYS + _STR_KEYS + ("factor", "degrees"):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "factor":
                factors.append(_parse_factor(value))
            elif key in _INT_KEYS:
                fields[key] = int(value)
            elif key in _FLOAT_KEYS:
                fields[key] = float(value)
            elif key in _BOOL_KEYS:
                fields[key] = _parse_bool(value)
            elif key in _STR_KEYS:
                fields[key] = value
            else:
                fields["degrees"] = tuple(int(tok) for tok in value.replace(",", " ").split())
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(factors=tuple(factors), **fields)


def load_config(path: str | None) -> RunConfig:
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
    return replace(parse_config_text(p.read_text(encoding="utf-8")), explicit=True)


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


CSV_COLUMNS = ("kind", "name", "computed", "expected", "tolerance", "verdict", "asserted", "claim")


def rows_to_csv(rows: list[Check]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            cell = _fmt(getattr(row, col))
            if "," in cell or '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_records(rows: list[Check]) -> str:
    lines = []
    for row in rows:
        parts = []
        for col in CSV_COLUMNS:
            v = getattr(row, col)
            if v is None:
                encoded = "null"
            elif isinstance(v, bool):
                encoded = "true" if v else "false"
            elif isinstance(v, float):
                encoded = format(v, ".17g")
            else:
                encoded = json.dumps(v)
            parts.append(f"{json.dumps(col)}: {encoded}")
        lines.append("{" + ", ".join(parts) + "}")
    return "\n".join(lines) + "\n"


def rows_to_table(title: str, rows: list[Check], max_rows: int = 40) -> str:
    header = f"{'name':<46} {'computed':>24} {'expected':>24} verdict"
    lines = [title, "-" * len(header), header, "-" * len(header)]
    for row in rows[:max_rows]:
        expected = _fmt(row.expected) if row.expected is not None else "-"
        lines.append(f"{row.name:<46} {_fmt(row.computed):>24} {expected:>24} {row.verdict}")
    if len(rows) > max_rows:
        lines.append(f"... ({len(rows) - max_rows} more rows)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

DEFAULT_FACTORS = {
    ("audit", "curvature"): ((2, 1.0), (4, 1.0), (6, 2.0)),
    ("audit", "gray"): ((6, 1.0),),
    ("audit", "splitting"): ((2, 1.0), (4, 1.0)),
    ("audit", "components"): ((6, 1.0), (6, 2.0)),
    ("audit", "ricci-star"): ((6, 1.0), (6, 2.0)),
    ("nijenhuis", "s2"): ((2, 1.0),),
    ("nijenhuis", "s6-octonion"): ((6, 1.0),),
    ("nijenhuis", "product"): ((2, 1.0), (6, 1.0)),
    ("nijenhuis", "gauged"): ((2, 1.0), (4, 1.0)),
    ("search", "s2xs4"): ((2, 1.0), (4, 1.0)),
    ("search", "s6"): ((6, 1.0),),
}


def _acs_input(man: ProductManifold, cfg: RunConfig) -> OrthogonalACS | None:
    """The structure serialised in ``acs_file``, if one is configured."""
    if not cfg.acs_file:
        return None
    try:
        text = Path(cfg.acs_file).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read acs_file: {exc}") from exc
    return acs_from_text(man, text)


AUDITS = {
    "curvature": lambda man, cfg: CurvatureOracle(man).symmetry_audit(cfg.samples, cfg.seed),
    "gray": lambda man, cfg: gray_cancellation_audit(man, cfg.samples, cfg.seed),
    "splitting": lambda man, cfg: splitting_audit(man, cfg.samples, cfg.seed),
    "components": lambda man, cfg: component_audit_suite(
        man, cfg.samples, cfg.seed, _acs_input(man, cfg), cfg.swap_probe
    ),
    "ricci-star": lambda man, cfg: ricci_star_exchange_audit(man, cfg.samples, cfg.seed),
}


def _field_for(target: str, man: ProductManifold, cfg: RunConfig):
    if target == "s2":
        if man.n_factors != 1 or man.factors[0].dim != 2:
            raise ConfigError("the s2 field needs a single 2-sphere factor")
        return default_acs_field(man)
    if target == "s6-octonion":
        if man.n_factors != 1 or man.factors[0].dim != 6:
            raise ConfigError("the s6-octonion field needs a single 6-sphere factor")
        return default_acs_field(man)
    if target == "product":
        dims = tuple(f.dim for f in man.factors)
        if dims != (2, 6):
            raise ConfigError("the product field needs factors (2-sphere, 6-sphere)")
        return product_acs_field(man, [s2_rotation_blocks, s6_octonion_blocks], "s2xs6")
    if target == "gauged":
        parametrization = GaugeParametrization(man, cfg.degrees[0], cfg.generators, cfg.seed)
        rng = np.random.default_rng([cfg.seed, 3])
        theta = 0.3 * rng.standard_normal(parametrization.n_params)
        return parametrization.field(theta, default_acs_field(man))
    raise ConfigError(f"unknown field {target!r}")


def run_nijenhuis(target: str, man: ProductManifold, cfg: RunConfig) -> AuditReport:
    jf = _field_for(target, man, cfg)
    if cfg.points_file:
        pts = load_points(cfg.points_file, man)
    else:
        pts = chart_safe_points(man, cfg.points, cfg.seed, cfg.chart_margin)
    norms = nijenhuis_norms(jf, pts, cfg.frame_pairs, cfg.seed, cfg.fd_step)
    report = acs_field_validity_check(jf, pts[: min(len(pts), 25)])
    for k, norm in enumerate(norms):
        report.record(
            f"point[{k}].rms-norm", norm,
            "root mean square |N| over the seeded frame pairs at this point",
        )
    report.record("energy", np.mean(norms**2), "mean |N|^2 over all sample points and frame pairs")
    if target == "product" and cfg.restriction_check:
        report.extend(
            second_factor_restriction_check(jf, pts[: min(cfg.points, 10)], cfg.fd_step)
        )
    return report


def run_search(target: str, man: ProductManifold, cfg: RunConfig) -> AuditReport:
    if target == "s2xs4":
        dims = tuple(f.dim for f in man.factors)
        if dims != (2, 4):
            raise ConfigError("the s2xs4 experiment needs factors (2-sphere, 4-sphere)")
    elif target == "s6":
        if man.n_factors != 1 or man.factors[0].dim != 6:
            raise ConfigError("the s6 experiment needs a single 6-sphere factor")
    else:
        raise ConfigError(f"unknown experiment {target!r}")
    exp_cfg = ExperimentConfig(
        manifold=man,
        degrees=cfg.degrees,
        restarts=cfg.restarts,
        budget=cfg.budget,
        points=cfg.points,
        frame_pairs=cfg.frame_pairs,
        seed=cfg.seed,
        generators=cfg.generators,
        fd_step=cfg.fd_step,
        init_scale=cfg.init_scale,
        chart_margin=cfg.chart_margin,
    )
    experiment = energy_floor_experiment(exp_cfg)
    report = AuditReport(f"search {target} on {man.describe()}")
    for row in experiment.rows():
        key = f"degree[{row['degree']}].restart[{row['restart']}]"
        report.record(f"{key}.energy", row["energy"], "restart best energy")
        report.record(
            f"{key}.best-so-far", row["best_so_far"], "minimum energy over the restart prefix"
        )
    for deg, cell in sorted(experiment.cell_minima().items()):
        report.record(f"degree[{deg}].cell-minimum", cell, "best energy of the degree cell")
    report.record("floor", experiment.floor, DISCLAIMER)
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

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
    p_audit.add_argument("target", metavar="suite", choices=tuple(AUDITS))
    p_nij = sub.add_parser(
        "nijenhuis", parents=[shared], help="evaluate a structure field's Nijenhuis tensor"
    )
    p_nij.add_argument("target", metavar="field", choices=("s2", "s6-octonion", "product", "gauged"))
    p_search = sub.add_parser(
        "search", parents=[shared], help="run a seeded energy-minimisation experiment"
    )
    p_search.add_argument("target", metavar="experiment", choices=("s2xs4", "s6"))
    return parser


def _emit(report: AuditReport, cfg: RunConfig, command: str, target: str, elapsed: float) -> None:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{command}_{target.replace('-', '_')}"
    if cfg.format == "records":
        (out_dir / f"{stem}.records").write_text(rows_to_records(report.checks), encoding="utf-8")
    else:
        (out_dir / f"{stem}.csv").write_text(rows_to_csv(report.checks), encoding="utf-8")
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "target": target,
        "config": {
            "factors": [list(f) for f in cfg.factors],
            "seed": cfg.seed,
            "samples": cfg.samples,
            "points": cfg.points,
            "frame_pairs": cfg.frame_pairs,
            "restarts": cfg.restarts,
            "budget": cfg.budget,
            "generators": cfg.generators,
            "degrees": list(cfg.degrees),
            "fd_step": cfg.fd_step,
            "init_scale": cfg.init_scale,
            "chart_margin": cfg.chart_margin,
            "swap_probe": cfg.swap_probe,
            "restriction_check": cfg.restriction_check,
            "acs_file": cfg.acs_file,
            "points_file": cfg.points_file,
            "format": cfg.format,
        },
        "counts": report.counts(),
        "wall_clock_s": round(elapsed, 6),
    }
    (out_dir / f"{stem}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command, target = args.command, args.target
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.format is not None:
            cfg = replace(cfg, format=args.format)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        start = time.perf_counter()
        man = cfg.manifold(DEFAULT_FACTORS[(command, target)])
        if command == "audit":
            report = AUDITS[target](man, cfg)
        elif command == "nijenhuis":
            report = run_nijenhuis(target, man, cfg)
        else:
            report = run_search(target, man, cfg)
        elapsed = time.perf_counter() - start
    except (
        ConfigError, InvalidManifold, ContractViolation, DegenerateInput,
        StepSizeError, SearchError, OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, cfg, command, target, elapsed)
    print(rows_to_table(f"{command} {target} on {man.describe()}", report.checks))
    counts = report.counts()
    print(
        f"{counts['pass']} pass / {counts['mismatch']} recorded mismatch / "
        f"{counts['fail']} fail / {counts['recorded']} value rows"
    )
    return 0 if report.passed else 1
