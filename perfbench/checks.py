"""Output checks for one CLI command; every check fails closed.

Each check returns a list of problems; an empty list is a pass.  Values are
tested with explicit finiteness tests, never with max()/min() reductions,
because max(0.0, nan) == 0.0 would hide a NaN.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sphereacs.config import TOL
from sphereacs.fields import sample_tangent_pairs
from sphereacs.manifold import ProductManifold, SphereFactor
from sphereacs.octonion import cross7

from workloads import Command

# FD round-off of N is about eps/h ~ 1e-11 at the default step, so the
# integrable S^2 control has mean |N|^2 near 1e-22; 1e-18 leaves four decades.
S2_ROUNDOFF_ENERGY = 1e-18

# Size of the seeded subsample of s6-octonion points checked against the
# closed form.
OCTONION_SUBSAMPLE = 64

VALIDATION_CHECKS = ("orthogonality", "square", "skewness", "block-skew", "block-composition")


@dataclass(frozen=True)
class Row:
    kind: str
    name: str
    computed: float
    verdict: str
    asserted: bool


def _number(cell: str) -> float:
    return float(cell) if cell else math.nan


def read_report(path: Path) -> list[Row]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        return [
            Row(r[col["kind"]], r[col["name"]], _number(r[col["computed"]]),
                r[col["verdict"]], r[col["asserted"]] == "true")
            for r in reader
        ]


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


def _values(rows: list[Row]) -> dict[str, float]:
    return {r.name: r.computed for r in rows if r.kind == "value"}


def check_command(cmd: Command, status, out_dir: Path, seed: int) -> list[str]:
    """All checks of one finished command; ``status`` is its exit code, or
    None when it raised."""
    if status != 0:
        return [f"{cmd.name}: exit status {status}"]
    report = out_dir / f"{cmd.stem}.csv"
    manifest = out_dir / f"{cmd.stem}_manifest.json"
    if not report.is_file() or not manifest.is_file():
        return [f"{cmd.name}: report or manifest missing"]
    try:
        rows = read_report(report)
        counts = json.loads(manifest.read_text(encoding="utf-8"))["counts"]
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"{cmd.name}: unreadable report: {exc!r}"]
    problems = check_rows(cmd, rows, seed)
    if counts.get("fail") != 0:
        problems.append(f"{cmd.name}: manifest counts {counts.get('fail')} failed checks")
    return problems


def check_rows(cmd: Command, rows: list[Row], seed: int) -> list[str]:
    problems = []
    for r in rows:
        if r.kind == "check" and not math.isfinite(r.computed):
            problems.append(f"{r.name} computed {r.computed}")
        if r.kind == "check" and r.asserted and r.verdict != "pass":
            problems.append(f"asserted check {r.name} is {r.verdict}")
    if cmd.command == "search":
        problems += check_search(cmd, rows)
    elif cmd.command == "nijenhuis":
        problems += check_field(cmd, rows, seed)
    elif cmd.target == "components":
        problems += check_components(rows)
    return [f"{cmd.name}: {p}" for p in problems]


def check_search(cmd: Command, rows: list[Row]) -> list[str]:
    """Energies finite and positive; best-so-far is the running minimum,
    so it never increases; cell minima and floor agree with the restarts."""
    problems = []
    values = _values(rows)
    cells = []
    for degree in cmd.option("degrees"):
        best = math.inf
        for r in range(cmd.option("restarts")):
            key = f"degree[{degree}].restart[{r}]"
            energy = values.get(f"{key}.energy", math.nan)
            so_far = values.get(f"{key}.best-so-far", math.nan)
            if not (_positive(energy) and _positive(so_far)):
                problems.append(f"{key}: energy {energy}, best-so-far {so_far}")
                continue
            if so_far > best:
                problems.append(f"{key}: best-so-far increases to {so_far} from {best}")
            best = min(best, energy)
            if so_far != best:
                problems.append(f"{key}: best-so-far {so_far} is not the running minimum {best}")
        cell = values.get(f"degree[{degree}].cell-minimum", math.nan)
        if not (_positive(cell) and cell == best):
            problems.append(f"degree[{degree}]: cell minimum {cell}, restarts give {best}")
        cells.append(cell)
    floor = values.get("floor", math.nan)
    if not (_positive(floor) and floor == min(cells)):
        problems.append(f"floor {floor}, cell minima give {min(cells)}")
    return problems


def check_field(cmd: Command, rows: list[Row], seed: int) -> list[str]:
    """Per-point norms and the energy are finite and positive (the S^2
    control is at round-off instead), and the energy is the mean squared
    norm; the octonionic norms also match the closed form."""
    problems = []
    values = _values(rows)
    norms = []
    k = 0
    while f"point[{k}].rms-norm" in values:
        norms.append(values[f"point[{k}].rms-norm"])
        k += 1
    norms = np.array(norms)
    energy = values.get("energy", math.nan)
    expected_points = cmd.option("points")
    if expected_points is not None and norms.size != expected_points:
        problems.append(f"{norms.size} point rows, expected {expected_points}")
    if norms.size == 0:
        return problems + ["no point rows"]
    if cmd.target == "s2":
        if not (np.all(np.isfinite(norms)) and np.all(norms >= 0.0)):
            problems.append("non-finite or negative norm in the integrable control")
        if not (math.isfinite(energy) and 0.0 <= energy <= S2_ROUNDOFF_ENERGY):
            problems.append(f"control energy {energy} above round-off {S2_ROUNDOFF_ENERGY}")
    else:
        if not (np.all(np.isfinite(norms)) and np.all(norms > 0.0)):
            problems.append("non-finite or non-positive point norm")
        if not _positive(energy):
            problems.append(f"energy {energy} is not finite and positive")
        mean_sq = float(np.mean(norms * norms))
        if not abs(energy - mean_sq) <= 1e-9 * mean_sq:
            problems.append(f"energy {energy} differs from the mean squared norm {mean_sq}")
    if cmd.target == "s6-octonion":
        problems += check_octonion_norms(cmd, norms, seed)
    if cmd.target == "product" and cmd.option("restriction_check"):
        if not any(r.name.startswith("restriction[") for r in rows):
            problems.append("restriction check rows missing")
    return problems


def octonion_closed_form(pts: np.ndarray, frame_pairs: int, pair_seed: int) -> np.ndarray:
    """Per-point RMS of |N| for the octonionic S^6 structure from the closed
    form N(x, y) = -4 u x proj(x x y) on the same seeded frame pairs the CLI
    draws."""
    man = ProductManifold((SphereFactor(6, 1.0),))
    pts_rep, xs, ys = sample_tangent_pairs(man, pts, frame_pairs, pair_seed)
    c = cross7(xs, ys)
    c -= np.sum(c * pts_rep, axis=1, keepdims=True) * pts_rep
    n = -4.0 * cross7(pts_rep, c)
    sq = np.sum(n * n, axis=1).reshape(pts.shape[0], frame_pairs)
    return np.sqrt(np.mean(sq, axis=1))


def check_octonion_norms(cmd: Command, norms: np.ndarray, seed: int) -> list[str]:
    pts = np.loadtxt(cmd.option("points_file"), ndmin=2)
    if pts.shape[0] != norms.size:
        return [f"{norms.size} point rows for {pts.shape[0]} points"]
    frame_pairs = cmd.option("frame_pairs", 2)
    exact = octonion_closed_form(pts, frame_pairs, cmd.option("seed"))
    rng = np.random.default_rng([seed, 64])
    pick = rng.choice(norms.size, size=min(OCTONION_SUBSAMPLE, norms.size), replace=False)
    err = np.abs(norms[pick] - exact[pick])
    bad = ~(err <= TOL.fd_bracket)
    if np.any(bad):
        k = int(pick[np.argmax(bad)])
        return [f"point[{k}] norm {norms[k]} vs closed form {exact[k]}"]
    return []


def check_components(rows: list[Row]) -> list[str]:
    """The structure read from acs_file validates and satisfies every
    claimed component formula; the swap probe records a mismatch."""
    problems = []
    file_rows = [r for r in rows if not r.name.startswith(("blockdiag[", "swap."))]
    names = {r.name for r in file_rows}
    missing = [n for n in VALIDATION_CHECKS if n not in names]
    if missing:
        problems.append(f"acs_file validation checks missing: {missing}")
    failing = [r.name for r in file_rows if r.verdict != "pass"]
    if failing or len(file_rows) <= len(VALIDATION_CHECKS):
        problems.append(f"acs_file audit does not pass in full: {failing[:3]}")
    if not any(r.name.startswith("swap.") and r.verdict == "mismatch" for r in rows):
        problems.append("the swap probe recorded no mismatch")
    return problems
