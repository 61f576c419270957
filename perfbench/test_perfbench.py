"""Self-tests of the benchmark: tiny-scale smoke runs of every workload on two
seeds, rejection of corrupted reports, and agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

assert run.add_sources(), "the self-tests need the sphereacs sources under src/"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny_run(workload: str, seed: int, traced: bool) -> dict:
    return run.run_benchmark(workload, seed, seconds=0.0, traced=traced, scale="tiny")


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_every_check(workload, seed):
    result = tiny_run(workload, seed, traced=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _bindings() -> dict:
    from sphereacs import cli, manifold, search  # noqa: F401  (cli: its bindings count too)

    out = {name: dict(vars(mod)) for name, mod in sys.modules.items()
           if name.startswith("sphereacs")}
    for cls in (manifold.CurvatureOracle, search.GaugeParametrization):
        out[cls.__qualname__] = dict(vars(cls))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    before = _bindings()
    result = tiny_run(workload, 3, traced=True)
    after = _bindings()
    assert all(after[key] == value for key, value in before.items()), "a wrapper stayed installed"
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(tracing.PER_LAYER_METRICS)
    # isolation: each workload stays out of the layers it is not about
    if workload != "audit-sweep":
        assert metrics["manifold.product_curvature.calls"] == 0
    if workload != "s2xs4-grid":
        assert metrics["search.objective.evals"] == 0
        assert metrics["search.floor_energy"] == 0
    busy = {
        "s2xs4-grid": ("search.objective.evals", "search.gauge_rotations.calls",
                       "fields.nijenhuis_batch.calls", "search.floor_energy"),
        "audit-sweep": ("manifold.product_curvature.calls", "identities.component_audit.calls",
                        "acs.random_structures.calls", "acs.validate_acs.calls"),
        "field-batch": ("octonion.cross7_matrices.rows", "fields.base_field.rows",
                        "sampling.load_points.s", "cli.report.bytes"),
    }[workload]
    assert all(metrics[name] > 0 for name in busy)


# -- corrupted reports ---------------------------------------------------------


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Round-0 outputs of tiny grid and field runs, copied aside."""
    out = {}
    for workload in ("s2xs4-grid", "field-batch"):
        assert tiny_run(workload, 5, traced=False)["correct"]
        dest = tmp_path_factory.mktemp(workload)
        shutil.copytree(run.OUT_ROOT / workload / "round-0", dest / "round-0")
        shutil.copytree(run.OUT_ROOT / workload / "inputs", dest / "inputs")
        cmds = {c.target: c for c in workloads.commands(workload, 5, "tiny", dest / "inputs")}
        out[workload] = (dest / "round-0", cmds)
    return out


def _copy(src: Path, tmp_path: Path) -> Path:
    shutil.copytree(src, tmp_path / "round")
    return tmp_path / "round"


def _corrupt(path: Path, name: str, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    prefix = f"value,{name},"
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    assert hits, name
    cells = lines[hits[0]].split(",")
    cells[2] = value
    lines[hits[0]] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


def _cell(path: Path, name: str) -> float:
    return next(r.computed for r in checks.read_report(path) if r.name == name)


def test_uncorrupted_reports_pass(reports):
    for out_dir, cmds in reports.values():
        for cmd in cmds.values():
            assert checks.check_command(cmd, 0, out_dir, 5) == []


def test_nan_energy_is_rejected(reports, tmp_path):
    src, cmds = reports["s2xs4-grid"]
    out_dir = _copy(src, tmp_path / "grid")
    _corrupt(out_dir / "search_s2xs4.csv", "degree[1].restart[1].energy", "nan")
    problems = checks.check_command(cmds["s2xs4"], 0, out_dir, 5)
    assert any("restart[1]" in p for p in problems)
    src, cmds = reports["field-batch"]
    out_dir = _copy(src, tmp_path / "field")
    _corrupt(out_dir / "nijenhuis_gauged.csv", "energy", "nan")
    assert checks.check_command(cmds["gauged"], 0, out_dir, 5)


def test_increasing_best_so_far_is_rejected(reports, tmp_path):
    src, cmds = reports["s2xs4-grid"]
    out_dir = _copy(src, tmp_path)
    report = out_dir / "search_s2xs4.csv"
    first = _cell(report, "degree[2].restart[0].best-so-far")
    _corrupt(report, "degree[2].restart[1].best-so-far", repr(2.0 * first))
    problems = checks.check_command(cmds["s2xs4"], 0, out_dir, 5)
    assert any("best-so-far increases" in p for p in problems)


def test_wrong_octonion_norm_is_rejected(reports, tmp_path):
    src, cmds = reports["field-batch"]
    cmd = cmds["s6-octonion"]
    norms = np.array([
        r.computed for r in checks.read_report(src / "nijenhuis_s6_octonion.csv")
        if r.name.endswith(".rms-norm")
    ])
    assert checks.check_octonion_norms(cmd, norms, 5) == []
    pick = np.random.default_rng([5, 64]).choice(norms.size, size=min(64, norms.size),
                                                 replace=False)
    wrong = norms.copy()
    wrong[pick[0]] *= 1.0 + 1e-4
    assert checks.check_octonion_norms(cmd, wrong, 5)
    out_dir = _copy(src, tmp_path)
    _corrupt(out_dir / "nijenhuis_s6_octonion.csv", f"point[{pick[0]}].rms-norm",
             repr(float(wrong[pick[0]])))
    assert checks.check_command(cmd, 0, out_dir, 5)


def test_nonzero_exit_and_missing_report_are_rejected(reports, tmp_path):
    _, cmds = reports["field-batch"]
    assert checks.check_command(cmds["s2"], 1, tmp_path, 5)
    assert checks.check_command(cmds["s2"], None, tmp_path, 5)
    assert checks.check_command(cmds["s2"], 0, tmp_path, 5)


def test_changed_report_fails_determinism(reports, tmp_path):
    src, _ = reports["field-batch"]
    shutil.copytree(src, tmp_path / "a")
    shutil.copytree(src, tmp_path / "b")
    assert run.determinism_problems(tmp_path / "a", tmp_path / "b") == []
    with open(tmp_path / "b" / "nijenhuis_s2.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert run.determinism_problems(tmp_path / "a", tmp_path / "b")


# -- tracer and contract -------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = tracing.Spans(
        names=["a", "b"], name=np.array([0, 1, 1]), command=np.zeros(3, dtype=np.int32),
        parent=np.array([-1, 0, 1]), start=np.array([0.0, 1.0, 2.0]),
        end=np.array([10.0, 5.0, 3.0]), n=np.zeros(3, dtype=np.int64), x=np.zeros(3),
    )
    assert np.allclose(spans.self_time(), [6.0, 3.0, 1.0])


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_METRICS
    assert all(0 < m["bound"] <= 0.25 and math.isfinite(m["bound"]) for m in spec["end_to_end"])


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
