"""The benchmark tracer in ``perfbench/`` wraps library functions by name;
every name it wraps must still exist in the package, and the per-layer
spans it records must still see the work they name."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from sphereacs import cli, identities, search
from sphereacs.acs import acs_to_text, random_block_diagonal_acs, swap_acs
from sphereacs.fields import default_acs_field
from sphereacs.manifold import spheres
from sphereacs.sampling import chart_safe_points


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracing").Tracer()


def test_benchmark_tracer_installs_and_uninstalls(tracer):
    # a deleted or renamed function that the tracer wraps fails here, in the
    # package's own suite, and not only in the benchmark's self-tests
    original = search.nelder_mead
    try:
        tracer.install()
        assert search.nelder_mead is not original
    finally:
        tracer.uninstall()
    assert search.nelder_mead is original


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_each_objective_evaluation_is_one_cayley_and_one_nijenhuis_span(tracer, monkeypatch, degree):
    # the per-layer metrics read these spans: an objective that routes
    # around gauge_rotations or nijenhuis_batch would zero them silently,
    # and one that split its rows into blocks would multiply them; every
    # degree the benchmark's grid runs is checked, degree 0 (which skips
    # the coefficient-derivative term) included.  The freeze evaluates the
    # base field once, through its own jet, and no evaluation evaluates it
    monkeypatch.setattr("sphereacs.fields.NIJENHUIS_BLOCK_ROWS", 4)
    man = spheres((2, 1.0), (4, 1.0))
    pts = chart_safe_points(man, 6, seed=1)
    par = search.GaugeParametrization(man, degree=degree, generators=4, seed=1)
    thetas = 0.3 * np.random.default_rng(1).standard_normal((3, par.n_params))
    try:
        tracer.install()
        root = tracer.begin_command(0, "cli.search.s2xs4")
        objective = search.make_energy_objective(par, default_acs_field(man), pts, 1, pair_seed=1)
        for theta in thetas:
            objective(theta)
        tracer.end_command(root)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    ids = {name: i for i, name in enumerate(spans.names)}
    evaluations = np.flatnonzero(spans.name == ids["search.objective"])
    assert evaluations.size == 3

    def evaluation_of(span: int) -> int:
        while span >= 0 and spans.name[span] != ids["search.objective"]:
            span = spans.parent[span]
        return span

    for name in ("search.gauge_rotations", "fields.nijenhuis_batch"):
        inside = np.flatnonzero(spans.name == ids[name])
        assert sorted(evaluation_of(s) for s in inside) == list(evaluations), name
        assert np.all(spans.n[inside] == pts.shape[0]), name
    assert list(spans.n[spans.name == ids["fields.base_field"]]) == [pts.shape[0]]


def test_audit_components_traces_one_component_audit_per_full_audit(tracer, monkeypatch, tmp_path):
    # identities.component_audit counts full component audits: one for the
    # given structure and one for the swap probe.  The block-diagonal
    # samples' family maxima come from the family table and add no span.
    man = spheres((6, 1.0), (6, 2.0))
    structure = random_block_diagonal_acs(man, 4)
    acs_path = tmp_path / "structure.acs"
    acs_path.write_text(acs_to_text(structure))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "factor = dim=6 curvature=1.0\nfactor = dim=6 curvature=2.0\n"
        f"samples = 12\nswap_probe = true\nacs_file = {acs_path}\n"
    )
    audited = []
    original = identities.ricci_star_component_audit

    def spy(oracle, J):
        audited.append(J)
        return original(oracle, J)

    monkeypatch.setattr(identities, "ricci_star_component_audit", spy)
    try:
        tracer.install()
        root = tracer.begin_command(0, "cli.audit.components")
        args = ["audit", "components", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert cli.main(args) == 0
        tracer.end_command(root)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert np.count_nonzero(spans.name == spans.names.index("identities.component_audit")) == 2
    assert len(audited) == 2
    np.testing.assert_array_equal(audited[0], structure)
    np.testing.assert_array_equal(audited[1], swap_acs(man))


NIJENHUIS_CONFIGS = {
    "s2": "factor = dim=2 curvature=1.0\n",
    "s6-octonion": "factor = dim=6 curvature=1.0\n",
    "product": "factor = dim=2 curvature=1.0\nfactor = dim=6 curvature=1.0\nrestriction_check = true\n",
    "gauged": "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\ndegrees = 2\nframe_pairs = 1\n",
}


def test_traced_nijenhuis_reports_equal_the_untraced_ones(tracer, tmp_path):
    # the tracer rebuilds product_acs_field's result without a jet, so the
    # closed-form jet must sit on default_acs_field: the traced reports are
    # byte-identical, and the traced base field is evaluated once per
    # Nijenhuis row and once per validity row (25 per command), never along
    # a complex step
    for target, factors in NIJENHUIS_CONFIGS.items():
        cfg = tmp_path / f"{target}.cfg"
        cfg.write_text(factors + "points = 40\nseed = 3\nformat = csv\n")
        report = f"nijenhuis_{target.replace('-', '_')}.csv"
        args = ["nijenhuis", target, "--config", str(cfg), "--out"]
        assert cli.main(args + [str(tmp_path / "plain")]) == 0
        try:
            tracer.install()
            root = tracer.begin_command(0, f"cli.nijenhuis.{target}")
            assert cli.main(args + [str(tmp_path / "traced")]) == 0
            tracer.end_command(root)
        finally:
            tracer.uninstall()
        plain = (tmp_path / "plain" / report).read_bytes()
        assert (tmp_path / "traced" / report).read_bytes() == plain, target
    spans = tracer.spans()

    def rows(name):
        return spans.n[spans.name == spans.names.index(name)].sum()

    assert rows("fields.base_field") == rows("fields.nijenhuis_batch") + 4 * 25
