"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``); the
tests are deliberately independent of module internals, driving only public
entry points with independently derived expectations.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from sphereacs.acs import random_block_diagonal_acs, random_orthogonal_acs, swap_acs
from sphereacs.config import TOL
from sphereacs.fields import (
    default_acs_field,
    lie_bracket_fd_batch,
    nijenhuis_batch,
    nijenhuis_norms,
    projected_constant_field,
    product_acs_field,
    s2_rotation_blocks,
    s6_octonion_blocks,
)
from sphereacs.identities import ricci_star_bilinear, ricci_star_component_audit, splitting_defect
from sphereacs.manifold import CurvatureOracle, spheres
from sphereacs.sampling import (
    chart_safe_points,
    fibonacci_sphere,
    low_discrepancy_directions,
    manifold_points,
)
from sphereacs.search import (
    ExperimentConfig,
    GaugeParametrization,
    energy_floor_experiment,
    minimize_energy,
)
from tangent_fields import cross_matrix, rotation_field

BASELINE_PATH = Path(__file__).resolve().parent.parent / "baselines" / "s2xs4_floor.json"


@contextmanager
def criterion(num: int, desc: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} [{desc}]: FAIL ({time.perf_counter() - start:.1f} s)")
        raise
    print(f"\nACCEPTANCE {num} [{desc}]: PASS ({time.perf_counter() - start:.1f} s)")


def test_criterion_1_curvature_oracle():
    with criterion(1, "curvature symmetries and first Bianchi"):
        start = time.perf_counter()
        man = spheres((2, 1.0), (4, 1.0), (6, 2.0))
        report = CurvatureOracle(man).symmetry_audit(sample_count=1000, seed=20240201)
        worst = max(c.computed for c in report.checks)
        assert worst <= 1e-11, f"max symmetry violation {worst}"
        assert time.perf_counter() - start < 5.0


def test_criterion_2_constant_curvature_gray_cancellation():
    with criterion(2, "eight-term identity cancels on constant curvature"):
        start = time.perf_counter()
        for beta in (0.5, 1.0, 2.0):
            man = spheres((6, beta))
            oracle = CurvatureOracle(man)
            rng = np.random.default_rng(int(beta * 1000))
            worst = 0.0
            for s in range(1000):
                J = random_orthogonal_acs(man, [s, int(beta * 10)])
                w, x, y, z = rng.standard_normal((4, 6))
                from sphereacs.identities import gray_combination

                worst = max(worst, abs(gray_combination(oracle, J, w, x, y, z)))
            assert worst <= 1e-10, f"beta={beta}: worst {worst}"
        assert time.perf_counter() - start < 10.0


def test_criterion_3_splitting_defect_oracle_equivalence():
    with criterion(3, "splitting defect: eight-term sum vs closed form"):
        start = time.perf_counter()
        for alpha, beta in ((1.0, 1.0), (2.0, 0.5)):
            man = spheres((2, alpha), (4, beta))
            oracle = CurvatureOracle(man)
            x = np.zeros(6)
            y = np.zeros(6)
            x[0], y[1] = 1.0, 1.0
            # one stacked call per family: structure s is drawn from the seed
            # [s, int(alpha * 10)] as a single draw would be
            family = np.stack(
                [random_orthogonal_acs(man, [s, int(alpha * 10)]) for s in range(5000)]
            )
            d = splitting_defect(oracle, family, x, y)
            assert np.all(np.abs(d.direct - d.closed_form) <= 1e-10)
            assert np.all(d.direct <= 1e-12)
            mixed = 1.0 - d.c * d.c > 0.1
            # defect minus the complement term is alpha (1 - c^2)^2 exactly
            core = d.second_factor_term[mixed] - d.direct[mixed]
            assert np.all(core >= alpha * 0.01 * (1.0 - 1e-9))
            assert np.max(np.abs(d.direct[mixed])) >= alpha * 0.81 * (1.0 - 1e-3)
            split_family = np.stack(
                [random_block_diagonal_acs(man, [s, int(alpha * 10)]) for s in range(200)]
            )
            split = splitting_defect(oracle, split_family, x, y)
            assert np.all(np.abs(np.abs(split.c) - 1.0) <= 1e-12)
            assert np.all(np.abs(split.direct) <= 1e-10)
        assert time.perf_counter() - start < 30.0


def test_criterion_4_ricci_star_exchange_identity():
    with criterion(4, "Ricci *-tensor exchange identity"):
        rng = np.random.default_rng(77)
        worst = 0.0
        for s in range(500):
            t = int(rng.integers(1, 4))
            betas = rng.uniform(0.5, 2.5, size=t)
            man = spheres(*[(6, float(b)) for b in betas])
            oracle = CurvatureOracle(man)
            J = random_orthogonal_acs(man, [s, t])
            xv, yv = rng.standard_normal((2, man.total_dim))
            lhs = ricci_star_bilinear(oracle, J, xv, yv)
            rhs = ricci_star_bilinear(oracle, J, J @ yv, J @ xv)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-9, f"worst exchange violation {worst}"


def test_criterion_5_component_audit_and_swap_regression():
    with criterion(5, "component audit: block-diagonal passes, swap records mismatch"):
        man = spheres((6, 1.0), (6, 2.0))
        oracle = CurvatureOracle(man)
        for s in range(50):
            report = ricci_star_component_audit(oracle, random_block_diagonal_acs(man, s))
            assert report.max_error() <= 1e-9
            assert report.mismatches() == []
        # swap probe on equal curvatures: the same-factor family must RECORD
        # computed 0 against claimed beta = 1 without failing the audit
        man_eq = spheres((6, 1.0), (6, 1.0))
        swap_report = ricci_star_component_audit(CurvatureOracle(man_eq), swap_acs(man_eq))
        rows = [c for c in swap_report.select("star-same-factor[") if not c.passed]
        assert rows, "the swap mismatch rows must appear"
        for c in rows:
            assert c.computed == pytest.approx(0.0, abs=1e-12)
            assert c.expected == pytest.approx(1.0)
            assert not c.asserted
        assert swap_report.passed  # recorded-only semantics


def test_criterion_6_nijenhuis_engine():
    with criterion(6, "Nijenhuis engine: energies, restriction, convergence"):
        start = time.perf_counter()
        # canonical 2-sphere structure is integrable
        s2 = spheres((2, 1.0))
        e2 = np.mean(nijenhuis_norms(default_acs_field(s2), fibonacci_sphere(200, seed=1),
                                     frame_pairs=2, seed=11) ** 2)
        assert e2 <= 1e-10, f"canonical 2-sphere energy {e2}"
        # octonionic structure: strictly positive, stable across seeds
        s6 = spheres((6, 1.0))
        j6 = default_acs_field(s6)
        energies = [
            np.mean(nijenhuis_norms(j6, low_discrepancy_directions(200, 7, seed=100 + k),
                                    frame_pairs=3, seed=200 + k) ** 2)
            for k in range(3)
        ]
        assert min(energies) > 0.0
        spread = (max(energies) - min(energies)) / min(energies)
        assert spread <= 0.05, f"energy spread {spread}"
        # restriction to the second factor of a product field
        man = spheres((2, 1.0), (6, 1.0))
        jf = product_acs_field(man, [s2_rotation_blocks, s6_octonion_blocks])
        amb_x = np.zeros(10)
        amb_y = np.zeros(10)
        amb_x[3], amb_y[5] = 1.0, 1.0
        X = projected_constant_field(man, amb_x)
        Y = projected_constant_field(man, amb_y)
        u6 = low_discrepancy_directions(5, 7, seed=5)
        pts = np.concatenate([fibonacci_sphere(5, seed=5), u6], axis=1)
        full = nijenhuis_batch(jf, X(pts), Y(pts), pts)
        alone = nijenhuis_batch(
            j6,
            projected_constant_field(s6, amb_x[3:])(u6),
            projected_constant_field(s6, amb_y[3:])(u6),
            u6,
        )
        assert np.max(np.abs(full[:, 3:] - alone)) <= TOL.exact_nijenhuis
        assert np.max(np.abs(full[:, :3])) <= TOL.exact_nijenhuis
        # second-order convergence of the bracket against the rotation oracle
        a1 = np.array([1.0, 0.2, -0.3])
        a2 = np.array([-0.4, 1.1, 0.5])
        X2, Y2 = rotation_field(s2, 0, a1), rotation_field(s2, 0, a2)
        pts2 = fibonacci_sphere(9, seed=3)
        expected = pts2 @ cross_matrix(-np.cross(a1, a2)).T
        errs = {
            h: np.linalg.norm(lie_bracket_fd_batch(s2, X2, Y2, pts2, h=h) - expected, axis=1)
            for h in (4e-3, 2e-3, 1e-3)
        }
        for big, small in ((4e-3, 2e-3), (2e-3, 1e-3)):
            ratio = float(np.median(errs[big] / errs[small]))
            assert 3.5 <= ratio <= 4.5, f"convergence ratio {ratio}"
        assert time.perf_counter() - start < 60.0


@pytest.mark.slow
def test_criterion_7_obstruction_experiment_floor():
    with criterion(7, "S2 x S4 energy floor vs committed baseline"):
        start = time.perf_counter()
        assert BASELINE_PATH.exists(), "committed baseline file is missing"
        baseline = json.loads(BASELINE_PATH.read_text())
        bcfg = baseline["config"]
        assert bcfg["degrees"] == [0, 1, 2]
        assert bcfg["restarts"] == 20
        assert bcfg["budget"] == 2000
        assert bcfg["points"] == 100
        cfg = ExperimentConfig(
            manifold=spheres(*[(d, k) for d, k in bcfg["factors"]]),
            degrees=tuple(bcfg["degrees"]),
            restarts=bcfg["restarts"],
            budget=bcfg["budget"],
            points=bcfg["points"],
            frame_pairs=bcfg["frame_pairs"],
            seed=bcfg["seed"],
            generators=bcfg["generators"],
            init_scale=bcfg["init_scale"],
            chart_margin=bcfg["chart_margin"],
        )
        report = energy_floor_experiment(cfg)
        for deg, cell in report.cell_minima().items():
            assert cell > 0.0, f"degree {deg} cell minimum not positive"
            floor = baseline["cell_minima"][str(deg)]
            assert cell >= 0.5 * floor, (
                f"degree {deg}: cell {cell} fell below half the baseline {floor}"
            )
        # deterministic re-run, byte-exact: the 3-restart prefix of the
        # degree-0 cell reproduces the full run's first three energies bit
        # for bit (restart sub-seeds nest by construction)
        full0 = report.results[0].restart_energies[:3]
        pts = chart_safe_points(cfg.manifold, cfg.points, cfg.seed, cfg.chart_margin)
        par0 = GaugeParametrization(cfg.manifold, 0, cfg.generators, cfg.seed)
        rerun = minimize_energy(
            par0, pts, restarts=3, seed=cfg.seed, budget=cfg.budget,
            frame_pairs=cfg.frame_pairs, init_scale=cfg.init_scale,
        ).restart_energies
        assert tuple(rerun) == tuple(full0)
        assert tuple(format(e, ".17g") for e in rerun) == tuple(
            format(e, ".17g") for e in full0
        )
        assert time.perf_counter() - start < 900.0


def test_criterion_8_2_sphere_product_sanity():
    with criterion(8, "degree-0 search recovers the integrable product structure"):
        man = spheres((2, 1.0), (2, 1.0))
        par = GaugeParametrization(man, degree=0, generators=4, seed=7)
        pts = manifold_points(man, 60, seed=7)
        res = minimize_energy(par, pts, restarts=4, seed=7, budget=400)
        assert res.best_energy <= 1e-8, f"best energy {res.best_energy}"
