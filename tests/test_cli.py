import json
import warnings

import numpy as np
import pytest

from sphereacs.acs import acs_to_text, random_block_diagonal_acs
from sphereacs.cli import (
    RunConfig,
    load_config,
    main,
    parse_config_text,
    rows_to_csv,
    rows_to_records,
    rows_to_table,
)
from sphereacs.errors import ConfigError
from sphereacs.identities import (
    component_audit_suite,
    gray_cancellation_audit,
    ricci_star_exchange_audit,
)
from sphereacs.manifold import CurvatureOracle, spheres
from sphereacs.report import AuditReport
from sphereacs import search
from sphereacs.search import splitting_audit


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL = """
# smoke configuration
factor = dim=2 curvature=1.0
factor = dim=4 curvature=1.0
samples = 40
points = 10
frame_pairs = 1
restarts = 2
budget = 25
degrees = 0
seed = 5
format = csv
"""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_config_full():
    cfg = parse_config_text(SMALL)
    assert cfg.factors == ((2, 1.0), (4, 1.0))
    assert cfg.samples == 40
    assert cfg.degrees == (0,)
    assert cfg.format == "csv"
    assert cfg.seed == 5


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("wat = 1\n")


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("samples = many\n")
    with pytest.raises(ConfigError):
        parse_config_text("swap_probe = maybe\n")
    with pytest.raises(ConfigError):
        parse_config_text("factor = dim=2\n")
    with pytest.raises(ConfigError):
        parse_config_text("factor = dim=2 curvature=1.0 spin=3\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_text("samples = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("format = yaml\n")


def test_parse_config_comments_and_degrees():
    cfg = parse_config_text("degrees = 0, 1, 2  # grid\n")
    assert cfg.degrees == (0, 1, 2)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("definitely-not-here.cfg")


def test_load_config_env_dir(tmp_path, monkeypatch):
    (tmp_path / "shared.cfg").write_text("seed = 11\nfactor = dim=2 curvature=1.0\n")
    monkeypatch.setenv("SPHEREACS_CONFIG_DIR", str(tmp_path))
    cfg = load_config("shared.cfg")
    assert cfg.seed == 11


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_code_contract(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "factor = dim=6 curvature=1.0\nsamples = 30\n")
    assert main(["audit", "gray", "--config", cfg, "--out", out]) == 0
    # config error -> 2
    bad = write_config(tmp_path, "nope = 3\n", "bad.cfg")
    assert main(["audit", "gray", "--config", bad, "--out", out]) == 2
    # config file without a manifold spec -> 2
    nofac = write_config(tmp_path, "samples = 10\n", "nofac.cfg")
    assert main(["audit", "gray", "--config", nofac, "--out", out]) == 2
    # unknown suite -> argparse usage error 2
    assert main(["audit", "nope", "--out", out]) == 2
    assert main(["--help"]) == 0


def assert_usage_error(main_args, capsys):
    """Exit code 2 with exactly one ``error:`` line and no traceback."""
    capsys.readouterr()
    assert main(main_args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err


def test_nonfinite_points_file_is_usage_error(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0 1\nnan 0 1\n")
    cfg = write_config(tmp_path, f"factor = dim=2 curvature=1.0\npoints_file = {pts}\n")
    assert_usage_error(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


def test_nonfinite_curvature_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "factor = dim=2 curvature=inf\n")
    assert_usage_error(["audit", "curvature", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


def test_fd_step_out_of_range_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "factor = dim=2 curvature=1.0\nfd_step = 0.5\n")
    assert_usage_error(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


@pytest.mark.parametrize("command", [["nijenhuis", "gauged"], ["search", "s2xs4"]])
def test_empty_degrees_is_usage_error(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path, "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\ndegrees =\n"
    )
    assert_usage_error(command + ["--config", cfg, "--out", str(tmp_path / "o")], capsys)


def test_search_error_is_usage_error(tmp_path, capsys, monkeypatch):
    # an objective that is never finite makes the search give up after its
    # resamples
    monkeypatch.setattr(
        search, "make_energy_objective", lambda *args, **kwargs: lambda theta: float("nan")
    )
    cfg = write_config(
        tmp_path,
        "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\n"
        "points = 4\nrestarts = 2\nbudget = 3\n",
    )
    assert_usage_error(["search", "s2xs4", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


@pytest.mark.parametrize("key", ["init_scale", "chart_margin"])
def test_nonfinite_scale_is_usage_error(tmp_path, capsys, key):
    # rejected by the config, before any restart draws from it: no numpy
    # warning, no wasted resamples
    cfg = write_config(
        tmp_path,
        "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\n"
        f"points = 4\nrestarts = 2\nbudget = 3\n{key} = inf\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_usage_error(["search", "s2xs4", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


def test_audit_unsuitable_manifold_is_config_error(tmp_path):
    cfg = write_config(tmp_path, "factor = dim=4 curvature=1.0\n")
    assert main(["audit", "splitting", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["audit", "components", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# Audit suites through the CLI
# ---------------------------------------------------------------------------

def read_rows(path):
    import csv
    import io

    reader = csv.reader(io.StringIO(path.read_text()))
    header = next(reader)
    return [dict(zip(header, line)) for line in reader]


def test_audit_curvature_and_splitting(tmp_path):
    cfg = write_config(
        tmp_path,
        "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\nsamples = 60\nformat = csv\n",
    )
    out = tmp_path / "aud"
    assert main(["audit", "curvature", "--config", cfg, "--out", str(out)]) == 0
    assert main(["audit", "splitting", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "audit_splitting.csv")
    names = {r["name"] for r in rows}
    assert {"oracle-equivalence", "nonpositivity", "split-zero"} <= names
    assert all(r["verdict"] == "pass" for r in rows if r["kind"] == "check")


def test_audit_components_swap_probe_records_mismatches(tmp_path):
    cfg = write_config(
        tmp_path,
        "factor = dim=6 curvature=1.0\nfactor = dim=6 curvature=1.0\n"
        "samples = 2\nswap_probe = true\nformat = csv\n",
    )
    out = tmp_path / "comp"
    # recorded-only mismatches must not affect the exit code
    assert main(["audit", "components", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "audit_components.csv")
    mismatch = [r for r in rows if r["verdict"] == "mismatch"]
    assert mismatch, "swap probe must produce recorded mismatch rows"
    assert all(r["asserted"] == "false" for r in mismatch)
    swap_same = [r for r in rows if r["name"].startswith("swap.star-same-factor[")]
    assert any(
        float(r["computed"]) == 0.0 and float(r["expected"]) == 1.0 for r in swap_same
    )
    manifest = json.loads((out / "audit_components_manifest.json").read_text())
    assert manifest["counts"]["fail"] == 0
    assert manifest["counts"]["mismatch"] == len(mismatch)
    total = sum(manifest["counts"].values())
    assert total == len(rows)


S6XS6 = "factor = dim=6 curvature=1.0\nfactor = dim=6 curvature=2.0\n"
S2XS4 = "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\n"


@pytest.mark.parametrize(
    "suite, factors, options, library",
    [
        ("curvature", S2XS4, "", lambda man: CurvatureOracle(man).symmetry_audit(12, 3)),
        ("gray", S6XS6, "", lambda man: gray_cancellation_audit(man, 12, 3)),
        ("splitting", S2XS4, "", lambda man: splitting_audit(man, 12, 3)),
        (
            "components", S6XS6, "swap_probe = true\n",
            lambda man: component_audit_suite(
                man, 12, 3, random_block_diagonal_acs(man, 4), swap_probe=True
            ),
        ),
        ("ricci-star", S6XS6, "", lambda man: ricci_star_exchange_audit(man, 12, 3)),
    ],
)
def test_audit_command_only_dispatches(tmp_path, suite, factors, options, library):
    man = spheres(*parse_config_text(factors).factors)
    if suite == "components":
        acs_path = tmp_path / "structure.acs"
        acs_path.write_text(acs_to_text(random_block_diagonal_acs(man, 4)))
        options += f"acs_file = {acs_path}\n"
    cfg = write_config(tmp_path, factors + options + "samples = 12\nseed = 3\nformat = csv\n")
    out = tmp_path / "out"
    assert main(["audit", suite, "--config", cfg, "--out", str(out)]) == 0
    written = (out / f"audit_{suite.replace('-', '_')}.csv").read_text(encoding="utf-8")
    assert written == rows_to_csv(library(man).checks)


def test_audit_ricci_star(tmp_path):
    cfg = write_config(
        tmp_path,
        "factor = dim=6 curvature=1.0\nfactor = dim=6 curvature=2.0\nsamples = 30\nformat = csv\n",
    )
    out = tmp_path / "rs"
    assert main(["audit", "ricci-star", "--config", cfg, "--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# Nijenhuis runs
# ---------------------------------------------------------------------------

def test_nijenhuis_s2_energy_row(tmp_path):
    cfg = write_config(
        tmp_path, "factor = dim=2 curvature=1.0\npoints = 40\nformat = csv\n"
    )
    out = tmp_path / "nij"
    assert main(["nijenhuis", "s2", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "nijenhuis_s2.csv")
    energy = [r for r in rows if r["name"] == "energy"]
    assert len(energy) == 1
    assert float(energy[0]["computed"]) <= 1e-10
    assert sum(1 for r in rows if r["name"].startswith("point[")) == 40


def test_nijenhuis_s6_energy_positive(tmp_path):
    cfg = write_config(
        tmp_path, "factor = dim=6 curvature=1.0\npoints = 30\nformat = csv\n"
    )
    out = tmp_path / "nij6"
    assert main(["nijenhuis", "s6-octonion", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "nijenhuis_s6_octonion.csv")
    energy = [r for r in rows if r["name"] == "energy"]
    assert float(energy[0]["computed"]) > 0.1


def test_nijenhuis_product_restriction_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        "factor = dim=2 curvature=1.0\nfactor = dim=6 curvature=1.0\n"
        "points = 8\nrestriction_check = true\nformat = csv\n",
    )
    out = tmp_path / "nijp"
    assert main(["nijenhuis", "product", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "nijenhuis_product.csv")
    matches = [r for r in rows if ".match" in r["name"]]
    assert matches
    assert all(r["verdict"] == "pass" for r in matches)


def test_nijenhuis_gauged_runs(tmp_path):
    cfg = write_config(
        tmp_path,
        "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\n"
        "points = 8\ndegrees = 1\nformat = csv\n",
    )
    out = tmp_path / "nijg"
    assert main(["nijenhuis", "gauged", "--config", cfg, "--out", str(out)]) == 0


def test_nijenhuis_wrong_manifold_rejected(tmp_path):
    cfg = write_config(tmp_path, "factor = dim=4 curvature=1.0\n")
    assert main(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# Search runs
# ---------------------------------------------------------------------------

def test_search_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["search", "s2xs4", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["search", "s2xs4", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    csv1 = (out1 / "search_s2xs4.csv").read_bytes()
    csv2 = (out2 / "search_s2xs4.csv").read_bytes()
    assert csv1 == csv2
    # manifests agree apart from the wall-clock field
    m1 = [l for l in (out1 / "search_s2xs4_manifest.json").read_text().splitlines()
          if "wall_clock" not in l]
    m2 = [l for l in (out2 / "search_s2xs4_manifest.json").read_text().splitlines()
          if "wall_clock" not in l]
    assert m1 == m2


def test_audit_byte_identical_reruns(tmp_path):
    cfg = write_config(
        tmp_path, "factor = dim=6 curvature=1.0\nsamples = 40\nformat = csv\n"
    )
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(["audit", "gray", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["audit", "gray", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "audit_gray.csv").read_bytes() == (out2 / "audit_gray.csv").read_bytes()


def test_search_seed_changes_output(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["search", "s2xs4", "--config", cfg, "--out", str(out1), "--seed", "7"])
    main(["search", "s2xs4", "--config", cfg, "--out", str(out2), "--seed", "8"])
    assert (out1 / "search_s2xs4.csv").read_bytes() != (out2 / "search_s2xs4.csv").read_bytes()


def test_search_s6_trivial_family_constant_energies(tmp_path):
    cfg = write_config(
        tmp_path,
        "factor = dim=6 curvature=1.0\npoints = 12\nrestarts = 3\nbudget = 5\n"
        "degrees = 0\ngenerators = 0\nformat = csv\n",
    )
    out = tmp_path / "s6"
    assert main(["search", "s6", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "search_s6.csv")
    energies = {
        float(r["computed"]) for r in rows
        if r["name"].endswith(".energy") and "restart" in r["name"]
    }
    assert len(energies) == 1  # the gauge family is trivial
    assert energies.pop() > 0.1


def test_search_wrong_manifold_rejected(tmp_path):
    cfg = write_config(tmp_path, "factor = dim=2 curvature=1.0\n")
    assert main(["search", "s2xs4", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# Formats
# ---------------------------------------------------------------------------

def test_records_and_csv_same_numeric_content(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out_csv, out_rec = tmp_path / "fc", tmp_path / "fr"
    main(["search", "s2xs4", "--config", cfg, "--out", str(out_csv), "--format", "csv"])
    main(["search", "s2xs4", "--config", cfg, "--out", str(out_rec), "--format", "records"])
    rows_csv = read_rows(out_csv / "search_s2xs4.csv")
    rec_lines = (out_rec / "search_s2xs4.records").read_text().splitlines()
    rows_rec = [json.loads(line) for line in rec_lines]
    assert len(rows_csv) == len(rows_rec)
    for rc, rr in zip(rows_csv, rows_rec):
        assert rc["name"] == rr["name"]
        # identical 17-significant-digit numeric content
        assert rc["computed"] == format(rr["computed"], ".17g")


def test_row_serialisers_handle_missing_fields():
    report = AuditReport("demo")
    report.record("x", 1.0, "c")
    csv_text = rows_to_csv(report.checks)
    assert "value,x,1,,,recorded,false,c" in csv_text
    rec = json.loads(rows_to_records(report.checks).splitlines()[0])
    assert rec["expected"] is None
    assert rec["verdict"] == "recorded"


def test_table_render():
    report = AuditReport("demo")
    report.add("alpha", 1.0, 1.0, 1e-9, "claim text")
    report.record("x", 1.0, "c")
    text = rows_to_table("demo", report.checks)
    assert text.splitlines()[0] == "demo"
    assert text.splitlines()[-2].split() == ["alpha", "1", "1", "pass"]
    assert text.splitlines()[-1].split() == ["x", "1", "-", "recorded"]


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(points=0)
    with pytest.raises(ConfigError):
        RunConfig(fd_step=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(format="xml")


# ---------------------------------------------------------------------------
# File inputs
# ---------------------------------------------------------------------------

def test_components_audits_serialised_structure(tmp_path):
    from sphereacs.acs import acs_to_text, swap_acs
    from sphereacs.manifold import spheres

    man = spheres((6, 1.0), (6, 1.0))
    acs_path = tmp_path / "swap.acs"
    acs_path.write_text(acs_to_text(swap_acs(man)))
    cfg = write_config(
        tmp_path,
        "factor = dim=6 curvature=1.0\nfactor = dim=6 curvature=1.0\n"
        f"samples = 1\nacs_file = {acs_path}\nformat = csv\n",
    )
    out = tmp_path / "comp"
    assert main(["audit", "components", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "audit_components.csv")
    same = [r for r in rows if r["name"].startswith("star-same-factor[") and r["verdict"] == "mismatch"]
    assert same, "the serialised swap structure must reproduce the recorded mismatches"
    # a malformed matrix file is a config error
    acs_path.write_text("not a matrix\n")
    assert main(["audit", "components", "--config", cfg, "--out", str(out)]) == 2


def test_nijenhuis_points_file(tmp_path):
    from sphereacs.manifold import spheres
    from sphereacs.sampling import manifold_points, save_points

    man = spheres((2, 1.0))
    pts_path = tmp_path / "pts.txt"
    save_points(pts_path, manifold_points(man, 7, seed=3))
    cfg = write_config(
        tmp_path,
        f"factor = dim=2 curvature=1.0\npoints_file = {pts_path}\nformat = csv\n",
    )
    out = tmp_path / "nijf"
    assert main(["nijenhuis", "s2", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "nijenhuis_s2.csv")
    assert sum(1 for r in rows if r["name"].startswith("point[")) == 7
