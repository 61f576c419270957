import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereacs.acs import acs_to_text, random_block_diagonal_acs
from sphereacs.cli import (
    DEFAULT_FACTORS,
    FIXED_DIMS,
    RunConfig,
    load_config,
    main,
    parse_config_text,
    rows_to_csv,
    rows_to_records,
    rows_to_table,
)
from sphereacs import fields
from sphereacs.config import TOL
from sphereacs.errors import ConfigError
from sphereacs.identities import (
    component_audit_suite,
    gray_cancellation_audit,
    ricci_star_exchange_audit,
)
from sphereacs.manifold import CurvatureOracle, spheres
from sphereacs.report import AuditReport
from sphereacs.sampling import chart_safe_points, manifold_points
from sphereacs import search
from sphereacs.search import splitting_audit


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


S2 = "factor = dim=2 curvature=1.0\n"
S6XS6 = "factor = dim=6 curvature=1.0\nfactor = dim=6 curvature=2.0\n"
S2XS4 = "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\n"


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


def test_run_config_round_trips_through_config_text():
    # every field away from its default, written out as config lines
    cfg = RunConfig(
        factors=((2, 0.5), (6, 3.0)), seed=3, samples=11, points=13, frame_pairs=3,
        restarts=5, budget=17, generators=6, degrees=(2, 0, 1), init_scale=0.125,
        chart_margin=0.01, swap_probe=True, restriction_check=True, format="records",
        out="elsewhere", acs_file="a.acs", points_file="p.txt",
    )
    default = RunConfig()
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert all(getattr(cfg, name) != getattr(default, name) for name in names)
    lines = [f"factor = dim={d} curvature={k!r}" for d, k in cfg.factors]
    for name in names[1:]:
        value = getattr(cfg, name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{name} = {value}")
    assert parse_config_text("\n".join(lines) + "\n") == cfg


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
    """Exit code 2 with exactly one ``error:`` line and no traceback; returns
    that line."""
    capsys.readouterr()
    assert main(main_args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err
    return captured.err


def test_nonfinite_points_file_is_usage_error(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0 1\nnan 0 1\n")
    cfg = write_config(tmp_path, f"factor = dim=2 curvature=1.0\npoints_file = {pts}\n")
    assert_usage_error(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


def test_non_utf8_points_file_is_usage_error(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_bytes(b"0 0 1\n\xff\xfe 0 1\n")
    cfg = write_config(tmp_path, f"factor = dim=2 curvature=1.0\npoints_file = {pts}\n")
    err = assert_usage_error(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
    assert str(pts) in err


def test_non_utf8_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"factor = dim=2 curvature=1.0\n# caf\xff\npoints = 4\n")
    args = ["nijenhuis", "s2", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert str(cfg) in assert_usage_error(args, capsys)


def test_non_utf8_acs_file_is_usage_error(tmp_path, capsys):
    acs_path = tmp_path / "structure.acs"
    acs_path.write_bytes(b"12\n\xff\n")
    cfg = write_config(tmp_path, f"{S6XS6}acs_file = {acs_path}\n")
    args = ["audit", "components", "--config", cfg, "--out", str(tmp_path / "o")]
    assert str(acs_path) in assert_usage_error(args, capsys)


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("kind", ["config", "points_file", "acs_file"])
def test_byte_order_mark_is_ignored(tmp_path, kind):
    # some editors start UTF-8 files with a byte-order mark: a copy of the
    # input with one gives the exit code and report bytes of the copy without
    def run(bom):
        root = tmp_path / ("bom" if bom else "plain")
        root.mkdir()
        if kind == "acs_file":
            command, target = "audit", "components"
            data = acs_to_text(random_block_diagonal_acs(spheres((6, 1.0), (6, 2.0)), seed=3)).encode()
            text = f"{S6XS6}samples = 1\nacs_file = {root / 'input.txt'}\n"
        else:
            command, target = "nijenhuis", "s2"
            rows = manifold_points(spheres((2, 1.0)), 5, seed=3)
            data = "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in rows).encode()
            text = f"{S2}points = 4\n" + (f"points_file = {root / 'input.txt'}\n" if kind == "points_file" else "")
        (root / "input.txt").write_bytes(BOM + data if bom and kind != "config" else data)
        cfg = root / "run.cfg"
        cfg.write_bytes((BOM if bom and kind == "config" else b"") + f"{text}format = csv\n".encode())
        code = main([command, target, "--config", str(cfg), "--out", str(root / "out")])
        return code, (root / "out" / f"{command}_{target}.csv").read_bytes()

    plain, bom = run(False), run(True)
    assert plain[0] in (0, 1)
    assert bom == plain


def test_byte_order_mark_keeps_the_bad_byte_offset(tmp_path, capsys):
    # the offset in the error counts the mark's three bytes, as in the file
    pts = tmp_path / "pts.txt"
    pts.write_bytes(BOM + b"0 0 1\n\xff\xfe 0 1\n")
    cfg = write_config(tmp_path, f"{S2}points_file = {pts}\n")
    err = assert_usage_error(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
    assert err == f"error: {pts}: not UTF-8 text (invalid start byte at byte 9)\n"


def test_points_file_inside_the_chart_margin_is_usage_error(tmp_path, capsys):
    # file points keep chart_margin from the 4-sphere chart's bad set, as
    # generated points do; a point near the antipode would otherwise pass
    # the validity check, which sees only the first 25 points
    pts = chart_safe_points(spheres((2, 1.0), (4, 1.0)), 30, seed=1)
    u4 = -1.0 + 1e-7
    pts[29, 3:] = [math.sqrt(1.0 - u4 * u4), 0.0, 0.0, 0.0, u4]
    path = tmp_path / "pts.txt"
    np.savetxt(path, pts, fmt="%.17g")
    cfg = write_config(tmp_path, f"{S2XS4}points_file = {path}\n")
    assert_usage_error(["nijenhuis", "gauged", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


def test_nonfinite_curvature_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "factor = dim=2 curvature=inf\n")
    assert_usage_error(["audit", "curvature", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


def test_fd_step_is_unknown_key(tmp_path, capsys):
    # the exact Nijenhuis engine takes no step, so fd_step is no config key,
    # in range or not
    for value in ("1e-5", "0.5"):
        cfg = write_config(tmp_path, f"factor = dim=2 curvature=1.0\nfd_step = {value}\n")
        assert_usage_error(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


@pytest.mark.parametrize("command", [["nijenhuis", "gauged"], ["search", "s2xs4"]])
def test_empty_degrees_is_usage_error(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path, "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\ndegrees =\n"
    )
    assert_usage_error(command + ["--config", cfg, "--out", str(tmp_path / "o")], capsys)


@pytest.mark.parametrize("command", [["nijenhuis", "gauged"], ["search", "s2xs4"]])
def test_duplicate_degrees_is_usage_error(tmp_path, capsys, command):
    # a repeated degree would run the same search cell twice and list it
    # twice in the baseline next to one cell
    cfg = write_config(tmp_path, S2XS4 + "points = 2\nrestarts = 1\nbudget = 2\ndegrees = 0,1,0\n")
    assert_usage_error(command + ["--config", cfg, "--out", str(tmp_path / "o")], capsys)


@pytest.mark.parametrize(
    "key", ["samples", "points", "frame_pairs", "restarts", "budget", "generators"]
)
def test_count_at_2_31_is_config_error(key):
    with pytest.raises(ConfigError):
        RunConfig(**{key: 2**31})
    assert getattr(RunConfig(**{key: 2**31 - 1}), key) == 2**31 - 1


@pytest.mark.parametrize("command, key, value", [
    (["audit", "gray"], "samples", 10**19),
    (["audit", "curvature"], "samples", 2**62),
    (["nijenhuis", "gauged"], "generators", 10**19),
    (["nijenhuis", "s2"], "points", 2**62),
])
def test_oversized_count_is_usage_error(tmp_path, capsys, command, key, value):
    # rejected when the config is parsed, before any array is sized from it
    factors = "".join(
        f"factor = dim={d} curvature={k}\n" for d, k in DEFAULT_FACTORS[tuple(command)]
    )
    cfg = write_config(tmp_path, factors + f"{key} = {value}\n")
    assert_usage_error(command + ["--config", cfg, "--out", str(tmp_path / "o")], capsys)


def test_memory_error_is_usage_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.0 EiB for an array")

    monkeypatch.setattr(search, "make_energy_objective", out_of_memory)
    cfg = write_config(tmp_path, S2XS4 + "points = 4\nrestarts = 2\nbudget = 3\n")
    assert_usage_error(["search", "s2xs4", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


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


@pytest.mark.parametrize("scale", ["1e30", "1e300"])
def test_huge_init_scale_is_usage_error(tmp_path, capsys, scale):
    # a finite but huge init_scale makes the Cayley transform fail in
    # floating point; the objective reports inf, every redraw of the
    # restart fails the same way and the search gives up cleanly
    cfg = write_config(
        tmp_path,
        "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\n"
        f"points = 4\nrestarts = 2\nbudget = 3\ninit_scale = {scale}\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_usage_error(["search", "s2xs4", "--config", cfg, "--out", str(tmp_path / "o")], capsys)


TINY_RUN = st.fixed_dictionaries({
    "command": st.sampled_from([("search", "s2xs4"), ("nijenhuis", "gauged")]),
    "init_scale": st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-6, 300)),
    "chart_margin": st.sampled_from([0.05, 1e-4, 0.01, 0.3, 1.0, 2.5]),
    "degrees": st.one_of(st.lists(st.integers(0, 2), min_size=1, max_size=3), st.just([])),
    "points": st.integers(1, 5),
    "restarts": st.integers(1, 2),
    "budget": st.integers(1, 4),
    "seed": st.integers(0, 3),
})


def assert_exit_contract(command, target, config_text, files=None):
    """Run one command on a config (and input files named in it by key) in
    a fresh directory: exit 0 or 1 with finite report values, or exit 2
    with exactly one error line; never a traceback and never a warning.
    Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        for key, content in (files or {}).items():
            path = Path(tmp) / f"{key}.txt"
            path.write_text(content, encoding="utf-8")
            config_text += f"{key} = {path}\n"
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config_text + "format = csv\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, target, "--config", str(cfg), "--out", tmp])
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1
            return code
        assert code in (0, 1)
        assert err.getvalue() == ""
        rows = read_rows(Path(tmp) / f"{command}_{target.replace('-', '_')}.csv")
    assert rows
    assert all(math.isfinite(float(row["computed"])) for row in rows)
    return code


@settings(max_examples=60, deadline=None)
@given(run=TINY_RUN)
def test_exit_code_contract_on_tiny_runs(run):
    command, target = run["command"]
    keys = ("init_scale", "chart_margin", "points", "restarts", "budget", "seed")
    text = "factor = dim=2 curvature=1.0\nfactor = dim=4 curvature=1.0\nframe_pairs = 1\n"
    text += "".join(f"{key} = {run[key]!r}\n" for key in keys)
    text += "degrees = " + ",".join(str(d) for d in run["degrees"]) + "\n"
    assert_exit_contract(command, target, text)


# Numbers an input file may hold besides valid coordinates and entries.
ODD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e-300", "0", "2", "x"])

# A row-level edit of an otherwise valid input file: replace one entry, scale
# one row, drop or append one entry, drop or duplicate one row, or empty the
# file.  Indices wrap around the file's size.
FILE_EDIT = st.one_of(
    st.just(("keep",)),
    st.tuples(st.just("entry"), st.integers(0, 99), st.integers(0, 99), ODD_NUMBERS),
    st.tuples(st.just("scale"), st.integers(0, 99), st.sampled_from([0.0, 0.5, 1.0 + 1e-5, 1e300])),
    st.tuples(st.just("short"), st.integers(0, 99)),
    st.tuples(st.just("long"), st.integers(0, 99)),
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("repeat"), st.integers(0, 99)),
    st.just(("empty",)),
)


def edited_lines(rows, edit):
    """Text lines of the rows of numbers after one FILE_EDIT."""
    lines = [[format(v, ".17g") for v in row] for row in rows]
    kind, *args = edit
    if kind == "keep":
        return [" ".join(line) for line in lines]
    if kind == "empty":
        return []
    k = args[0] % len(lines)
    if kind == "entry":
        lines[k][args[1] % len(lines[k])] = args[2]
    elif kind == "scale":
        lines[k] = [format(v * args[1], ".17g") for v in rows[k]]
    elif kind == "short":
        lines[k] = lines[k][:-1]
    elif kind == "long":
        lines[k] = lines[k] + ["0"]
    elif kind == "drop":
        del lines[k]
    elif kind == "repeat":
        lines.insert(k, lines[k])
    return [" ".join(line) for line in lines]


FILE_RUN = st.fixed_dictionaries({
    "command": st.sampled_from(
        [("nijenhuis", "s2", S2), ("nijenhuis", "gauged", S2XS4), ("audit", "components", S6XS6)]
    ),
    "seed": st.integers(0, 3),
    "rows": st.integers(1, 4),
    "edit": FILE_EDIT,
})


@settings(max_examples=60, deadline=None)
@given(run=FILE_RUN)
def test_exit_code_contract_on_input_files(run):
    command, target, factors = run["command"]
    man = spheres(*parse_config_text(factors).factors)
    if command == "audit":
        structure = random_block_diagonal_acs(man, run["seed"])
        header, *body = acs_to_text(structure).splitlines()
        rows = [[float(tok) for tok in line.split()] for line in body]
        text = "\n".join([header] + edited_lines(rows, run["edit"])) + "\n"
        files, options = {"acs_file": text}, "samples = 1\n"
    else:
        rows = manifold_points(man, run["rows"], run["seed"])
        text = "".join(line + "\n" for line in edited_lines(rows, run["edit"]))
        files, options = {"points_file": text}, "frame_pairs = 1\n"
    assert_exit_contract(command, target, factors + options, files)


# A factor curvature: log-uniform over 1e-8..1e8, or one no round sphere has.
CURVATURE = st.one_of(
    st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
    st.sampled_from([0.0, -1.0, math.inf]),
)

# Each command with the factor dimensions it is built for.
GENERATED_COMMANDS = [
    ("audit", "curvature", (2, 4, 6)),
    ("audit", "gray", (6,)),
    ("audit", "splitting", (2, 4)),
    ("audit", "components", (6, 6)),
    ("audit", "ricci-star", (6, 6)),
    ("nijenhuis", "s2", (2,)),
    ("nijenhuis", "s6-octonion", (6,)),
    ("nijenhuis", "product", (2, 6)),
]

GENERATED_RUN = st.fixed_dictionaries({
    "command": st.sampled_from(GENERATED_COMMANDS),
    # the command's own factor dimensions, or any list of 2/4/6/8-spheres
    "dims": st.one_of(st.none(), st.lists(st.sampled_from([2, 4, 6, 8]), min_size=1, max_size=3)),
    "curvatures": st.lists(CURVATURE, min_size=3, max_size=3),
    "samples": st.integers(1, 8),
    "points": st.integers(1, 4),
    "seed": st.integers(0, 3),
})


@settings(max_examples=100, deadline=None)
@given(run=GENERATED_RUN)
def test_exit_code_contract_on_generated_configs(run):
    command, target, own_dims = run["command"]
    dims = run["dims"] or own_dims
    curvatures = run["curvatures"][: len(dims)]
    text = "".join(f"factor = dim={d} curvature={k!r}\n" for d, k in zip(dims, curvatures))
    text += "".join(f"{key} = {run[key]}\n" for key in ("samples", "points", "seed"))
    code = assert_exit_contract(command, target, text + "frame_pairs = 1\n")
    # the identity audits hold on every valid product of round spheres
    if all(0.0 < k < math.inf for k in curvatures) and (
        target in ("curvature", "gray", "ricci-star") or (target == "splitting" and dims[0] == 2)
    ):
        assert code == 0


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


def _sign_slip_in_one_component(u, du, w):
    slipped = fields.s2_rotation_derivative(u, du, w)
    slipped[:, 2] *= -1.0
    return slipped


@pytest.mark.parametrize("curvature", [1.0, 4.0])
def test_nijenhuis_s2_asserts_its_integrability(tmp_path, monkeypatch, curvature):
    # the integrable control is an asserted row, so a wrong closed-form
    # derivative exits 1 instead of writing a plausible report.  N is
    # linear in the derivative of J, so a sign on the whole of du x w keeps
    # N = 0 here; a sign on one component does not
    cfg = write_config(tmp_path, f"factor = dim=2 curvature={curvature}\npoints = 40\nformat = csv\n")
    assert main(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    [row] = [r for r in read_rows(tmp_path / "ok" / "nijenhuis_s2.csv") if r["name"] == "integrability"]
    assert (row["asserted"], row["verdict"]) == ("true", "pass")
    assert float(row["tolerance"]) == TOL.exact_nijenhuis * math.sqrt(curvature)
    monkeypatch.setitem(
        fields.FACTOR_BLOCK_BUILDERS, 2, (fields.s2_rotation_blocks, _sign_slip_in_one_component)
    )
    assert main(["nijenhuis", "s2", "--config", cfg, "--out", str(tmp_path / "slip")]) == 1
    [row] = [r for r in read_rows(tmp_path / "slip" / "nijenhuis_s2.csv") if r["name"] == "integrability"]
    assert row["verdict"] == "mismatch"


def test_nijenhuis_s6_energy_positive(tmp_path):
    cfg = write_config(
        tmp_path, "factor = dim=6 curvature=1.0\npoints = 30\nformat = csv\n"
    )
    out = tmp_path / "nij6"
    assert main(["nijenhuis", "s6-octonion", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "nijenhuis_s6_octonion.csv")
    energy = [r for r in rows if r["name"] == "energy"]
    assert float(energy[0]["computed"]) > 0.1
    # the validity row claims the points it checks, the first 25 of 30
    (validity,) = [r for r in rows if r["name"] == "pointwise-validity"]
    assert validity["claim"] == "tangent restriction passes the ACS validator at the first 25 sample points"


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


def test_nijenhuis_gauged_rejects_several_degrees(tmp_path, capsys):
    # the gauged field is built at one degree; a second one must not be
    # dropped silently
    cfg = write_config(tmp_path, S2XS4 + "points = 4\ndegrees = 1,2\n")
    out = str(tmp_path / "o")
    assert_usage_error(["nijenhuis", "gauged", "--config", cfg, "--out", out], capsys)


@pytest.mark.parametrize("command, target", sorted(FIXED_DIMS))
def test_fixed_dimension_commands_reject_other_manifolds(tmp_path, capsys, command, target):
    # same factor count as the default where possible, one dimension changed
    dims = [d for d, _ in DEFAULT_FACTORS[(command, target)]]
    dims[-1] = 4 if dims[-1] != 4 else 6
    cfg = write_config(tmp_path, "".join(f"factor = dim={d} curvature=1.0\n" for d in dims))
    assert_usage_error([command, target, "--config", cfg, "--out", str(tmp_path / "o")], capsys)


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


def test_manifest_config_is_the_run_config(tmp_path):
    cfg = write_config(tmp_path, S2 + "points = 5\nseed = 4\ndegrees = 1,0\nswap_probe = on\n")
    out = tmp_path / "m"
    assert main(["nijenhuis", "s2", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    config = json.loads((out / "nijenhuis_s2_manifest.json").read_text())["config"]
    expected = dataclasses.asdict(
        dataclasses.replace(load_config(cfg), format="csv", out=str(out))
    )
    del expected["out"]
    assert set(config) == {f.name for f in dataclasses.fields(RunConfig)} - {"out"}
    assert config == json.loads(json.dumps(expected))


@pytest.mark.parametrize("command, target", [("audit", "gray"), ("nijenhuis", "s2")])
def test_manifest_records_the_default_manifold(tmp_path, command, target):
    # without a config file the command's default manifold runs, and the
    # manifest names it
    out = tmp_path / "d"
    assert main([command, target, "--out", str(out)]) == 0
    manifest = json.loads((out / f"{command}_{target}_manifest.json").read_text())
    assert manifest["config"]["factors"] == [list(f) for f in DEFAULT_FACTORS[(command, target)]]


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


BASELINES = Path(__file__).resolve().parent.parent / "baselines"


def test_search_baseline_matches_report(tmp_path):
    cfg = write_config(
        tmp_path, S2XS4 + "degrees = 0,1,2\nrestarts = 2\nbudget = 5\npoints = 6\nformat = csv\n"
    )
    out, path = tmp_path / "o", tmp_path / "nested" / "floor.json"
    assert main(["search", "s2xs4", "--config", cfg, "--out", str(out), "--baseline", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    record = json.loads(text)
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    values = {r["name"]: float(r["computed"]) for r in read_rows(out / "search_s2xs4.csv")}
    for deg, energies in record["restart_energies"].items():
        assert energies == [values[f"degree[{deg}].restart[{r}].energy"] for r in range(2)]
        assert record["cell_minima"][deg] == values[f"degree[{deg}].cell-minimum"]
        assert len(record["evals_per_restart"][deg]) == 2
        assert all(1 <= n <= 5 for n in record["evals_per_restart"][deg])
    assert record["floor"] == values["floor"]
    committed = json.loads((BASELINES / "s2xs4_floor.json").read_text())
    assert set(record) == set(committed) | {"evals_per_restart"}
    assert set(record["config"]) == set(committed["config"]) - {"fd_step"}


def test_floor_config_reproduces_committed_baseline():
    cfg = load_config(str(BASELINES / "s2xs4_floor.cfg"))
    expected = json.loads((BASELINES / "s2xs4_floor.json").read_text())["config"]
    del expected["fd_step"]
    keys = ("restarts", "budget", "points", "frame_pairs", "seed", "generators",
            "init_scale", "chart_margin")
    assert {
        "manifold": cfg.manifold(()).describe(),
        "factors": [list(f) for f in cfg.factors],
        "degrees": list(cfg.degrees),
        **{key: getattr(cfg, key) for key in keys},
    } == expected


@pytest.mark.parametrize("blocked", ["--out", "--baseline"])
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, blocked):
    # a path below a regular file cannot be created
    cfg = write_config(tmp_path, S2XS4 + "restarts = 1\nbudget = 2\npoints = 3\n")
    (tmp_path / "file").write_text("")
    paths = {"--out": str(tmp_path / "o"), "--baseline": str(tmp_path / "floor.json")}
    paths[blocked] = str(tmp_path / "file" / "x")
    assert_usage_error(
        ["search", "s2xs4", "--config", cfg, "--out", paths["--out"],
         "--baseline", paths["--baseline"]],
        capsys,
    )


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
    report = AuditReport()
    report.record("x", 1.0, "c")
    csv_text = rows_to_csv(report.checks)
    assert "value,x,1,,,recorded,false,c" in csv_text
    rec = json.loads(rows_to_records(report.checks).splitlines()[0])
    assert rec["expected"] is None
    assert rec["verdict"] == "recorded"


def test_table_render():
    report = AuditReport()
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
        RunConfig(format="xml")
    with pytest.raises(ConfigError):
        RunConfig(degrees=(2, 2))


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
    from sphereacs.sampling import manifold_points

    man = spheres((2, 1.0))
    pts_path = tmp_path / "pts.txt"
    np.savetxt(pts_path, manifold_points(man, 7, seed=3), fmt="%.17g")
    cfg = write_config(
        tmp_path,
        f"factor = dim=2 curvature=1.0\npoints_file = {pts_path}\nformat = csv\n",
    )
    out = tmp_path / "nijf"
    assert main(["nijenhuis", "s2", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "nijenhuis_s2.csv")
    assert sum(1 for r in rows if r["name"].startswith("point[")) == 7


def test_nijenhuis_product_restriction_check_follows_points_file(tmp_path):
    # the points key is ignored with a points_file, so it must not size the
    # restriction check either: 12 file points give the full 10 checks
    pts_path = tmp_path / "pts.txt"
    np.savetxt(pts_path, manifold_points(spheres((2, 1.0), (6, 1.0)), 12, seed=4), fmt="%.17g")
    cfg = write_config(
        tmp_path,
        "factor = dim=2 curvature=1.0\nfactor = dim=6 curvature=1.0\n"
        f"points_file = {pts_path}\npoints = 3\nrestriction_check = true\nformat = csv\n",
    )
    out = tmp_path / "nijpf"
    assert main(["nijenhuis", "product", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "nijenhuis_product.csv")
    assert sum(1 for r in rows if r["name"].startswith("point[")) == 12
    matches = [r for r in rows if r["name"].startswith("restriction[") and r["name"].endswith(".match")]
    assert len(matches) == 10
    assert all(r["verdict"] == "pass" for r in matches)
