#!/usr/bin/env python3
"""sphereacs benchmark: one workload, driven through the public CLI entry.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the package is imported from
``src/``).  The benchmark writes the workload's inputs from the seed, then
runs the workload's CLI commands in this process, one after another, in
rounds until ``--seconds`` have passed (at least two rounds).  Each command
and its output checks are one operation.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See perfbench/README.md for the metric definitions.
"""

import os
import sys

# One BLAS thread, pinned before anything imports numpy.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
PINNED_BEFORE_NUMPY = "numpy" not in sys.modules

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import PER_LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, commands, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
MIN_ROUNDS = 2
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(RuntimeError):
    pass


@dataclass
class Round:
    traced: bool
    wall_s: float = 0.0
    report_bytes: int = 0
    command_ids: set = field(default_factory=set)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is the smoke scale of the self-tests")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def measure_setup(workload: str, seed: int, scale: str, in_dir: Path) -> float:
    """Median wall time of a fresh interpreter that imports sphereacs and
    writes the workload's inputs; the last repeat's files are the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--scale", scale, "--setup-only", str(in_dir)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"input generation failed:\n{proc.stderr}")
    return statistics.median(times)


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_pinned_before_numpy_import": PINNED_BEFORE_NUMPY,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def run_round(cmds, in_dir: Path, out_dir: Path, seed: int, tally: Tally, tracer,
              first_id: int) -> Round:
    """Run every command once, closed loop, and check its outputs; with a
    tracer, command ``k`` of the round gets span command id ``first_id + k``."""
    from sphereacs import cli

    from checks import check_command

    rnd = Round(traced=tracer is not None)
    out_dir.mkdir(parents=True)
    for offset, cmd in enumerate(cmds):
        argv = cmd.argv(in_dir, out_dir)
        root = None
        if tracer is not None:
            rnd.command_ids.add(first_id + offset)
            root = tracer.begin_command(first_id + offset, f"cli.{cmd.name}")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
        except Exception:  # a raising command is a failed operation, not a crash
            status = None
            print(traceback.format_exc(), file=sys.stderr)
        rnd.wall_s += time.perf_counter() - t0
        if root is not None:
            tracer.end_command(root)
        tally.record(check_command(cmd, status, out_dir, seed))
    rnd.report_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    return rnd


def determinism_problems(first: Path, second: Path) -> list[str]:
    """Every report of the second round must equal the first byte for byte
    (manifests carry a wall-clock field and are exempt)."""
    reports = sorted(first.glob("*.csv"))
    if not reports:
        return ["determinism: no reports to compare"]
    return [f"determinism: {p.name} differs between two runs of the same config"
            for p in reports
            if not (second / p.name).is_file() or (second / p.name).read_bytes() != p.read_bytes()]


def floor_energy(out_dir: Path) -> float:
    from checks import read_report

    report = out_dir / "search_s2xs4.csv"
    if not report.is_file():
        return 0.0
    return next((r.computed for r in read_report(report) if r.name == "floor"), 0.0)


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool, scale: str = "full") -> dict:
    """Run one workload and return the result object the benchmark prints."""
    out = OUT_ROOT / workload
    shutil.rmtree(out, ignore_errors=True)
    in_dir = out / "inputs"
    setup_s = measure_setup(workload, seed, scale, in_dir)
    cmds = commands(workload, seed, scale, in_dir)
    env = environment(workload, seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    # A traced run alternates untraced and traced rounds, so the tracing
    # overhead is measured against untraced rounds of the same time span.
    tracer = Tracer() if traced else None
    tally = Tally()
    rounds: list[Round] = []
    loop_start = time.perf_counter()
    while True:
        traced_round = traced and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        if traced_round:
            tracer.install()
        try:
            rnd = run_round(cmds, in_dir, out / f"round-{len(rounds)}", seed, tally,
                            tracer if traced_round else None, len(rounds) * len(cmds))
        finally:
            if traced_round:
                tracer.uninstall()
        rounds.append(rnd)
        last = time.perf_counter() - t0
        print(f"round {len(rounds) - 1}: {'traced' if rnd.traced else 'untraced'} "
              f"wall_s={rnd.wall_s:.4f} ({last:.2f} s with checks)")
        if len(rounds) > 2:
            shutil.rmtree(out / f"round-{len(rounds) - 1}")
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - loop_start + last > seconds:
            break
    tally.record(determinism_problems(out / "round-0", out / "round-1"))

    if traced:
        units = PER_LAYER_METRICS
        metrics = per_layer_metrics(tracer, rounds, out, tally)
    else:
        units = END_TO_END_UNITS
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
    for problem in tally.problems:
        print(f"FAIL {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out / "environment.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def per_layer_metrics(tracer, rounds: list[Round], out: Path, tally: Tally) -> dict:
    spans = tracer.spans()
    spans.save(out / "spans.npz")
    traced = [r for r in rounds if r.traced]
    per_round = []
    for rnd in traced:
        m = layer_metrics(spans, rnd.command_ids)
        m["cli.report.bytes"] = rnd.report_bytes
        per_round.append(m)
    metrics = {name: statistics.median_low(m[name] for m in per_round) for name in per_round[0]}
    metrics["search.floor_energy"] = floor_energy(out / "round-0")
    metrics["bench.trace_overhead_s"] = (
        statistics.median(r.wall_s for r in traced)
        - statistics.median(r.wall_s for r in rounds if not r.traced)
    )
    metrics["bench.failed_frac"] = tally.failed / tally.attempted
    return metrics


def add_sources() -> bool:
    """Put the checkout's ``src/`` on the import path; False when the
    checkout holds no sphereacs sources."""
    if not (SRC / "sphereacs" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not add_sources():
        print(f"error: no sphereacs sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        import sphereacs.cli  # noqa: F401  (set-up time covers the package import)

        write_inputs(args.workload, args.seed, args.scale, Path(args.setup_only))
        return 0
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:<42} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
