"""The three benchmark workloads: their CLI commands and seeded input files.

Every input the program receives is written here from the workload seed: one
config file per command, the S^6 points file and the serialised structure
for the components suite.  The same seed gives byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("s2xs4-grid", "audit-sweep", "field-batch")

# Per-scale sizes.  "full" is what the benchmark measures; "tiny" is the
# smoke scale the self-tests run.
SCALES = {
    "full": {
        "grid": {"points": 40, "restarts": 4, "budget": 200},
        "audit": {"curvature": 10000, "gray": 5000, "splitting": 3000, "ricci-star": 3000},
        "field_points": 10000,
    },
    "tiny": {
        "grid": {"points": 6, "restarts": 2, "budget": 12},
        "audit": {"curvature": 20, "gray": 10, "splitting": 10, "ricci-star": 10},
        "field_points": 40,
    },
}

S2 = ((2, 1.0),)
S6 = ((6, 1.0),)
S2XS4 = ((2, 1.0), (4, 1.0))
S6XS6 = ((6, 1.0), (6, 2.0))


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``sphereacs <command> <target> --config <file>``."""

    command: str
    target: str
    factors: tuple[tuple[int, float], ...]
    options: tuple[tuple[str, object], ...]

    @property
    def name(self) -> str:
        return f"{self.command}.{self.target}"

    @property
    def stem(self) -> str:
        """Report file stem the CLI writes for this command."""
        return f"{self.command}_{self.target.replace('-', '_')}"

    def option(self, key: str, default=None):
        return dict(self.options).get(key, default)

    def config_text(self) -> str:
        lines = [f"factor = dim={d} curvature={k!r}" for d, k in self.factors]
        for key, value in self.options:
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def config_path(self, in_dir: Path) -> Path:
        return in_dir / f"{self.stem}.cfg"

    def argv(self, in_dir: Path, out_dir: Path) -> list[str]:
        return [self.command, self.target, "--config", str(self.config_path(in_dir)),
                "--out", str(out_dir)]


def points_path(in_dir: Path) -> Path:
    return in_dir / "s6_points.txt"


def acs_path(in_dir: Path) -> Path:
    return in_dir / "s6xs6_acs.txt"


def commands(workload: str, seed: int, scale: str, in_dir: Path) -> list[Command]:
    """The workload's commands, in the order a round runs them."""
    size = SCALES[scale]
    common = (("seed", seed), ("format", "csv"))
    if workload == "s2xs4-grid":
        grid = size["grid"]
        return [Command("search", "s2xs4", S2XS4, common + (
            ("points", grid["points"]), ("frame_pairs", 1), ("restarts", grid["restarts"]),
            ("budget", grid["budget"]), ("degrees", (0, 1, 2)),
        ))]
    if workload == "audit-sweep":
        samples = size["audit"]
        return [
            Command("audit", "curvature", ((2, 1.0), (4, 1.0), (6, 2.0)),
                    common + (("samples", samples["curvature"]),)),
            Command("audit", "gray", S6, common + (("samples", samples["gray"]),)),
            Command("audit", "splitting", S2XS4, common + (("samples", samples["splitting"]),)),
            Command("audit", "components", S6XS6, common + (
                ("swap_probe", True), ("acs_file", acs_path(in_dir)),
            )),
            Command("audit", "ricci-star", S6XS6, common + (("samples", samples["ricci-star"]),)),
        ]
    if workload == "field-batch":
        points = (("points", size["field_points"]),)
        return [
            Command("nijenhuis", "s2", S2, common + points),
            Command("nijenhuis", "s6-octonion", S6, common + (("points_file", points_path(in_dir)),)),
            Command("nijenhuis", "product", ((2, 1.0), (6, 1.0)),
                    common + points + (("restriction_check", True),)),
            Command("nijenhuis", "gauged", S2XS4,
                    common + points + (("degrees", (2,)), ("frame_pairs", 1))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, scale: str, in_dir: Path) -> None:
    """Write every input file of the workload."""
    in_dir.mkdir(parents=True, exist_ok=True)
    cmds = commands(workload, seed, scale, in_dir)
    if workload == "field-batch":
        rng = np.random.default_rng([seed, 6])
        pts = rng.standard_normal((SCALES[scale]["field_points"], 7))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        points_path(in_dir).write_text(
            "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in pts),
            encoding="utf-8",
        )
    if workload == "audit-sweep":
        # A block-diagonal structure satisfies every claimed component
        # formula, so the audit of the file must pass in full.
        from sphereacs.acs import acs_to_text, random_block_diagonal_acs
        from sphereacs.manifold import ProductManifold, SphereFactor

        man = ProductManifold(tuple(SphereFactor(d, k) for d, k in S6XS6))
        acs_path(in_dir).write_text(
            acs_to_text(random_block_diagonal_acs(man, [seed, 9])), encoding="utf-8"
        )
    for cmd in cmds:
        cmd.config_path(in_dir).write_text(cmd.config_text(), encoding="utf-8")
