"""The benchmark's workloads: the CLI runs each one makes, built from a seed.

The program sees only the CLI arguments and the config files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Expected:
    """The outcome pinned for one scenario over the workload's whole seed range."""

    stop_reason: str
    blew_up: bool
    checks: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Run:
    """One CLI invocation, made in a fresh directory that holds `files`.

    Runs with the same `key` have the same inputs, so their rows.csv files
    must match byte for byte.
    """

    key: str
    argv: Tuple[str, ...]
    files: Dict[str, str]
    expected: Dict[str, Expected]


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n: int
    runs: Callable[[int], List[Run]]

    @property
    def state_bytes(self) -> int:
        """Bytes of one complex128 state array, computed from the grid."""
        return 16 * self.n**self.dim


GLOBAL = Expected("horizon_reached", False, {"global_existence": "pass"})
COLLAPSE = Expected("tail_unresolved", True, {"concentration": "pass"})
BOUND = Expected("tail_unresolved", True, {"blowup_time_bound": "pass", "concentration": "pass"})

CATALOG = {
    "global_bump_0p5": GLOBAL,
    "global_bump_0p9": GLOBAL,
    "global_bump_1p0": GLOBAL,
    "soliton_free": Expected("horizon_reached", False),
    "collapse_free_1p2": COLLAPSE,
    "bound_negative_0p9": BOUND,
    "bound_negative_0p99": BOUND,
    "decay_constant": GLOBAL,
}


def _config(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def catalog_runs(seed: int) -> List[Run]:
    # The catalog is fixed by the package; the seed changes nothing.
    return [Run("catalog", ("suite",), {}, CATALOG)]


def collapse_runs(seed: int) -> List[Run]:
    # The blow-up time falls from about 0.30 to 0.24 across the scale range,
    # so one draw per seed would put that spread into wall_s. Each seed
    # draws one offset and takes four scales stratified across the range,
    # ordered low, high, low-middle, high-middle so that a partial cycle
    # through them stays balanced.
    u = random.Random(seed).random()
    runs = []
    for i in (0, 3, 1, 2):
        scale = f"{1.15 + 0.10 * (i + u) / 4:.6f}"
        text = _config(
            id="collapse_2d", dim=2, n=128, box=10.0,
            initial_data="scaled_ground_state", initial_scale=scale,
            damping="negative_bump", damping_amplitude=1.0, damping_sigma=2.0,
            record_every=10, outputs="outputs",
        )
        runs.append(Run(f"collapse_2d@{scale}", ("evolve", "--config", "run.cfg"),
                        {"run.cfg": text}, {"collapse_2d": COLLAPSE}))
    return runs


def coldstart_runs(seed: int) -> List[Run]:
    # About 77 steps at the adaptive dt (~1.3e-4); four rows at record_every 20.
    amplitude = f"{random.Random(seed).uniform(0.5, 1.5):.6f}"
    text = _config(
        id="coldstart_3d", dim=3, n=64, box=10.0,
        initial_data="scaled_ground_state", initial_scale=0.9,
        damping="gaussian_bump", damping_amplitude=amplitude, damping_sigma=2.0,
        t_end=0.01, record_every=20, outputs="outputs",
    )
    return [Run(f"coldstart_3d@{amplitude}", ("evolve", "--config", "run.cfg"),
                {"run.cfg": text}, {"coldstart_3d": GLOBAL})]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("catalog_1d", 1, 512, catalog_runs),
        Workload("collapse_2d", 2, 128, collapse_runs),
        Workload("coldstart_3d", 3, 64, coldstart_runs),
    )
}
