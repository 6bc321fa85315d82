"""The four benchmark workloads and the configs they generate from a seed.

Every workload is one ``spinweave run`` config.  The seed picks the
config's shot-sampling seed; the cost of a run does not depend on it.
``exact_n8`` samples nothing, so its surface is the same for every seed.
Jittering its couplings by the seed was tried and dropped: it changed the
oracle distance c_mae (about 7e-13, CSV rounding) by 10% between seeds.

The couplings are restated here rather than imported, so that the oracle
in ``checks.py`` rests on the paper's values and not on the program's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

CHAOTIC = (-1.0, 0.7, 1.5)
INTEGRABLE = (-1.0, 0.0, 1.0)
REGIMES = {"chaotic": CHAOTIC, "integrable": INTEGRABLE}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    head: str  # the column whose distance from the oracle is c_mae
    make: Callable[[random.Random], dict]

    def config(self, seed: int) -> dict:
        return self.make(random.Random(f"{self.name}:{seed}"))


def _shot_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _exact_n8(rng):
    return {"regime": "chaotic", "n": 8, "tau": 0.03, "k": 1, "ell_max": 72,
            "pipeline": "exact", "seed": _shot_seed(rng)}


def _sampled_n8(rng):
    return {"regime": "chaotic", "n": 8, "tau": 0.03, "k": 6, "ell_max": 24,
            "pipeline": "sampled", "shots": 8192, "seed": _shot_seed(rng)}


def _fig4(rng):
    # The bundled fig4 preset, restated so that editing the preset does not
    # change the workload.
    return {"regime": "integrable", "n": 4, "tau": 0.06, "k": 6, "ell_max": 24,
            "pipeline": "mitigated", "shots": 8192, "seed": _shot_seed(rng)}


def _readout_stress(rng):
    # 65536 shots rather than fig4's 8192: inverting a 25% readout error
    # amplifies shot noise, and at 8192 shots c_mae moves by about 11%
    # between seeds.  Sampling cost does not depend on the shot count, and
    # TMEM still dominates.
    cfg = _fig4(rng)
    cfg.update(ell_max=12, shots=65536, noise={"spam_epsilon": 0.25})
    return cfg


WORKLOADS = {w.name: w for w in (
    Workload("exact_n8",
             "paper fig1b chaotic surface at n=8: dense exact evolution and "
             "OTOC algebra, no circuits, noise or mitigation",
             "C_exact", _exact_n8),
    Workload("sampled_n8",
             "only statevector path: weave circuits at n=8 with 8192 shots "
             "per point, no noise or mitigation",
             "C_raw", _sampled_n8),
    Workload("mitigated_fig4",
             "paper fig4 device pipeline: density-matrix noise dominates, "
             "TMEM and ZNE are small",
             "C_corr", _fig4),
    Workload("readout_stress",
             "fig4 at ell_max=12 with 25% readout error and 65536 shots: "
             "TMEM dominates, density-matrix noise is small",
             "C_corr", _readout_stress),
)}


def couplings(cfg: dict) -> tuple[float, float, float]:
    """(J, Bx, Bz) of a generated config."""
    regime = cfg["regime"]
    if isinstance(regime, str):
        return REGIMES[regime]
    return regime["J"], regime["Bx"], regime["Bz"]
