"""The configs that CI runs besides the bundled presets.

``tools/sweep.py`` writes each config here to ``<name>.json`` and runs it,
with every preset, at --jobs 1 and --jobs 2, with RuntimeWarning and
DeprecationWarning as errors, and requires the two output trees to be
identical; CI runs that sweep.  Each config below covers a path that no
bundled preset runs, for the reason in the comment above it.  The seed-1
configs of the benchmark workloads (``spinbench/workloads.py``) are
included too, as ``workload_<name>``, so that the sweep also runs what the
benchmark times.  Nothing here imports spinweave.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BASE = {"regime": "chaotic", "n": 4, "tau": 0.03, "k": 6, "ell_max": 12, "seed": 3}
BASE_N6 = {**BASE, "n": 6}
CAP = {"regime": "chaotic", "tau": 0.03, "k": 2, "seed": 3}
EDGE_RATES = {"cnot_error": [0.004, 0.006, 0.008, 0.01, 0.012]}

# name -> config, each with the reason it is in the sweep
CONFIGS = {
    # no preset runs trotter_exact, sampled or noisy, so one small config
    # each brings the statevector engine and the unmitigated density path in
    **{pipeline: {**BASE, "pipeline": pipeline}
       for pipeline in ("trotter_exact", "sampled", "noisy")},
    # no preset runs mitigated without ZNE (fold 1 only) or with ZNE before TMEM
    "mitigated_no_zne": {**BASE, "pipeline": "mitigated", "mitigation": {"zne": False}},
    "mitigated_zne_then_tmem": {**BASE, "pipeline": "mitigated",
                                "mitigation": {"order": "zne_then_tmem"}},
    # no preset runs the density engine above n=4 or gives each edge its own
    # CNOT rate, so a noisy and a mitigated n=6 config do both, the mitigated
    # one through the fold-3 readout of ZNE
    **{f"{pipeline}_n6": {**BASE_N6, "pipeline": pipeline, "noise": EDGE_RATES}
       for pipeline in ("noisy", "mitigated")},
    # no preset or other config runs a pipeline at its qubit cap, so five
    # short configs run each pipeline at n=10 (n=8 on the density engine),
    # with k=2 so that the later circuits hold both a cell and a shift
    **{f"{pipeline}_n{n}": {**CAP, "n": n, "ell_max": ell_max, "pipeline": pipeline}
       for pipeline, n, ell_max in (("exact", 10, 4), ("trotter_exact", 10, 4),
                                    ("sampled", 10, 4), ("noisy", 8, 2),
                                    ("mitigated", 8, 2))},
    # the statevector engine runs the light cone of X_1, which grows one site
    # per Trotter step, and the configs above stop at two steps (3 qubits), so
    # an n=8 trotter_exact run at k=1 takes the cone from 2 qubits at ell=1 to
    # the whole chain from ell=7 on
    "trotter_exact_cone": {"regime": "chaotic", "n": 8, "tau": 0.03, "k": 1,
                           "ell_max": 12, "seed": 3, "pipeline": "trotter_exact"},
    # an integrable step has no RX gates (Bx = 0), and no other config runs
    # that weave on the statevector engine while the cone grows, so an
    # integrable n=8 sampled run at k=1 does, its sites off the cone reading
    # |0...0> without a circuit run
    "sampled_integrable_cone": {"regime": "integrable", "n": 8, "tau": 0.06, "k": 1,
                                "ell_max": 12, "seed": 3, "pipeline": "sampled"},
    # apart from the readout_stress workload at n=4, no config runs TMEM under
    # high readout error (25% SPAM), so a mitigated n=6 run at spam_epsilon
    # 0.25 runs it on 64 outcomes, where a solve takes up to 22 active-set passes
    "mitigated_spam_n6": {**BASE_N6, "pipeline": "mitigated",
                          "noise": {"spam_epsilon": 0.25}},
    # no config runs the magic cell (PZ(+-pi/2), H) on the density engine above
    # n=4, so an integrable n=8 mitigated run does, its cell at k tau = pi/4
    # (2 J k tau = -pi/2) and two steps holding a shift and a cell
    "mitigated_magic_n8": {"regime": "integrable", "n": 8, "tau": math.pi / 8, "k": 2,
                           "ell_max": 2, "magic": True, "seed": 3,
                           "pipeline": "mitigated"},
    # no config runs the magic cell on the statevector engine, so a chaotic
    # n=6 sampled run does, its cell at k tau = pi/4 (2 J k tau = -pi/2) and
    # its odd time indices holding a shift before the cells
    "sampled_magic_n6": {"regime": "chaotic", "n": 6, "tau": math.pi / 8, "k": 2,
                         "ell_max": 8, "magic": True, "seed": 3, "pipeline": "sampled"},
    # the presets run the Y probe only on the all-zeros state (s9), so the
    # uniform-superposition and maximally mixed states meet it in no sweep;
    # one short exact n=6 config each runs those two branches of the kernel
    **{f"exact_{tag}_y": {"regime": "chaotic", "n": 6, "tau": 0.03, "ell_max": 12,
                          "seed": 3, "pipeline": "exact", "state": state, "probe": "y"}
       for tag, state in (("plus", "plus"), ("mixed", "maximally_mixed"))},
}


def all_configs() -> dict[str, dict]:
    """:data:`CONFIGS` and the benchmark workloads' seed-1 configs, by file stem."""
    sys.path.insert(0, str(ROOT / "spinbench"))
    from workloads import WORKLOADS
    return {**CONFIGS, **{f"workload_{name}": w.config(1) for name, w in WORKLOADS.items()}}
