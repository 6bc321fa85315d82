"""spinweave: operator spreading in a driven Ising chain.

Classical simulation of the full experiment pipeline: weaved Trotter
circuits, the ancilla-free |F| measurement protocol with fixed-node phase
reconstruction, hardware-style noise injection, transition-matrix readout
mitigation and CNOT zero-noise extrapolation, and deterministic CSV / SVG
export of the resulting spacetime spreading surfaces.
"""

from ._version import __version__
from .config import (ExperimentConfig, MitigationConfig, config_from_dict,
                     load_preset, preset_names, preset_path, validate_config)
from .errors import (CapacityError, ChannelError, ConfigError,
                     MalformedGateError)
from .heatmap import render_heatmap
from .ising import (ExactEvolution, IsingParams, build_classical_hamiltonian,
                    build_hamiltonian, classical_otoc, classical_otoc_bruteforce,
                    classical_otoc_phase, exact_unitary, preset_params)
from .mitigation import TmemSolver, ZnePair, project_simplex, zne_correct
from .noise import (NoiseModel, ShotResult, build_confusion_matrix,
                    depolarizing_kraus, empirical_distribution,
                    estimate_confusion_matrix, fold_cnots, sample_counts,
                    simulate_noisy)
from .otoc import (build_surface, commutator_exact, commutator_xy_exact,
                   fabs_measurement_circuit, fixed_node_commutator,
                   fixed_node_otoc, otoc_exact)
from .qsim import (BitstringDistribution, Circuit, DensityMatrix, Gate,
                   StateVector, align_global_phase, apply_channel,
                   apply_circuit, apply_circuit_dm, apply_gate,
                   circuit_unitary, cnot, cnot_count, cz, dagger, gate_matrix,
                   h_gate, measurement_distribution, pz, rx, rzz, s_gate,
                   sdg_gate, x_gate, y_gate, z_gate)
from .surface_io import SurfaceTable, diff_surfaces, load_surface, write_surface
from .weave import (WeaveSchedule, magic_rzz, rzz_decomposition, trotter_step,
                    weave_circuit, weave_operators)
