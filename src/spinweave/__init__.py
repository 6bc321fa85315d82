"""spinweave: operator spreading in a driven Ising chain.

Classical simulation of the full experiment pipeline: weaved Trotter
circuits, the ancilla-free |F| measurement protocol with fixed-node phase
reconstruction, hardware-style noise injection, transition-matrix readout
mitigation and CNOT zero-noise extrapolation, and deterministic CSV / SVG
export of the resulting spacetime spreading surfaces.

Only the documented entry points live here; import every other name from
its submodule (``spinweave.qsim``, ``spinweave.noise``, ...).
"""

from ._version import __version__
from .config import config_from_dict, validate_config
from .errors import ConfigError
from .ising import preset_params
from .otoc import build_surface, fixed_node_commutator, otoc_exact
from .surface_io import SurfaceTable, load_surface, write_surface
