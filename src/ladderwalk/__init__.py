"""Discrete-time quantum walks on a line and on a two-rail ladder.

Simulation of conventional, split-step and mixed ladder protocols in
position space, decomposition of the ladder walk into its two
quasi-momentum sectors, and the derived analytics: magnetization-like
sector parameters, coin density matrices, entropies and mutual
information.  The :mod:`ladderwalk.cli` module exposes batch experiment
commands; their ``run_*`` functions also report each step's spread
(``walk1d``'s second moment) and the distance between the ladder's side
profiles (``tv_sides``).
"""

from .core import (
    DEFAULT_GAMMA_Y,
    CoinSpinor,
    Conventional,
    Ladder,
    LadderState,
    LatticeOverflowError,
    ProtocolSpec,
    SplitStep,
    WalkerState1D,
    evolve,
    localized_ladder,
    localized_walker,
    position_distribution,
)
from .sectors import (
    Angle,
    EffectiveAngles,
    SectorPair,
    WalkPattern,
    effective_angles,
    reduce_angle,
    sector_project,
)
from .spectral import (
    AliasingError,
    DegenerateCoinError,
    DensityMatrix2,
    DensityMatrixError,
    MomentumMode,
    asymptotic_rho,
    average_rho,
    cesaro_rho,
    dispersion,
    entropy,
    evolve_spectral,
    finite_n_rho,
    mode_eigensystem,
    mutual_information,
    rho_eigenvalues,
    sweep_summary,
)

__version__ = "0.1.0"
