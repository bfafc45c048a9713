"""Discrete-time quantum walks on a line and on a two-rail ladder.

Simulation of conventional, split-step and mixed ladder protocols in
position space, decomposition of the ladder walk into its two
quasi-momentum sectors, and the derived diagnostics: spread,
magnetization-like parameters, coin density matrices, entropies and
mutual information.  The :mod:`ladderwalk.cli` module exposes batch
experiment commands.
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
from .observables import (
    MagnetizationTriple,
    discriminant,
    magnetization,
    second_moment,
    side_marginals,
    total_variation,
)
from .sectors import (
    EMPTY_SECTOR_WEIGHT,
    Angle,
    EffectiveAngles,
    SectorPair,
    WalkPattern,
    classify_pattern,
    effective_angles,
    reconstruct_ladder,
    reduce_angle,
    reduce_pi_fraction,
    sector_project,
)
from .spectral import (
    AliasingError,
    DegenerateCoinError,
    DensityMatrix2,
    MomentumMode,
    WalkSummary,
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
    walk_summary,
)

__version__ = "0.1.0"
