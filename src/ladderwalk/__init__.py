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

from .core import *
from .sectors import *
from .spectral import *

__version__ = "0.1.0"
