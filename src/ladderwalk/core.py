"""State vectors and one-step unitaries for discrete-time walks.

A walker on a line carries a spin-1/2 coin and a position on the sites
``-R .. R`` of a finite array; a walker on a two-rail ladder additionally
carries a side index ``x in {0, 1}``.  The array is sized so that the wave
front never reaches the boundary: a shift that would push amplitude past
the edge raises :class:`LatticeOverflowError` instead of wrapping, which
keeps the finite array an exact model of the infinite lattice.  The short
(x) direction of the ladder is an exact two-site ring, so shifts along it
are periodic.

:func:`evolve` is the single stepping entry point.  It is pure: it returns
a new state and never mutates its input.  It steps only the window of
occupied sites, grown by one site per shift, and a conventional or
ladder walk whose occupied sites share one parity (every walk from a
point mass) only the sites of that parity, so its cost follows the
support of the walk rather than the size of the array.  Both states
subclass one private base, ``_State``, which holds the amplitudes, the
origin and the step count and reads the half-width and the positions
``-R .. R`` off the last axis.

The stage loop behind it is the private generator ``_steps``.  It picks
a stride, 2 for a walk on one sublattice and 1 otherwise, and plans
both strides by one rule.  It allocates two buffers per walk, which the
stages write by turns, builds each stage's product view into a buffer
once per walk, on first use, and carries the window from step to step,
so that a stage costs one product straight into its shifted place and
about 1 us besides.
``_state_blocks`` runs the same loop and yields every state of the walk,
steps ``0 .. n``, in blocks of about ``_BLOCK_BYTES`` of amplitudes with
the block's window: the ``walk1d`` and ``ladder`` commands observe each
block at once instead of calling ``evolve(state, spec, 1)`` per step.
``_probabilities`` is the one implementation of ``|psi|^2``, on such a
block and its window; :func:`position_distribution` is its view of one
state.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeOverflowError",
    "CoinSpinor",
    "WalkerState1D",
    "LadderState",
    "Conventional",
    "SplitStep",
    "Ladder",
    "ProtocolSpec",
    "DEFAULT_GAMMA_Y",
    "localized_walker",
    "localized_ladder",
    "evolve",
    "position_distribution",
]

# Coin angle of the long-side coin in the mixed ladder protocol; the
# corresponding rotation is C(-pi/4).
DEFAULT_GAMMA_Y = -math.pi / 2

_NORM_TOL = 1e-12
# Amplitude bytes per block of states that _state_blocks yields: enough
# that per-block numpy calls cost little per step, few enough that a
# block and the observables' workspaces stay in cache.
_BLOCK_BYTES = 256 * 1024


class LatticeOverflowError(Exception):
    """A shift would move amplitude past the open lattice boundary.

    The caller must rebuild the state on a larger array; wrapping around
    would silently change the physics.
    """


def _require_real(name: str, value: float) -> float:
    """``value`` as a ``float``, an int or ``Fraction`` past the float range
    as an infinity of its sign.  Anything but a ``numbers.Real`` that is
    not a ``bool`` is refused with ``TypeError``: also a ``numpy.bool_``, a
    ``Decimal``, a 0-d array and the texts (``str``, ``bytes``,
    ``bytearray``) that ``float()`` would take."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_finite(name: str, value: float) -> float:
    """:func:`_require_real`, and a non-finite value is refused with
    ``ValueError``."""
    value = _require_real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_integer(name: str, value: int) -> int:
    """``value`` as an ``int``; a bool, a float or any other type without
    ``__index__`` is refused with ``TypeError``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class CoinSpinor:
    """Amplitudes of the up and down coin states."""

    up: complex = 1.0 + 0j
    down: complex = 0j

    def __post_init__(self) -> None:
        # a nan passes here and is refused by the norm check of its use
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Complex):
                raise TypeError(f"{name} must be a number, not {type(value).__name__}")

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "CoinSpinor":
        """Spinor ``(cos(theta/2), e^{i phi} sin(theta/2))`` on the Bloch sphere."""
        theta = _require_finite("theta", theta)
        phi = _require_finite("phi", phi)
        return cls(complex(math.cos(theta / 2)),
                   cmath.exp(1j * phi) * math.sin(theta / 2))

    def norm_sq(self) -> float:
        return abs(self.up) ** 2 + abs(self.down) ** 2

    def as_array(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class _State:
    """Amplitudes whose last axis runs over the positions ``-R .. R``,
    ``R = half_width``, of a walk that started at ``origin``.  Anything but
    an ndarray of the subclass's leading shape and an odd width is
    refused: a ``TypeError`` for another type, a ``ValueError`` naming the
    shape otherwise."""

    amplitudes: np.ndarray
    origin: int = 0
    steps_taken: int = 0

    def __post_init__(self) -> None:
        # the axes before the positions: spin, and the side of a ladder
        amps, lead = self.amplitudes, self._lead_shape
        if not isinstance(amps, np.ndarray):
            raise TypeError(f"amplitudes must be a numpy array, not {type(amps).__name__}")
        if amps.shape[:-1] != lead or amps.shape[-1] % 2 == 0:
            raise ValueError(f"{type(self).__name__} amplitudes must have shape "
                             f"({', '.join(map(str, lead))}, W) with W odd, got {amps.shape}")

    @property
    def half_width(self) -> int:
        return (self.amplitudes.shape[-1] - 1) // 2

    def _positions(self) -> np.ndarray:
        r = self.half_width
        return np.arange(-r, r + 1)


@dataclass(frozen=True, eq=False)
class WalkerState1D(_State):
    """Walker on the line: complex amplitudes indexed by (spin, site).

    ``amplitudes[s, i]`` is the amplitude of spin ``s`` (0 = up, 1 = down)
    at site ``m = i - half_width``; sites run over ``-half_width .. half_width``.
    """

    _lead_shape = (2,)
    sites = _State._positions


@dataclass(frozen=True, eq=False)
class LadderState(_State):
    """Walker on the two-rail ladder: amplitudes indexed by (spin, side, rung).

    ``amplitudes[s, x, i]`` is the amplitude of spin ``s`` on side
    ``x in {0, 1}`` at rung ``y = i - half_width``.
    """

    _lead_shape = (2, 2)
    rungs = _State._positions


@dataclass(frozen=True)
class Conventional:
    """Coin flip followed by a full spin-conditioned shift."""

    gamma: float


@dataclass(frozen=True)
class SplitStep:
    """Two coins and two half-shifts per step."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class Ladder:
    """Split-step protocol along the rails combined with a conventional
    step along the rungs; ``gamma_y`` is the long-side coin angle."""

    alpha: float
    beta: float
    gamma_y: float = DEFAULT_GAMMA_Y


ProtocolSpec = Conventional | SplitStep | Ladder


def _check_initial_coin(coin: CoinSpinor) -> None:
    if not isinstance(coin, CoinSpinor):
        raise TypeError(
            f"initial coin state must be a CoinSpinor, not {type(coin).__name__}")
    # the comparison fails on nan, so a non-finite amplitude is refused
    if not abs(coin.norm_sq() - 1.0) <= _NORM_TOL:
        raise ValueError(
            f"initial coin state must be normalized, |up|^2+|down|^2 = {coin.norm_sq()!r}"
        )


def localized_walker(coin: CoinSpinor | None = None,
                     half_width: int = 32,
                     origin: int = 0) -> WalkerState1D:
    """Walker localized at ``origin`` with the given (normalized) coin state."""
    return WalkerState1D(amplitudes=_point_mass(coin, half_width, origin), origin=origin)


def localized_ladder(coin: CoinSpinor | None = None,
                     half_width: int = 32,
                     side: int = 0,
                     origin: int = 0) -> LadderState:
    """Ladder walker localized on one side at rung ``origin``."""
    return LadderState(amplitudes=_point_mass(coin, half_width, origin, side), origin=origin)


def _point_mass(coin: CoinSpinor | None, half_width: int, origin: int,
                *side: int) -> np.ndarray:
    """Amplitudes of a walker at site ``origin`` of ``-half_width ..
    half_width`` with ``coin`` (default up): shape ``(2, 2R+1)`` on the
    line, or ``(2, 2, 2R+1)`` on ``side`` of the ladder.  ``half_width``,
    ``origin`` and ``side`` must be integers (a bool is refused)."""
    coin = coin if coin is not None else CoinSpinor()
    _check_initial_coin(coin)
    half_width = _require_integer("half_width", half_width)
    origin = _require_integer("origin", origin)
    side = [_require_integer("side", x) for x in side]
    if any(x not in (0, 1) for x in side):
        raise ValueError("side must be 0 or 1")
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    if abs(origin) > half_width:
        raise ValueError("origin outside the lattice")
    amps = np.zeros((2, *[2] * len(side), 2 * half_width + 1), dtype=np.complex128)
    amps[(slice(None), *side, origin + half_width)] = coin.as_array()
    return amps


def _coin(angle: float) -> np.ndarray:
    """Real rotation ``C(angle/2) = [[c, -s], [s, c]]`` with ``c = cos(angle/2)``,
    ``s = sin(angle/2)``: the identity at 0 and a quarter turn at pi."""
    c = math.cos(angle / 2)
    s = math.sin(angle / 2)
    return np.array([[c, -s], [s, c]])


def _ladder_unitary(spec: Ladder) -> np.ndarray:
    """The rung-local part of a ladder step as one 4x4 (spin, side) matrix.

    Applied right to left, the step is coin(alpha); periodic side swap of
    the up component; coin(beta); side swap of the down component;
    coin(gamma_y).  Each spin block of the product is ``p I + q X`` on the
    side index, where ``X`` swaps the sides: ``q`` collects the paths
    that swapped once and ``p`` those that swapped twice or never.
    """
    a = _coin(spec.alpha)
    b = _coin(spec.beta)
    g = _coin(spec.gamma_y)
    # Row t before g: b[t, 1 - t] * a[1 - t] in p, b[t, t] * a[t] in q.
    p = g @ (b[:, ::-1].diagonal()[:, None] * a[::-1])
    q = g @ (b.diagonal()[:, None] * a)
    u = np.empty((2, 2, 2, 2))
    u[:, 0, :, 0] = u[:, 1, :, 1] = p
    u[:, 0, :, 1] = u[:, 1, :, 0] = q
    return u.reshape(4, 4)


def _stages(state, spec: ProtocolSpec) -> tuple[tuple[np.ndarray, bool, bool], ...]:
    """One step of ``spec`` as (local unitary, move up, move down) stages.

    This is the full-lattice description of a step: each stage applies
    its unitary at every site, then shifts the up rows (first half) one
    site right and/or the down rows one site left.  ``_steps`` derives
    its sublattice or full-lattice plan from it.  There are one or two
    stages per step; ``_steps`` relies on that when it reuses its
    buffers.  The state type is checked first, then each angle's
    finiteness, and the unitaries are built from the checked floats.
    """
    match spec:
        case Conventional():
            needs, name = WalkerState1D, "conventional"
            build = lambda gamma: ((_coin(gamma), True, True),)
        case SplitStep():
            needs, name = WalkerState1D, "split-step"
            build = lambda alpha, beta: ((_coin(alpha), True, False),
                                         (_coin(beta), False, True))
        case Ladder():
            needs, name = LadderState, "ladder"
            build = lambda *angles: ((_ladder_unitary(Ladder(*angles)), True, True),)
        case _:
            raise TypeError(f"unknown protocol spec {spec!r}")
    if not isinstance(state, needs):
        raise TypeError(f"{name} protocol needs a {needs.__name__}")
    return build(*[_require_finite(field, angle) for field, angle in vars(spec).items()])


def evolve(state, spec: ProtocolSpec, n_steps: int):
    """Apply ``n_steps`` repetitions of the one-step unitary for ``spec``.

    Each step is a sequence of stages, a site-local unitary followed by a
    spin-conditioned shift of the up rows (first half) right and/or the
    down rows left: one stage for the conventional and the ladder walk,
    two (one per half-shift) for the split-step walk.

    Only the occupied sites are stepped (see ``_steps``), so the result
    equals a full-lattice step at a cost that follows the support of the
    walk.  ``n_steps`` must be an integer (a bool is refused).  The
    result is a fresh array, filled once at the end.  A moved row with
    amplitude on its leading edge after the unitary raises
    :class:`LatticeOverflowError`; nothing can reach an edge before the
    window does, so the check is exact.
    """
    n_steps = _require_integer("n_steps", n_steps)
    for amps, lo, hi, stride, parity in _steps(state, spec, n_steps):
        pass
    out = np.zeros(state.amplitudes.shape, np.complex128)
    out.reshape(len(amps), -1)[:, _columns(lo, hi, stride, parity)] = amps[:, lo:hi]
    return type(state)(out, state.origin, state.steps_taken + n_steps)


def _steps(state, spec: ProtocolSpec, n_steps: int):
    """The stage loop of :func:`evolve`: yields ``(amps, lo, hi, stride,
    parity)`` at steps ``0 .. n_steps``.  The buffer columns ``[lo, hi)``
    of the ``(rows, width)`` buffer ``amps`` hold the full-lattice columns
    ``_columns(lo, hi, stride, parity)``, a slice of step ``stride``, and
    every other column of the lattice is zero.

    The loop keeps the occupied window in padded buffers, a zero column
    past each edge of the lattice, with buffer column ``c`` holding site
    ``stride (c - 1) + parity``.  A conventional or ladder step moves
    every component by one site, so a state whose occupied sites share
    one parity keeps that property, with the parity flipping each step:
    such a state (every walk from a point mass) is kept on its sublattice
    alone, stride 2.  Other states, and every split-step state (its
    half-shifts mix the parities), keep all sites, stride 1 and parity 0.
    One rule plans both strides.  The ``widths[p] = (sites - p + stride -
    1) // stride`` sites of parity ``p`` are buffer columns ``1 ..
    widths[p]``, and a stage that moves the up half ``up`` and the down
    half ``down`` sites (each 0 or 1) from parity ``p`` shifts the up half
    ``(p + up) // stride`` columns and the down half ``(p - down) //
    stride`` columns, and leaves parity ``(p + up) % stride``: at stride 2
    the up rows move one column right from parity 1 and the down rows one
    column left from parity 0.

    A walk has two zeroed buffers, which the stages write by turns.  Each
    stage writes its product straight into the shifted columns of the
    other buffer, with no product buffer and no shift copies: a two-row
    state through an output view whose row stride takes the shift (one
    product: split into one-row products the BLAS takes its matrix-vector
    path, whose bits differ), the ladder's four rows as a stack of two
    products, one per spin half, in one call.  That view spans every
    column of its buffer and is built once per walk, on first use, for
    each (buffer, parity, stage); a stage slices it and its input to the
    window, so its fixed cost is about 1 us on top of the product.  The
    stage unitaries are real, so they act on the float64 view of the
    amplitudes.

    ``amps`` is a buffer of the loop, valid until the generator resumes.
    The window grows by one site per shift until it meets an edge of the
    lattice; there a sublattice window starts at site 0 and site 1 by
    turns.  An overflow raises when the generator is resumed for that
    step.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    stages = _stages(state, spec)
    src = np.asarray(state.amplitudes, np.complex128)
    src = src.reshape(-1, src.shape[-1])
    rows, sites = src.shape
    h = rows // 2
    # an all-zero state gets the whole lattice as its window
    occupied = src.any(axis=0)
    lo, hi = int(occupied.argmax()), sites - int(occupied[::-1].argmax())
    # One product per stage, into a view of the next buffer that the
    # shifts offset: two rows with a row stride that takes the shift, or
    # the two spin halves as a stack of two products.
    lead = (2,) if h == 1 else (2, h)
    # One sublattice, stride 2: one stage moving both halves, and every
    # occupied site of one parity; else the full lattice, stride 1.
    stride = 2 if len(stages) == 1 and stages[0][1] and stages[0][2] \
        and not np.count_nonzero(occupied[lo + 1:hi:2]) else 1
    parity = lo % stride
    # widths[parity]: the sites of that parity.  plans[parity]: (unitary, up
    # shift, down shift, next parity, views) per stage, the shifts in
    # columns and views[buffer] the stage's product view into that buffer
    # once built.  Each stage starts from parity p: a stride-2 step has one
    # stage, and stride 1 has one parity.
    widths, plans = [], []
    for p in range(stride):
        widths.append((sites - p + stride - 1) // stride)
        plans.append([(u.reshape(lead + (rows,)), (p + up) // stride, (p - down) // stride,
                       (p + up) % stride, [None, None]) for u, up, down in stages])
    width = widths[0] + 2
    # The window in buffer columns; columns 0 and widths[parity] + 1 lie
    # past the lattice's edges.
    lo, hi = (lo - parity) // stride + 1, (hi - 1 - parity) // stride + 2
    # the two buffers in one allocation, with one float64 view for the
    # products' inputs
    both = np.zeros((2, rows, width), np.complex128)
    floats = both.view(np.float64)
    buffers = both[0], both[1]
    buffers[0][:, lo:hi] = src[:, _columns(lo, hi, stride, parity)]
    yield buffers[0], lo, hi, stride, parity
    # the gathered window, cleared before its buffer is first written
    start = lo, hi
    current = 0
    for _ in range(n_steps):
        for unitary, up, down, after, views in plans[parity]:
            edge = widths[after] + 1
            target = 1 - current
            # A buffer is written over the stage before last, which had
            # this stage's shifts and a window inside this one, so this
            # write covers everything that one wrote.  The gathered start
            # had no shifts: its window is cleared before the first write
            # over it, which a one-stage, one-step walk never makes.
            if start and not target:
                buffers[0][:, start[0]:start[1]] = 0.0
                start = None
            product = views[target]
            if product is None:
                # view column c puts the up half in buffer column c + up
                # and the down half h rows and down - up columns after it
                product = views[target] = np.ndarray(
                    lead + (2 * width - 2,), np.float64, buffers[target], 16 * up,
                    (16 * (h * width + down - up), 16 * width)[:len(lead)] + (8,))
            np.matmul(unitary, floats[current, :, 2 * lo:2 * hi],
                      out=product[..., 2 * lo:2 * hi])
            if hi + up > edge and any(buffers[target][:h, edge].tolist()):
                raise LatticeOverflowError(
                    "up amplitude reached the +edge; enlarge half_width")
            if lo + down < 1 and any(buffers[target][h:, 0].tolist()):
                raise LatticeOverflowError(
                    "down amplitude reached the -edge; enlarge half_width")
            lo, hi, parity, current = max(lo + down, 1), min(hi + up, edge), after, target
        yield buffers[current], lo, hi, stride, parity


def _columns(lo: int, hi: int, stride: int, parity: int) -> slice:
    """The full-lattice columns of buffer columns ``[lo, hi)``."""
    return slice(stride * (lo - 1) + parity, stride * (hi - 2) + parity + 1, stride)


def _state_blocks(state, spec: ProtocolSpec, n_steps: int):
    """The states of steps ``0 .. n_steps`` of one :func:`evolve` walk, in
    blocks of consecutive steps: yields ``(block, lo, hi)``.

    ``block[i]`` holds the amplitudes of one step in the state's shape,
    exactly zero outside the columns ``[lo, hi)``, the union of the
    windows of the walk so far, which only grows.  A block holds about
    ``_BLOCK_BYTES`` of amplitudes, one state at least; it and its array
    are valid until the generator resumes, and the next block reuses the
    array.  A step that overflows raises, and the partial block of the
    steps before it is not yielded; the ``walk1d`` and ``ladder`` lattices
    leave their walks no room to overflow.
    """
    shape = state.amplitudes.shape
    state_bytes = math.prod(shape) * np.dtype(np.complex128).itemsize
    capacity = max(1, _BLOCK_BYTES // state_bytes)
    blocks = None
    filled = 0
    lo, hi = shape[-1], 0
    for amps, first, last, stride, parity in _steps(state, spec, n_steps):
        if blocks is None:
            blocks = np.zeros((min(capacity, n_steps + 1),) + shape, np.complex128)
            rows = blocks.reshape(len(blocks), len(amps), shape[-1])
        columns = _columns(first, last, stride, parity)
        lo, hi = min(lo, columns.start), max(hi, columns.stop)
        # A reused row holds an earlier step inside [lo, hi), at stride 2 on
        # the other sublattice: clear the window (a contiguous fill costs
        # less than a strided one), then write.  A stride-1 window only
        # grows, so there the clear is redundant; only a split-step walk
        # pays for it.
        row = rows[filled]
        row[:, lo:hi] = 0.0
        row[:, columns] = amps[:, first:last]
        filled += 1
        if filled == len(blocks):
            yield blocks, lo, hi
            filled = 0
    if filled:
        yield blocks[:filled], lo, hi


def _probabilities(block: np.ndarray, lo: int, hi: int, spin_probs: np.ndarray,
                   probs: np.ndarray | None = None) -> None:
    """``|block|^2`` (complex abs, then square) of a block of states (axes:
    state, spin, ...) into ``spin_probs``, and with ``probs`` given its sum
    over the spin axis (spin 0 + spin 1) into ``probs``, each on the
    columns ``[lo, hi)`` only; the workspaces keep their other columns."""
    window = spin_probs[..., lo:hi]
    np.abs(block[..., lo:hi], out=window)
    np.square(window, out=window)
    if probs is not None:
        np.add(window[:, 0], window[:, 1], out=probs[..., lo:hi])


def position_distribution(state) -> np.ndarray:
    """Probability of finding the walker at each site.

    For a line walker the result is a vector over sites ``-R .. R``; for a
    ladder walker it is a ``(2, 2R+1)`` array over (side, rung).  Entries
    are nonnegative and sum to one (up to roundoff).
    """
    if not isinstance(state, _State):
        raise TypeError(f"unsupported state {type(state).__name__}")
    amps = state.amplitudes
    probs = np.empty(amps.shape[1:])
    _probabilities(amps[None], 0, amps.shape[-1], np.empty((1,) + amps.shape), probs[None])
    return probs
