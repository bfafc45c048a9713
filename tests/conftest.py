import math

import pytest


def _discriminant(gamma: float) -> float:
    """Normalized eigenvalue gap of the asymptotic coin density matrix.

    ``(|cos(gamma/4)| - |sin(gamma/4)|) / (|cos(gamma/4)| + |sin(gamma/4)|)``;
    equals ``(1 - sin(gamma/2)) / cos(gamma/2)`` on ``[0, pi)``, running
    from 1 at ``gamma = 0`` to 0 at ``gamma = pi``.  It avoids the
    cancellation in ``asymptotic_rho``'s entries near ``|gamma| = pi``, so
    the gap checks use it as an independent reference.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    c = abs(math.cos(gamma / 4.0))
    s = abs(math.sin(gamma / 4.0))
    return (c - s) / (c + s)


@pytest.fixture(scope="session")
def discriminant():
    """The reference gap ``_discriminant``."""
    return _discriminant
