import ctypes
import math
from pathlib import Path

import numpy as np
import pytest

# (core name, config) symbols of the OpenBLAS builds that numpy bundles
_OPENBLAS_SYMBOLS = [(f"{prefix}get_corename{suffix}", f"{prefix}get_config{suffix}")
                     for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]


def _openblas() -> str:
    """The core name and config of the OpenBLAS bundled with numpy, read
    through ``ctypes``, or ``unknown``: the golden float bits depend on
    the kernel the BLAS picks for the machine."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".libs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for names in _OPENBLAS_SYMBOLS:
            functions = [getattr(lib, name, None) for name in names]
            if None in functions:
                continue
            for function in functions:
                function.argtypes, function.restype = [], ctypes.c_char_p
            core, config = ((function() or b"unknown").decode(errors="replace")
                            for function in functions)
            return f"{core} ({config})"
    return "unknown"


def pytest_report_header(config):
    try:
        return f"openblas: {_openblas()}"
    except Exception as exc:  # the header must never stop the run
        return f"openblas: unknown ({type(exc).__name__}: {exc})"


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
