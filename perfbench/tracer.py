"""Outside-in tracer: times calls into ladderwalk's public functions.

The tracer changes no source file.  ``install`` wraps every function
named in the ``__all__`` of each loaded ``ladderwalk`` module and rebinds
the wrapper in every ``ladderwalk.*`` namespace that holds the function,
so ``from .core import ...`` bindings and imports made later inside a
function resolve to the wrappers too.  Classes, exceptions and constants
stay unwrapped: rebinding a class would break ``isinstance`` checks, so
work done in constructors counts toward the calling function.

Each wrapped call is a span; nested spans give every function a self
time, and each function belongs to the layer of the module that defines
it (``cli`` is split into ``cli.parse``, ``cli.assemble`` and
``cli.write``).  Counters are taken at the same boundaries from the
arguments and return values, so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import typing
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "ladderwalk"
LAYERS = ("core", "observables", "sectors", "spectral",
          "cli.parse", "cli.assemble", "cli.write")


def layer_of(module: str, name: str) -> str:
    """Layer of function ``name`` defined in module ``module``."""
    short = module.rsplit(".", 1)[-1]
    if short != "cli":
        return short
    if name.startswith("run_"):
        return "cli.assemble"
    if name.startswith("write_"):
        return "cli.write"
    return "cli.parse"


def _is_state(obj) -> bool:
    return hasattr(obj, "amplitudes") and hasattr(obj, "steps_taken")


def _window_sites(t0: int, steps: int, origin: int, half_width: int) -> int:
    """Sites inside the causal window ``|m - origin| <= t + 1`` summed over
    the updates from step ``t0`` to ``t0 + steps - 1``."""
    t = np.arange(t0, t0 + steps)
    hi = np.minimum(origin + t + 1, half_width)
    lo = np.maximum(origin - t - 1, -half_width)
    return int(np.sum(hi - lo + 1))


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)   # "layer:function" -> seconds
        self.calls = Counter()             # "layer:function" -> calls
        self.protocol_s = defaultdict(float)
        self.protocol_steps = Counter()
        self.site_updates = 0
        self.occupied_sites = 0
        self.rows = Counter()              # dataset command -> rows assembled
        self.write_bytes = 0
        self._stack = []                   # per open span: [seconds covered by children]
        self._core_depth = 0
        self._protocols = ()
        self._patched = []                 # (namespace, attribute, original)

    # ---------------------------------------------------------- install

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for module in modules:
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, layer_of(module.__name__, fn.__name__))
        core = sys.modules.get(PACKAGE + ".core")
        spec = getattr(core, "ProtocolSpec", None)
        self._protocols = typing.get_args(spec) if spec is not None else ()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- spans

    def _wrap(self, fn, layer: str):
        key = f"{layer}:{fn.__name__}"
        stack = self._stack
        is_core = layer == "core"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost_core = is_core and self._core_depth == 0
            if is_core:
                self._core_depth += 1
            span = [0.0]
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if is_core:
                    self._core_depth -= 1
                self.self_s[key] += elapsed - span[0]
                self.calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
            if outermost_core:
                self._count_core(args, result, elapsed)
            elif layer == "cli.assemble":
                self._count_rows(result)
            elif layer == "cli.write":
                self.write_bytes += sum(os.path.getsize(p) for p in result)
            return result

        return traced

    # ---------------------------------------------------------- counters

    def _count_core(self, args, result, elapsed: float) -> None:
        """Site updates of an outermost core call that advanced a state."""
        state = next((a for a in args if _is_state(a)), None)
        if state is None or not _is_state(result):
            return
        steps = result.steps_taken - state.steps_taken
        if steps <= 0:
            return
        amps = result.amplitudes
        sites_per_rung = amps[0].size // amps.shape[-1]   # 1 on a line, 2 on the ladder
        half_width = (amps.shape[-1] - 1) // 2
        self.site_updates += steps * amps[0].size
        self.occupied_sites += sites_per_rung * _window_sites(
            state.steps_taken, steps, state.origin, half_width)
        spec = next((a for a in args if isinstance(a, self._protocols)), None)
        if spec is not None:
            protocol = type(spec).__name__.lower()
            self.protocol_s[protocol] += elapsed
            self.protocol_steps[protocol] += steps

    def _count_rows(self, dataset) -> None:
        self.rows[dataset["command"]] += sum(len(t["rows"]) for t in dataset["tables"].values())

    # ---------------------------------------------------------- report

    def report(self, traced_wall_s: float) -> dict:
        """Per-layer metrics of the pass; layer self times plus
        ``trace.unattributed_s`` add up to ``traced_wall_s``."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for key, seconds in self.self_s.items():
            layer = key.split(":", 1)[0]
            if layer in layer_self:
                layer_self[layer] += seconds
                layer_calls[layer] += self.calls[key]
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.calls"] = layer_calls[layer]
            m[f"{layer}.share"] = layer_self[layer] / traced_wall_s
        m["core.site_updates"] = self.site_updates
        m["core.occupied_fraction"] = (self.occupied_sites / self.site_updates
                                       if self.site_updates else 0.0)
        for protocol in ("conventional", "splitstep", "ladder"):
            steps = self.protocol_steps[protocol]
            m[f"core.{protocol}.us_per_step"] = (
                1e6 * self.protocol_s[protocol] / steps if steps else 0.0)
        points = self.rows["sweep"]
        analytic = sum(layer_self[k] for k in ("spectral", "sectors", "observables"))
        m["spectral.us_per_point"] = 1e6 * analytic / points if points else 0.0
        for fn in ("rho_eigenvalues", "cesaro_rho"):
            m[f"spectral.{fn}.calls"] = self.calls[f"spectral:{fn}"]
        m["spectral.rho_eigenvalues.share"] = (
            self.self_s["spectral:rho_eigenvalues"] / traced_wall_s)
        rows = sum(self.rows.values())
        m["cli.rows"] = rows
        m["cli.assemble.us_per_row"] = (
            1e6 * layer_self["cli.assemble"] / rows if rows else 0.0)
        m["cli.write.bytes"] = self.write_bytes
        m["cli.write.mb_per_s"] = (self.write_bytes / 1e6 / layer_self["cli.write"]
                                   if self.write_bytes else 0.0)
        m["trace.wall_s"] = traced_wall_s
        m["trace.unattributed_s"] = traced_wall_s - sum(layer_self.values())
        return m
