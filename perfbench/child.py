"""One benchmark pass in a fresh process.

Usage: ``python child.py <json spec>``, where the spec holds ``root``,
``workload``, ``seed``, ``t0`` (the parent's ``time.monotonic()`` just
before it started this process), ``trace``, ``workdir`` and ``result``.

The pass imports ladderwalk from ``<root>/src``, builds the workload's
inputs, times one call with wall and process CPU clocks, records the
peak resident memory, then checks the outputs outside the timed
interval.  It writes one JSON record to ``result`` and exits 0 only when
the call succeeded and every check passed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    record = {"ok": False}
    try:
        import ladderwalk
        if not Path(ladderwalk.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"ladderwalk imported from {ladderwalk.__file__}, not {src}")
        import workloads
        workload = workloads.WORKLOADS[spec["workload"]]
        inputs = workload.inputs(spec["seed"], Path(spec["workdir"]))
        record["setup_s"] = time.monotonic() - spec["t0"]

        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            result = workload.run(inputs)
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        record.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["trace"] = tracer.report(wall)
        record["problems"] = workload.check(inputs, result)
        record["ok"] = not record["problems"]
    except Exception:  # a failed pass is reported to the parent, not raised
        record["error"] = traceback.format_exc()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
