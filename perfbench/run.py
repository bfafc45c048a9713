"""ladderwalk benchmark driver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder-csv --seed 0 --seconds 28 --trace 0

Runs passes of one workload, each in a fresh single-threaded child
process (``child.py``), one after another, until the pass boundary
nearest to ``--seconds`` (at least ``MIN_PASSES``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end medians
over the passes.  With ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer figures of the traced pass
with the median traced wall time (one pass, so its layer self times add
up), plus the tracing overhead.  ``failed / attempted`` is the failure
ratio: a pass fails on a nonzero exit, an exception or a failed output
check.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"

MIN_PASSES = {0: 3, 1: 2}
# A run must end within 180 s even when passes get slow: no pass starts
# after LAST_START_S, and every pass is killed at RUN_LIMIT_S.
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0

WORKLOADS = ("ladder-csv", "walk1d-json", "sweep-grid", "library-evolve")

# Pin every BLAS/OpenMP pool to one thread so a pass uses one core.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    # The child finds ladderwalk through its own sys.path entry, and always
    # caches bytecode, as an installed package does, so setup_s does not
    # depend on the caller's environment.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, trace: bool, index: int, run_dir: Path,
             timeout: float) -> dict:
    """Run one pass in a child process and return its record."""
    pass_dir = run_dir / f"pass{index}"
    pass_dir.mkdir()
    result = pass_dir / "result.json"
    spec = {"root": str(ROOT), "workload": workload, "seed": seed, "trace": trace,
            "workdir": str(pass_dir), "result": str(result), "t0": time.monotonic()}
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        stderr = f"pass killed after {timeout:.0f} s"
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    try:
        record = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {"ok": False}
    if proc.returncode != 0:
        record["ok"] = False
        if not record.get("problems"):
            record.setdefault("error", f"exit code {proc.returncode}: {stderr.strip()[-2000:]}")
    shutil.rmtree(pass_dir)
    return record


def _median_pass(records: list) -> dict:
    ordered = sorted(records, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def _declared(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _trace_metrics(untraced: list, traced: list) -> dict:
    metrics = dict(_median_pass(traced)["trace"])
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in _declared("per_layer").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "ladderwalk" / "__init__.py").is_file():
        print(f"perfbench: no ladderwalk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    run_dir = WORKDIR / f"run-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    records = []
    durations = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            enough = len(records) >= MIN_PASSES[args.trace] and len(records) % (1 + args.trace) == 0
            # Stop at the pass boundary nearest to --seconds.
            if enough and elapsed + statistics.median(durations) / 2 >= args.seconds:
                break
            if records and elapsed >= LAST_START_S:
                break
            traced = bool(args.trace) and len(records) % 2 == 1
            record = run_pass(args.workload, args.seed, traced, len(records), run_dir,
                              timeout=RUN_LIMIT_S - elapsed)
            durations.append(time.monotonic() - start - elapsed)
            record["traced"] = traced
            records.append(record)
            status = "ok" if record["ok"] else "FAILED"
            print(f"perfbench: pass {len(records)} {'traced ' if traced else ''}{status}"
                  f" wall_s={record.get('wall_s', float('nan')):.4f}", file=sys.stderr)
            for problem in record.get("problems", []):
                print(f"perfbench:   {problem}", file=sys.stderr)
            if "error" in record:
                print(f"perfbench:   {record['error']}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "python": platform.python_version(), "numpy": version("numpy"),
                      "nproc": len(os.sched_getaffinity(0)), "passes": len(records)}))

    failed = sum(not r["ok"] for r in records)
    timed = [r for r in records if "wall_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"] and "trace" in r]
    if not untraced or (args.trace and not traced):
        print("perfbench: no pass reached the end of its timed interval", file=sys.stderr)
        return 1
    if args.trace:
        metrics = _trace_metrics(untraced, traced)
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
                   for name, unit in _declared("end_to_end").items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
