"""One pass of one workload, in a fresh process started by ``run.py``.

Sets up (imports, seeded inputs, one warm-up call), runs the workload's
task list once, back to back, and prints one JSON line: set-up time, wall
time, peak resident memory, each task's latency and verdict, the
deterministic counters and, when traced, per-layer self times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pass(workload: str, seed: int, size: str, trace: bool, outdir: str,
             t0: float | None = None, spans_path: str | None = None) -> dict:
    """Build, warm up and run one pass; ``t0`` is the monotonic time at which
    the process was started, for the set-up time."""
    import mpmath
    import numpy

    from onoffchain import cli

    import workloads
    from spans import EVAL, TASK, Tracer

    os.environ[cli.ENV_OUTDIR] = outdir
    os.environ.pop(cli.ENV_SEED, None)
    wl = workloads.build(workload, seed, size)
    wl.warmup()
    setup_s = None if t0 is None else time.monotonic() - t0

    tr = Tracer(trace)
    rows = []
    for i, task in enumerate(wl.tasks):
        tr.task = i
        t = time.perf_counter()
        try:
            result = tr.call(TASK, task.body, tr)
        except Exception as exc:    # a raised exception is one failed operation
            latency = time.perf_counter() - t
            detail = f"{task.name}: raised {type(exc).__name__}: {exc}"
        else:
            latency = time.perf_counter() - t
            try:
                detail = task.check(result)
            except Exception as exc:
                detail = f"{task.name}: check raised {type(exc).__name__}: {exc}"
        rows.append([task.name, latency, detail is None, detail])

    out = {
        "setup_s": setup_s,
        "wall_s": math.fsum(r[1] for r in rows),     # checks excluded
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tasks": rows,
        "known_defects": sorted(workloads.KNOWN_DEFECTS),
        "counts": dict(tr.counts),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__},
    }
    if trace:
        nested = tr.nested_counts(EVAL)
        out["layers"] = tr.layers()
        out["trace_counts"] = {
            "analytic.chain_transform.evals": sum(nested.values()),
            "analytic.mean_from_transform.evals": nested["analytic.mean_from_transform"],
        }
        if spans_path:
            tr.write(spans_path)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import onoffchain
    if Path(onoffchain.__file__).resolve().parent != ROOT / "src" / "onoffchain":
        print(f"bench: imported onoffchain from {onoffchain.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    result = run_pass(args.workload, args.seed, args.size, bool(args.trace), args.outdir,
                      args.t0, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
