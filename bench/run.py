"""The onoffchain benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload's fixed task list back to back (a closed loop
with one caller), each pass in a fresh single-threaded worker process, for
about ``--seconds``.  With ``--trace 0`` every pass is untraced and the
end-to-end metrics are reported.  With ``--trace 1`` untraced and traced
passes alternate; the per-layer metrics come from the traced passes, and
the untraced ones give the throughputs and the tracing overhead.  The last
line of standard output is one JSON object; the lines before it are a
readable report with the machine facts.  Results and spans are also written
under ``.bench_build/onoffchain/``.  The metric names and units are the ones
``BENCHMARK.json`` declares; see ``bench/README.md`` for what each means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "onoffchain"
RUN_LIMIT_S = 170.0          # a run must end within 180 s, hung passes included
TAIL_EXCESS = 10             # task latencies beyond the reported tail percentile

CORE_LAYERS = ("validate_event_log", "log_to_sequence", "validate_signal_recovery",
               "to_on_off", "check_dynamics", "switch_times")
SELF_TIMED = ("sim.sample_interreception", "sim.coupled_compare", "sim.stats",
              "limit.monotonicity_check", "limit.convergence_diagnostics",
              "limit.certificates", "limit.sample_extension", "analytic.euler_ratio",
              "analytic.subset_expansion") + tuple(f"core.{c}" for c in CORE_LAYERS)


class BenchError(RuntimeError):
    """The run could not produce a result."""


def _spawn(args, trace: bool, index: int, outdir: Path, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(int(trace)),
           "--outdir", str(outdir)]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}-{args.seed}-pass{index}.jsonl")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(args) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes, alternating when traced, until the next
    pass of a kind would end after ``--seconds``."""
    start = time.monotonic()
    end, hard = start + args.seconds, start + RUN_LIMIT_S
    kinds = (False, True) if args.trace else (False,)
    done: dict[bool, list[dict]] = {False: [], True: []}
    longest = {False: 0.0, True: 0.0}
    outdir = BUILD / f"cli-{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        for index in range(10 ** 6):
            kind = kinds[index % len(kinds)]
            if all(done[k] for k in kinds) and time.monotonic() + longest[kind] > end:
                break
            t = time.monotonic()
            done[kind].append(_spawn(args, kind, index, outdir, hard))
            longest[kind] = max(longest[kind], time.monotonic() - t)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return done[False], done[True]


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_EXCESS latencies beyond it:
    (percentile, value)."""
    q = max(len(latencies) - TAIL_EXCESS, 1) / len(latencies)
    ordered = sorted(latencies)
    return 100.0 * q, ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _determinism(passes: list[dict]) -> list[str]:
    """Counters and verdicts depend only on the seed: every pass must agree."""
    problems = []
    first = passes[0]
    verdicts = [(r[0], r[2]) for r in first["tasks"]]
    for i, p in enumerate(passes[1:], 1):
        if p["counts"] != first["counts"]:
            problems.append(f"pass {i} counters differ from pass 0")
        if [(r[0], r[2]) for r in p["tasks"]] != verdicts:
            problems.append(f"pass {i} task verdicts differ from pass 0")
    traced = [p["trace_counts"] for p in passes if "trace_counts" in p]
    if any(t != traced[0] for t in traced):
        problems.append("transform evaluation counts differ between traced passes")
    return problems


def summarize(plain: list[dict], traced: list[dict]) -> dict:
    """Every metric the run can give, as name -> (value, unit)."""
    counts = plain[0]["counts"]
    # one latency per task: its median over the passes, which ran the same
    # task list, so a slow moment in one pass does not reorder the tail
    latencies = [statistics.median(column)
                 for column in zip(*[[r[1] for r in p["tasks"]] for p in plain])]
    wall = statistics.median([p["wall_s"] for p in plain])
    pct, tail = _tail(latencies)
    attempted = sum(len(p["tasks"]) for p in plain + traced)
    failed = sum(1 for p in plain + traced for r in p["tasks"] if not r[2])
    m = {
        "setup_s": (statistics.median([p["setup_s"] for p in plain]), "s"),
        "wall_s": (wall, "s"),
        "task_p50_s": (statistics.median(latencies), "s"),
        "task_tail_s": (tail, "s"),
        "peak_rss_mib": (statistics.median([p["rss_kib"] for p in plain]) / 1024.0, "MiB"),
        "reps_per_s": (counts.get("mc.reps", 0) / wall, "1/s"),
        "events_per_s": (counts.get("core.events_validated", 0) / wall, "1/s"),
        "fail_frac": (failed / attempted, "ratio"),
    }
    info = {"tail_percentile": pct, "tasks_per_pass": len(latencies),
            "attempted": attempted, "failed": failed}
    if not traced:
        return {"metrics": m, "info": info}

    def self_s(layer: str) -> float:
        return statistics.median([p["layers"].get(layer, {}).get("self_s", 0.0) for p in traced])

    def per(layer: str, count: int) -> float:
        return 1e6 * self_s(layer) / count if count else 0.0

    tc = traced[0]["trace_counts"]
    c = counts.get
    for layer, count_name, unit_name in (
            ("sim.sample_first_reception", "reps", "us_per_rep"),
            ("sim.simulate", "events", "us_per_event"),
            ("frozen.exhaustive_search", "candidates", "us_per_candidate")):
        m[f"{layer}.{count_name}"] = (c(f"{layer}.{count_name}", 0), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        m[f"{layer}.{unit_name}"] = (per(layer, c(f"{layer}.{count_name}", 0)), "us")
    for layer in ("sim.sample_first_reception", "sim.simulate", "analytic.exact_mean_equal_rates",
                  "analytic.mean_from_transform", "cli.main"):
        m[f"{layer}.calls"] = (c(f"{layer}.calls", 0), "count")
    for layer in SELF_TIMED + ("analytic.exact_mean_equal_rates",
                               "analytic.mean_from_transform", "cli.main"):
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    points = c("sim.recovery_points.points", 0)
    m["sim.recovery_points.points"] = (points, "count")
    m["sim.recovery_points.self_s"] = (self_s("sim.recovery_points"), "s")
    m["sim.points_consumed_frac"] = (c("sim.points_consumed", 0) / points if points else 0.0, "ratio")
    m["analytic.exact_mean_equal_rates.max_n"] = (c("analytic.exact_mean_equal_rates.max_n", 0), "count")
    evals = tc["analytic.chain_transform.evals"]
    m["analytic.chain_transform.evals"] = (evals, "count")
    m["analytic.chain_transform.us_per_eval"] = (per("analytic.chain_transform.eval", evals), "us")
    m["analytic.mean_from_transform.evals"] = (tc["analytic.mean_from_transform.evals"], "count")
    validated = c("core.events_validated", 0)
    m["core.events_validated"] = (validated, "count")
    core_s = sum(self_s(f"core.{name}") for name in CORE_LAYERS)
    m["core.us_per_event"] = (1e6 * core_s / validated if validated else 0.0, "us")
    m["cli.main.nonzero_exits"] = (c("cli.main.nonzero_exits", 0), "count")
    m["trace.overhead_frac"] = (statistics.median([p["wall_s"] for p in traced]) / wall - 1.0, "ratio")
    return {"metrics": m, "info": info}


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every task at toy size, for the smoke tests")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        p.error("--seed must be in [0, 2**63)")
    if not (ROOT / "src" / "onoffchain" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'onoffchain'}", file=sys.stderr)
        return 2

    BUILD.mkdir(parents=True, exist_ok=True)
    try:
        plain, traced = run_passes(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    summary = summarize(plain, traced)
    metrics, info = summary["metrics"], summary["info"]
    problems = _determinism(plain + traced)
    known = set(plain[0]["known_defects"])
    failures = {}
    for pss in plain + traced:
        for name, _, ok, detail in pss["tasks"]:
            if not ok:
                failures[name] = ("known defect: " if name in known else "") + detail
    unexpected = [n for n in failures if n not in known]

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"bench: {entry['name']} is in {unit}, BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}

    facts = dict(_machine(), **plain[0]["versions"], seed=args.seed, workload=args.workload,
                 seconds=args.seconds, trace=args.trace, size=args.size,
                 passes_untraced=len(plain), passes_traced=len(traced), **info)
    print(f"# onoffchain benchmark  {' '.join(f'{k}={v}' for k, v in facts.items())}")
    print(f"# task_p50_s and task_tail_s (p{info['tail_percentile']:.1f}, {TAIL_EXCESS} beyond it) "
          f"are over {info['tasks_per_pass']} task latencies, each the median of "
          f"{len(plain)} untraced passes")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    for name, detail in failures.items():
        print(f"# FAILED {detail}")
    for problem in problems:
        print(f"# NONDETERMINISTIC {problem}")
    result = {"correct": not unexpected and not problems, "attempted": info["attempted"],
              "failed": info["failed"], "metrics": out}
    record = {"facts": facts, "result": result, "all_metrics": metrics,
              "failures": failures, "determinism": problems}
    (BUILD / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
