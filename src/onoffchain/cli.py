"""Command-line front end.

Commands: simulate, mean, transform, limit, frozen, verify.  Every artifact
starts with a ``#``-prefixed header echoing the tool version, the effective
configuration, and the seed, so identical invocations produce byte-identical
files.

Exit codes: 0 success, 1 usage error, 2 numerical or precondition error,
3 property-suite failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, analytic, core, frozen, limit, sim, verify

ENV_SEED = "ONOFFCHAIN_SEED"
ENV_OUTDIR = "ONOFFCHAIN_OUTDIR"

USAGE_EXIT = 1
NUMERIC_EXIT = 2
SUITE_EXIT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Spec-string parsing
# ---------------------------------------------------------------------------

def parse_rates(text: str) -> core.RateSchedule:
    """``const:c | linear:c | logfam:theta,alpha | logsq | explicit:v1,v2,...``"""
    head, _, rest = text.partition(":")
    try:
        if head == "const":
            return core.RateSchedule.constant(float(rest))
        if head == "linear":
            return core.RateSchedule.linear(float(rest))
        if head == "logfam":
            theta, alpha = (float(x) for x in rest.split(","))
            return core.RateSchedule.log_family(theta, alpha)
        if head == "logsq":
            if rest:
                raise UsageError(f"logsq takes no parameters, got {rest!r}")
            return core.RateSchedule.log_square()
        if head == "explicit":
            return core.RateSchedule.explicit([float(x) for x in rest.split(",")])
    except (ValueError, core.ScheduleError) as exc:
        raise UsageError(f"bad rate spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown rate family {head!r} in {text!r}")


def parse_input(text: str) -> core.InputModel:
    """``permanent | exp:rho | det:d | empirical:path``"""
    head, _, rest = text.partition(":")
    try:
        if head == "permanent":
            return core.InputModel.permanent()
        if head == "exp":
            return core.InputModel.exponential(float(rest))
        if head == "det":
            return core.InputModel.deterministic(float(rest))
        if head == "empirical":
            with open(rest) as fh:
                vals = [float(line) for line in fh if line.strip() and not line.startswith("#")]
            return core.InputModel.empirical(vals)
    except OSError as exc:
        raise UsageError(f"cannot read empirical samples {rest!r}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad input spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown input kind {head!r} in {text!r}")


def parse_instance(text: str) -> frozen.ThresholdSequence:
    """``geometric:r | harmonic | prefix:v1,v2,...@<tail>``"""
    head, _, rest = text.partition(":")
    try:
        if head == "geometric":
            return frozen.ThresholdSequence.geometric(float(rest))
        if head == "harmonic":
            return frozen.ThresholdSequence.harmonic()
        if head == "prefix":
            vals, _, tail = rest.partition("@")
            return frozen.ThresholdSequence.with_prefix(
                [float(v) for v in vals.split(",")], parse_instance(tail))
    except ValueError as exc:
        raise UsageError(f"bad instance spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown instance kind {head!r} in {text!r}")


def _number_list(text: str, kind, flag: str) -> list:
    """Comma-separated numbers of one kind; a malformed entry is a usage error."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad {flag} {text!r}: {exc}") from exc


def parse_stop(text: str) -> sim.StopRule:
    """``horizon:T | first:node | count:node,m``"""
    head, _, rest = text.partition(":")
    try:
        if head == "horizon":
            return sim.StopRule.horizon(float(rest))
        if head == "first":
            return sim.StopRule.first_reception_at(int(rest))
        if head == "count":
            node, m = rest.split(",")
            return sim.StopRule.reception_count(int(node), int(m))
    except ValueError as exc:
        raise UsageError(f"bad stop spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown stop rule {head!r} in {text!r}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="onoffchain",
                description="simulate and verify linear on-off signal/recovery chains")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default: ${ENV_SEED} or 0)")
        sp.add_argument("--out", default=None,
                        help=f"output path (default: stdout; relative paths "
                             f"resolve under ${ENV_OUTDIR})")

    s = sub.add_parser("simulate", help="run the chain or sample first receptions")
    s.add_argument("--rates", required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--nodes", default=None, help="lo:hi (default 1:len for explicit)")
    s.add_argument("--stop", default=None,
                   help="stop rule of a single run (default horizon:10)")
    s.add_argument("--reps", type=int, default=1,
                   help="replications; >1 emits a first-reception sample")
    s.add_argument("--node", type=int, default=None,
                   help="observed node for --reps > 1 (default: leftmost)")
    common(s)

    m = sub.add_parser("mean", help="exact equal-rate mean and its log-ratio")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--bits", type=int, default=None)
    common(m)

    t = sub.add_parser("transform", help="chain transform on an s-grid")
    t.add_argument("--rates", required=True)
    t.add_argument("--input", required=True)
    t.add_argument("--s-grid", dest="s_grid", required=True)
    common(t)

    li = sub.add_parser("limit", help="truncation convergence diagnostics")
    li.add_argument("--rates", required=True)
    li.add_argument("--k", type=int, default=None,
                    help="observed node of the --ladder table")
    li.add_argument("--ladder", default=None)
    li.add_argument("--reps", type=int, default=None)
    li.add_argument("--certify", default=None, metavar="K1,K2,...",
                    help="emit dense-signal certificates for these node "
                         "indices instead of the convergence table")
    li.add_argument("--interval", default=None,
                    help="target interval a,b for --certify bounds")
    common(li)

    f = sub.add_parser("frozen", help="exhaustive cascade-candidate refutation")
    f.add_argument("--instance", required=True)
    f.add_argument("--max", dest="max_index", type=int, required=True)
    common(f)

    v = sub.add_parser("verify", help="run the property suite")
    v.add_argument("--quick", action="store_true")
    common(v)
    return p


def parse_args(argv) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is None:
        args.seed = int(os.environ.get(ENV_SEED, "0"))
    return args


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------

def _emit(args, header_fields: list[str], lines) -> None:
    out = ["# onoffchain " + __version__]
    out += ["# " + f for f in header_fields]
    out.append(f"# seed: {args.seed}")
    out.extend(lines)
    text = "\n".join(out) + "\n"
    if args.out:
        path = args.out
        if not os.path.isabs(path):
            path = os.path.join(os.environ.get(ENV_OUTDIR, "."), path)
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _node_range(args, rates: core.RateSchedule) -> tuple[int, int]:
    if args.nodes:
        lo, _, hi = args.nodes.partition(":")
        try:
            return int(lo), int(hi)
        except ValueError as exc:
            raise UsageError(f"bad --nodes {args.nodes!r}") from exc
    if rates.family == core.EXPLICIT:
        return rates.first_index, rates.first_index + len(rates.values) - 1
    raise UsageError("parametric schedules need an explicit --nodes lo:hi")


def _cmd_simulate(args) -> int:
    rates = parse_rates(args.rates)
    model = parse_input(args.input)
    lo, hi = _node_range(args, rates)
    cfg = core.SystemConfig(lo, hi, rates, model)
    command = f"command: simulate --rates {args.rates} --input {args.input} --nodes {lo}:{hi}"
    if args.reps == 1:
        if args.node is not None:
            raise ValueError("--node applies only to --reps > 1")
        stop_text = "horizon:10" if args.stop is None else args.stop
        stop = parse_stop(stop_text)
        if stop.kind == sim.HORIZON:
            try:
                sim.check_horizon(cfg, stop.time)
            except ValueError as exc:
                raise UsageError(f"bad stop spec {stop_text!r}: {exc}") from exc
        log = sim.simulate(cfg, sim.RandomnessPlan(args.seed, 0), stop)
        lines = ["kind,time,node_lo,node_hi"]
        lines.extend(log.csv_lines())
        _emit(args, [f"{command} --stop {stop_text} --reps 1"], lines)
    else:
        if args.stop is not None:
            raise ValueError("--stop applies only to a single run; --reps > 1 samples "
                             "the first reception at --node")
        node = args.node if args.node is not None else lo
        dist = sim.sample_first_reception(cfg, node, args.reps, args.seed)
        header = [f"{command} --reps {args.reps} --node {node}",
                  f"observable: first reception at node {node}, one value per line"]
        _emit(args, header, dist.export_lines())
    return 0


def _cmd_mean(args) -> int:
    hp = analytic.exact_mean_equal_rates(args.n, args.bits)
    # only the digits the working bits carry, at most 30
    digits = hp.digits(min(30, math.floor(hp.bits * math.log10(2))))
    lines = ["n,mean,ratio_to_log"]
    if args.n >= 2:
        lines.append(f"{args.n},{digits},{analytic.euler_ratio(args.n, hp.bits)!r}")
    else:
        lines.append(f"{args.n},{digits},")
    _emit(args, [f"command: mean --n {args.n} --bits {hp.bits}"], lines)
    return 0


def _cmd_transform(args) -> int:
    rates = parse_rates(args.rates)
    model = parse_input(args.input)
    if rates.family != core.EXPLICIT:
        raise UsageError("transform works on explicit rate lists")
    phi = analytic.chain_transform(model, rates.values)
    grid = _number_list(args.s_grid, float, "--s-grid")
    lines = ["s,phi"]
    lines.extend(f"{s!r},{phi(s)!r}" for s in grid)
    mean = analytic.mean_from_transform(phi)
    header = [f"command: transform --rates {args.rates} --input {args.input}",
              f"mean: {mean!r}",
              "tolerance: mean 1e-8 relative"]
    _emit(args, header, lines)
    return 0


def _cmd_limit(args) -> int:
    rates = parse_rates(args.rates)
    if args.certify:
        for flag, value in (("--ladder", args.ladder), ("--reps", args.reps)):
            if value is not None:
                raise UsageError(f"{flag} applies only to the --ladder table, not to --certify")
        text = "0,1" if args.interval is None else args.interval
        interval = _number_list(text, float, "--interval")
        if len(interval) != 2:
            raise UsageError(f"bad --interval {text!r}: need two values a,b")
        a, b = interval
        lines = ["k,tau,tail_sum,rho,bound"]
        for k in _number_list(args.certify, int, "--certify"):
            cert = limit.interval_reception_bound(k, (a, b), rates)
            lines.append(cert.record())
        header = [f"command: limit --rates {args.rates} --certify {args.certify} "
                  f"--interval {text}"]
        _emit(args, header, lines)
        return 0
    if args.interval is not None:
        raise UsageError("--interval applies only to --certify")
    if not args.ladder:
        raise UsageError("limit needs --ladder (or --certify)")
    if args.k is None:
        raise UsageError("limit --ladder needs --k")
    ladder = _number_list(args.ladder, int, "--ladder")
    reps = 10000 if args.reps is None else args.reps
    table = limit.convergence_diagnostics(args.k, ladder, rates, reps, args.seed)
    header = [f"command: limit --rates {args.rates} --k {args.k} "
              f"--ladder {args.ladder} --reps {reps}"]
    _emit(args, header, table.csv_lines())
    return 0


def _cmd_frozen(args) -> int:
    seq = parse_instance(args.instance)
    report = frozen.exhaustive_search(seq, args.max_index)
    header = [f"command: frozen --instance {args.instance} --max {args.max_index}",
              f"total candidates: {report.total}",
              f"all violated: {report.all_violated}"]
    _emit(args, header, report.csv_lines())
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_checks(quick=args.quick)
    lines = ["check,passed,detail"]
    ok = True
    for name, passed, detail in results:
        ok &= passed
        lines.append(f"{name},{'pass' if passed else 'FAIL'},{detail.replace(',', ';')}")
    _emit(args, [f"command: verify {'--quick' if args.quick else ''}".strip()], lines)
    return 0 if ok else SUITE_EXIT


_COMMANDS = {
    "simulate": _cmd_simulate,
    "mean": _cmd_mean,
    "transform": _cmd_transform,
    "limit": _cmd_limit,
    "frozen": _cmd_frozen,
    "verify": _cmd_verify,
}


def run(args) -> int:
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, RuntimeError, core.EventLogError) as exc:
        print(f"onoffchain: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        return run(args)
    except UsageError as exc:
        print(f"onoffchain: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
