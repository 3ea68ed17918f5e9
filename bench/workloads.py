"""The benchmark's three workloads: seeded inputs, task lists and gates.

A task is one call as a user makes it: one ``sample_first_reception``, one
exact mean, one simulate-and-validate, one CLI command.  Its body makes the
calls into ``onoffchain`` (each through ``Tracer.call``) and is timed; its
check runs afterwards, untimed, and compares the result with a reference
from ``refs`` or with an exact identity.  Inputs come from the workload
seed alone.  Their sizes are fixed, so the work per pass hardly depends on
the seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import mpmath
import numpy as np

from onoffchain import analytic, cli, core, frozen, limit, sim

import refs
from spans import EVAL, Tracer

WORKLOADS = ("mc_sampling", "exact_analytic", "event_logs")

# A correct program fails a gate with negligible probability at these
# levels: a sample mean may sit Z exact standard errors from the exact mean
# (normal tail ~1e-12), and every KS, DKW and dominance test runs at ALPHA.
Z = 7.0
ALPHA = 1e-9

LINEAR = core.RateSchedule.linear(1.0)

# Checks that fail at the seed commit for a reason already on the ROADMAP.
# They run and count in `failed` and `fail_frac`; they do not make `correct`
# false.  A fix makes them pass and lowers `fail_frac`.
KNOWN_DEFECTS = {
    "chain_transform+mean_from_transform equal-rate n=64":
        "ROADMAP direction 3: the equal-rate chain transform is an alternating "
        "binomial sum of float logs and loses about one bit per node",
}


@dataclass
class Task:
    name: str
    body: Callable[[Tracer], object]
    check: Callable[[object], str | None]     # failure detail, or None


@dataclass
class Workload:
    tasks: list[Task]
    warmup: Callable[[], object]


SIZES = {
    "mc_sampling": {
        "full": {"unit": {2: (10, 200), 3: (10, 200), 8: (8, 150), 32: (6, 150)},
                 "twin_reps": 1000, "perm_reps": 2000, "mono_reps": 1500,
                 "ladder_reps": 400, "cli_reps": 2000},
        "tiny": {"unit": {2: (2, 40), 32: (1, 20)},
                 "twin_reps": 40, "perm_reps": 60, "mono_reps": 60,
                 "ladder_reps": 20, "cli_reps": 50},
    },
    "exact_analytic": {
        "full": {"ladder": (64, 128, 256, 512, 1024, 2048),
                 "euler": (64, 128, 256, 512, 1024), "rational": 16,
                 "equal_chain": (8, 16, 32, 64), "distinct": range(4, 15),
                 "frozen": (8, 10, 12), "cert_k": (10, 20, 50, 100),
                 "cdf_t": (25.0, 100.0, 1e4)},
        "tiny": {"ladder": (64, 128), "euler": (64,), "rational": 4,
                 "equal_chain": (8, 64), "distinct": range(4, 7),
                 "frozen": (4,), "cert_k": (10,), "cdf_t": (25.0,)},
    },
    "event_logs": {
        "full": {"n_cycle": (4, 8, 12, 16),
                 "horizon": {"explicit": 1600.0, "constant": 3200.0, "linear": 1000.0},
                 "count_left": 480, "count_mid": 1200, "coupled_horizon": 1200.0,
                 "gaps": 8000, "extension_horizon": 1200.0},
        "tiny": {"n_cycle": (4, 6),
                 "horizon": {"explicit": 20.0, "constant": 20.0, "linear": 10.0},
                 "count_left": 3, "count_mid": 6, "coupled_horizon": 20.0,
                 "gaps": 50, "extension_horizon": 40.0},
    },
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The task list of one workload; inputs depend only on ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](rng, SIZES[name][size])


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 63))


# ---------------------------------------------------------------------------
# Shared task pieces
# ---------------------------------------------------------------------------

def _mean_gate(label: str, mean: float, count: int, ref: tuple[float, float]):
    ref_mean, ref_var = ref
    se = math.sqrt(ref_var / count)
    if not abs(mean - ref_mean) <= Z * se:
        return f"{label}: mean {mean!r} vs exact {ref_mean!r} is more than {Z} se ({se:.3g})"
    return None


def _first(*details):
    return next((d for d in details if d), None)


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


def _cli(tr: Tracer, argv: list[str], out_name: str) -> tuple[int, list[str], list[str]]:
    """Run one command in-process, writing under $ONOFFCHAIN_OUTDIR; return
    the exit code, the ``#`` header lines and the data lines."""
    path = os.path.join(os.environ[cli.ENV_OUTDIR], out_name)
    if os.path.exists(path):
        os.remove(path)
    code = tr.call("cli.main", cli.main, argv + ["--out", out_name])
    tr.count("cli.main.calls")
    if code != 0:
        tr.count("cli.main.nonzero_exits")
        return code, [], []
    with open(path) as fh:
        lines = fh.read().splitlines()
    return code, [x for x in lines if x.startswith("#")], [x for x in lines if not x.startswith("#")]


def _cli_exit(result) -> str | None:
    return None if result[0] == 0 else f"exit code {result[0]}"


def _sample(tr: Tracer, cfg, node: int, reps: int, seed: int, keep: list | None = None):
    dist = tr.call("sim.sample_first_reception", sim.sample_first_reception,
                   cfg, node, reps, seed)
    tr.count("sim.sample_first_reception.calls")
    tr.count("sim.sample_first_reception.reps", reps)
    tr.count("mc.reps", reps)
    if keep is not None:
        keep.append(dist)
    return dist, tr.call("sim.stats", dist.mean)


def _core_chain(tr: Tracer, log: core.EventLog) -> dict:
    """Every core validator on one log; raises on a broken log invariant."""
    tr.call("core.validate_event_log", core.validate_event_log, log)
    seq = tr.call("core.log_to_sequence", core.log_to_sequence, log)
    report = tr.call("core.validate_signal_recovery", core.validate_signal_recovery, seq)
    traj = tr.call("core.to_on_off", core.to_on_off, seq)
    dyn = tr.call("core.check_dynamics", core.check_dynamics, traj, seq)
    back = tr.call("core.switch_times", core.switch_times, traj)
    tr.count("core.events_validated", len(log.events))
    return {"seq": seq, "report": report, "dyn": dyn, "back": back}


def _core_gate(label: str, v: dict) -> str | None:
    if not v["report"].consistent:
        return f"{label}: {v['report'].violations[0]}"
    if not v["dyn"].passed:
        return f"{label}: dynamics check failed"
    seq, back = v["seq"], v["back"]
    if back.receptions != seq.receptions or back.recoveries != seq.recoveries:
        return f"{label}: on-off round trip changed the sequence"
    return None


def _counted(tr: Tracer, phi: analytic.LaplaceEval) -> analytic.LaplaceEval:
    """In the traced run, a transform whose every evaluation is a span."""
    if not tr.enabled:
        return phi
    return analytic.LaplaceEval(partial(tr.call, EVAL, phi), phi.kind, phi.label)


# ---------------------------------------------------------------------------
# mc_sampling: the Monte Carlo harness on permanently fed chains
# ---------------------------------------------------------------------------

def _unit_chain(n: int) -> core.SystemConfig:
    return core.SystemConfig(1, n, core.RateSchedule.constant(1.0), core.InputModel.permanent())


def _check_sample(label, reps, ref, lower=None, result=None):
    dist, mean = result
    if dist.count != reps:
        return f"{label}: {dist.count} values for {reps} replications"
    gate = _mean_gate(label, mean, reps, ref)
    if gate is None and lower is not None and mean < lower - Z * math.sqrt(ref[1] / reps):
        gate = f"{label}: mean {mean!r} below the harmonic bound {lower!r}"
    return gate


def _twin_ks(tr: Tracer, pair: list):
    a, b = pair
    d = tr.call("sim.stats", sim.ks_statistic, a, b)
    crit = tr.call("sim.stats", sim.ks_two_sample_critical, a.count, b.count, ALPHA)
    return d, crit


def _check_twin_ks(label, result):
    d, crit = result
    return None if d < crit else f"{label}: KS {d!r} >= critical {crit!r}"


def _pooled(tr: Tracer, keep: list):
    values = np.concatenate([d.samples for d in keep])
    dist = tr.call("sim.stats", sim.EmpiricalDistribution.from_values, values)
    return dist, tr.call("sim.stats", dist.mean)


def _ladder_gate(label, ladder, reps, exact, means, ks_column):
    """Truncation means against the exact law of the chain [1, l] with rates
    1..l; the KS column may not rise by more than the critical value."""
    crit = math.sqrt(-math.log(ALPHA / 2.0) / 2.0) * math.sqrt(2.0 / reps)
    if len(means) != len(ladder):
        return f"{label}: {len(means)} rows for a ladder of {len(ladder)}"
    for l, m, ref in zip(ladder, means, exact):
        gate = _mean_gate(f"{label} l={l}", m, reps, ref)
        if gate:
            return gate
    for a, b in zip(ks_column, ks_column[1:]):
        if b > a + crit:
            return f"{label}: KS column {ks_column} rose by more than {crit!r}"
    return None


def _mc_sampling(rng, size) -> Workload:
    tasks = []
    for n, (chunks, reps) in size["unit"].items():
        cfg = _unit_chain(n)
        ref = refs.chain_moments(1, [1] * (n - 1))
        lower = refs.harmonic(n)
        keep: list = []
        for c in range(chunks):
            label = f"sample_first_reception unit n={n} chunk={c}"
            tasks.append(Task(label, partial(_sample, cfg=cfg, node=1, reps=reps,
                                             seed=_seed(rng), keep=keep),
                              partial(_check_sample, label, reps, ref, lower)))
        label = f"pooled unit n={n}"
        tasks.append(Task(label, partial(_pooled, keep=keep),
                          partial(_check_sample, label, chunks * reps, ref, lower)))

    # criterion 4: a slow extra node on the left or on the right, same law
    n, reps = 16, size["twin_reps"]
    slow = 1.0 / math.log(n)
    twins = {
        "left": (core.SystemConfig(0, n, core.RateSchedule.explicit([slow] + [1.0] * n, first_index=0),
                                   core.InputModel.permanent()), 0,
                 refs.chain_moments(1.0, [slow] + [1.0] * (n - 1))),
        "right": (core.SystemConfig(1, n + 1, core.RateSchedule.explicit([1.0] * n + [slow]),
                                    core.InputModel.permanent()), 1,
                  refs.chain_moments(slow, [1.0] * n)),
    }
    # criterion 5: a permuted rate list, same law
    reps_p = size["perm_reps"]
    perms = {
        "1,2,3": (core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 3.0]),
                                    core.InputModel.permanent()), 1, refs.chain_moments(3, [1, 2])),
        "3,1,2": (core.SystemConfig(1, 3, core.RateSchedule.explicit([3.0, 1.0, 2.0]),
                                    core.InputModel.permanent()), 1, refs.chain_moments(2, [3, 1])),
    }
    for group, r, members in (("slow extra node", reps, twins), ("permuted rates", reps_p, perms)):
        pair: list = []
        for side, (cfg, node, ref) in members.items():
            label = f"sample_first_reception {group} {side}"
            tasks.append(Task(label, partial(_sample, cfg=cfg, node=node, reps=r,
                                             seed=_seed(rng), keep=pair),
                              partial(_check_sample, label, r, ref, None)))
        label = f"ks twins {group}"
        tasks.append(Task(label, partial(_twin_ks, pair=pair), partial(_check_twin_ks, label)))

    # the linear(1) truncation ladder
    mono_reps, mono_seed, mono_ladder = size["mono_reps"], _seed(rng), [2, 3, 4, 5, 6]

    def mono(tr):
        tr.count("mc.reps", mono_reps * len(mono_ladder))
        return tr.call("limit.monotonicity_check", limit.monotonicity_check,
                       1, mono_ladder, LINEAR, mono_reps, mono_seed, alpha=ALPHA)

    def check_mono(report):
        if len(report.rows) != len(mono_ladder) - 1:
            return f"monotonicity_check: {len(report.rows)} rows"
        return None if report.all_dominate else f"monotonicity_check: {report.failures()}"

    tasks.append(Task("monotonicity_check linear l=2..6", mono, check_mono))

    ladder, ladder_reps = [4, 8, 16, 32], size["ladder_reps"]
    ladder_seed = _seed(rng)
    ladder_exact = [refs.chain_moments(l, range(1, l)) for l in ladder]

    def diagnostics(tr):
        tr.count("mc.reps", ladder_reps * len(ladder))
        return tr.call("limit.convergence_diagnostics", limit.convergence_diagnostics,
                       1, ladder, LINEAR, ladder_reps, ladder_seed)

    tasks.append(Task("convergence_diagnostics linear l=4..32", diagnostics,
                      lambda t: _ladder_gate("convergence_diagnostics", ladder, ladder_reps,
                                             ladder_exact, t.means(), t.ks_column())))

    # the README's commands
    cli_reps, sim_seed, lim_seed = size["cli_reps"], _seed(rng), _seed(rng)

    def cli_simulate(tr):
        tr.count("mc.reps", cli_reps)
        return _cli(tr, ["simulate", "--rates", "explicit:1,1", "--input", "permanent",
                         "--reps", str(cli_reps), "--seed", str(sim_seed), "--node", "1"],
                    "mc_simulate.txt")

    pair_exact = refs.chain_moments(1, [1])

    def check_cli_simulate(res):
        if res[0] != 0:
            return _cli_exit(res)
        values = [float(x) for x in res[2]]
        if len(values) != cli_reps:
            return f"cli simulate: {len(values)} values for {cli_reps} replications"
        return _mean_gate("cli simulate", math.fsum(values) / len(values), cli_reps, pair_exact)

    def cli_limit(tr):
        tr.count("mc.reps", ladder_reps * len(ladder))
        return _cli(tr, ["limit", "--rates", "linear:1", "--k", "1", "--ladder",
                         ",".join(map(str, ladder)), "--reps", str(ladder_reps),
                         "--seed", str(lim_seed)], "mc_limit.txt")

    def check_cli_limit(res):
        if res[0] != 0:
            return _cli_exit(res)
        rows = [line.split(",") for line in res[2][1:]]
        means = [float(r[1]) for r in rows]
        ks = [float(r[2]) for r in rows if r[2]]
        return _ladder_gate("cli limit", ladder, ladder_reps, ladder_exact, means, ks)

    tasks.append(Task("cli simulate --reps --node 1", cli_simulate, check_cli_simulate))
    tasks.append(Task("cli limit --ladder 4,8,16,32", cli_limit, check_cli_limit))

    def warmup():
        return sim.sample_first_reception(_unit_chain(2), 1, 20, 0).mean()

    return Workload(tasks, warmup)


# ---------------------------------------------------------------------------
# exact_analytic: exact means, chain transforms, certificates, the refuter
# ---------------------------------------------------------------------------

def _exact_mean(tr: Tracer, n: int, bits: int | None = None):
    hp = tr.call("analytic.exact_mean_equal_rates", analytic.exact_mean_equal_rates, n, bits)
    tr.count("analytic.exact_mean_equal_rates.calls")
    tr.maximum("analytic.exact_mean_equal_rates.max_n", n)
    return hp


def _check_exact_mean(n: int, ref, bits: int, hp) -> str | None:
    """Right to within 16 units in the last of its ``bits`` bits, or to the
    40 digits of the reference, and above H_n."""
    if hp.bits != bits:
        return f"exact mean n={n}: {hp.bits} bits, expected {bits}"
    with mpmath.workprec(2 * n + 256):
        rel = abs(hp.value - ref) / ref
        tol = max(mpmath.ldexp(1, 4 - bits), mpmath.mpf("1e-38"))
        if rel > tol:
            return f"exact mean n={n}: relative error {mpmath.nstr(rel, 3)} > {mpmath.nstr(tol, 3)}"
        if hp.value < refs.harmonic(n) * (1 - 1e-15):
            return f"exact mean n={n} below H_n"
    return None


def _certificate_gate(label: str, k: int, tau: float, tail: float, rate: float,
                      bound: float, length: float) -> str | None:
    r = math.exp(-tau)
    want_tail = r ** k / (1.0 - r)
    want_bound = (math.exp(-math.sqrt(tau)) * max(0.0, 1.0 - want_tail)
                  * -math.expm1(-length / (2.0 * math.sqrt(tau))))
    r_below = math.exp(-tau * (1 - 1e-6))
    if not (0 < tau < length / 2):
        return f"{label}: window {tau!r} outside (0, {length / 2})"
    if _rel(tail, want_tail) > 1e-12 or tail > 1.0 / k:
        return f"{label}: tail sum {tail!r}, closed form {want_tail!r}, target 1/{k}"
    if r_below ** k / (1.0 - r_below) <= 1.0 / k:
        return f"{label}: window {tau!r} is not the smallest that certifies"
    if _rel(rate, 1.0 / math.sqrt(tau)) > 1e-12 or _rel(bound, want_bound) > 1e-12:
        return f"{label}: rate {rate!r} or bound {bound!r} off (want {want_bound!r})"
    return None


def _exact_analytic(rng, size) -> Workload:
    tasks = []
    for n in size["ladder"]:
        ref = refs.ladder_mean(n)
        tasks.append(Task(f"exact_mean_equal_rates n={n}", partial(_exact_mean, n=n),
                          partial(_check_exact_mean, n, ref, n + 64)))
    for n in size["euler"]:
        with mpmath.workprec(256):
            want = float(refs.ladder_mean(n) / mpmath.log(n))

        def ratio(tr, n=n):
            return tr.call("analytic.euler_ratio", analytic.euler_ratio, n)

        tasks.append(Task(f"euler_ratio n={n}", ratio,
                          lambda r, n=n, want=want: None if _rel(r, want) <= 1e-13 else
                          f"euler_ratio({n}) = {r!r}, exact {want!r}"))

    for n in range(1, size["rational"] + 1):
        exact = refs.unit_chain_fraction(n)

        def fraction(tr, n=n):
            return tr.call("analytic.exact_mean_small_fraction", analytic.exact_mean_small_fraction, n)

        tasks.append(Task(f"exact_mean_small_fraction n={n}", fraction,
                          lambda f, n=n, exact=exact:
                          None if f == exact else f"rational mean n={n}: {f} != {exact}"))
        with mpmath.workprec(n + 300):
            ref = refs.to_mpf(exact)
        tasks.append(Task(f"exact_mean_equal_rates n={n}", partial(_exact_mean, n=n),
                          partial(_check_exact_mean, n, ref, n + 64)))

    def cross_precision(tr):
        return _exact_mean(tr, 64, 128), _exact_mean(tr, 64, 256)

    def check_cross(pair):
        a, b = pair
        with mpmath.workprec(400):
            rel = abs(a.value - b.value) / b.value
        if rel >= mpmath.mpf("1e-30"):
            return f"n=64 at 128 vs 256 bits: relative difference {mpmath.nstr(rel, 3)}"
        return _first(_check_exact_mean(64, refs.ladder_mean(64), 128, a),
                      _check_exact_mean(64, refs.ladder_mean(64), 256, b))

    tasks.append(Task("exact_mean_equal_rates n=64 at 128 and 256 bits", cross_precision, check_cross))

    exp1 = core.InputModel.exponential(1.0)
    for n in size["equal_chain"]:
        ref = refs.chain_moments(1, [1] * n)[0]

        def equal_chain(tr, n=n):
            phi = tr.call("analytic.chain_transform", analytic.chain_transform, exp1, [1.0] * n)
            tr.count("analytic.mean_from_transform.calls")
            return tr.call("analytic.mean_from_transform", analytic.mean_from_transform,
                           _counted(tr, phi))

        tasks.append(Task(f"chain_transform+mean_from_transform equal-rate n={n}", equal_chain,
                          lambda m, n=n, ref=ref: None if _rel(m, ref) <= 1e-6 else
                          f"equal-rate chain n={n}: transform mean {m!r}, exact {ref!r}"))

    for L in size["distinct"]:
        rates = rng.uniform(0.3, 4.0, size=L)
        perm = rng.permutation(rates)
        model = (core.InputModel.exponential(rng.uniform(0.5, 2.0)),
                 core.InputModel.deterministic(rng.uniform(0.3, 1.5)),
                 core.InputModel.empirical(rng.gamma(2.0, 0.5, size=64)))[L % 3]
        base = analytic.transform_of_input(model)

        def permutation(tr, model=model, rates=rates, perm=perm):
            phi = _counted(tr, tr.call("analytic.chain_transform", analytic.chain_transform, model, rates))
            psi = _counted(tr, tr.call("analytic.chain_transform", analytic.chain_transform, model, perm))
            return [(phi(s), psi(s)) for s in (0.1, 1.0, 10.0)]

        def subsets(tr, model=model, rates=rates, base=base):
            phi = _counted(tr, tr.call("analytic.chain_transform", analytic.chain_transform, model, rates))
            return [(tr.call("analytic.subset_expansion", analytic.subset_expansion, base, rates, s),
                     phi(s)) for s in (0.5, 2.0)]

        def agree(tol, what, pairs):
            worst = max(abs(a - b) for a, b in pairs)
            return None if worst <= tol else f"{what}: disagreement {worst!r} > {tol}"

        tag = f"L={L} {model.kind}"
        tasks.append(Task(f"chain_transform permutation {tag}", permutation,
                          partial(agree, 1e-12, f"permutation {tag}")))
        tasks.append(Task(f"subset_expansion vs chain {tag}", subsets,
                          partial(agree, 1e-10, f"subset expansion {tag}")))

    for seq in (frozen.ThresholdSequence.geometric(0.5), frozen.ThresholdSequence.harmonic()):
        for m in size["frozen"]:
            def search(tr, seq=seq, m=m):
                report = tr.call("frozen.exhaustive_search", frozen.exhaustive_search, seq, m)
                tr.count("frozen.exhaustive_search.candidates", report.total)
                return report

            def check_search(report, m=m, label=f"{seq.describe()} m={m}"):
                if report.total != 2 ** (m + 1) or len(report.rows) != report.total:
                    return f"{label}: {report.total} candidates, expected {2 ** (m + 1)}"
                if not report.all_violated or any(r[2] != "violated" or r[3] is None
                                                  for r in report.rows):
                    return f"{label}: a candidate survived"
                return None

            tasks.append(Task(f"exhaustive_search {seq.describe()} m={m}", search, check_search))

    cert_ks = list(size["cert_k"]) + [int(rng.integers(101, 200))]
    for k in cert_ks:
        def certificate(tr, k=k):
            return tr.call("limit.certificates", limit.interval_reception_bound, k, (0.0, 1.0), LINEAR)

        tasks.append(Task(f"interval_reception_bound k={k}", certificate,
                          lambda c, k=k: _certificate_gate(f"certificate k={k}", k, c.tau, c.tail_sum,
                                                           c.input_rate, c.bound, 1.0)))
    for t in size["cdf_t"]:
        rho, rt = t ** (-2.0 / 3.0), math.sqrt(t)
        tail = math.exp(-rt) / (1.0 - math.exp(-rt))
        want = math.exp(-rho * rt) * max(0.0, 1.0 - tail) * -math.expm1(-rho * (t - rt))

        def cdf_bound(tr, t=t):
            return tr.call("limit.certificates", limit.cdf_lower_bound, 1, t, LINEAR)

        tasks.append(Task(f"cdf_lower_bound t={t:g}", cdf_bound,
                          lambda b, t=t, want=want: None if _rel(b, want) <= 1e-12 else
                          f"cdf_lower_bound({t}) = {b!r}, closed form {want!r}"))

    # the README's commands
    cli_seed = str(_seed(rng))
    grid = sorted(float(x) for x in rng.uniform(0.05, 20.0, size=3))

    def check_cli_mean(res):
        if res[0] != 0:
            return _cli_exit(res)
        n, digits, ratio = res[2][1].split(",")
        with mpmath.workprec(128):
            rel = abs(mpmath.mpf(digits) - mpmath.mpf(8) / 3) / (mpmath.mpf(8) / 3)
        # the mean is carried at n + 64 = 67 bits and printed to 30 digits
        if n != "3" or rel > 2.0 ** -63 or _rel(float(ratio), 8 / 3 / math.log(3)) > 1e-13:
            return f"cli mean: row {res[2][1]!r}"
        return None

    def check_cli_transform(res):
        if res[0] != 0:
            return _cli_exit(res)
        mean = float(next(h for h in res[1] if h.startswith("# mean: ")).split(": ")[1])
        rows = [tuple(map(float, line.split(","))) for line in res[2][1:]]
        if [s for s, _ in rows] != grid or _rel(mean, 2.0) > 1e-7:
            return f"cli transform: grid {rows} or mean {mean!r}"
        worst = max(_rel(v, s * (s + 2) / (s + 1) ** 2) for s, v in rows)
        return None if worst <= 1e-13 else f"cli transform: relative error {worst!r}"

    def check_cli_certify(res):
        if res[0] != 0:
            return _cli_exit(res)
        for line in res[2][1:]:
            k, tau, tail, rate, bound = line.split(",")
            gate = _certificate_gate(f"cli certify k={k}", int(k), float(tau), float(tail),
                                     float(rate), float(bound), 1.0)
            if gate:
                return gate
        return None if len(res[2]) == 3 else f"cli certify: {len(res[2]) - 1} rows"

    def check_cli_frozen(res):
        if res[0] != 0:
            return _cli_exit(res)
        rows = res[2][1:]
        if ("# total candidates: 2048" not in res[1] or "# all violated: True" not in res[1]
                or len(rows) != 2048 or any(r.rsplit(",", 3)[1] != "violated" for r in rows)):
            return "cli frozen: header or rows off"
        return None

    def check_cli_verify(res):
        if res[0] != 0:
            return _cli_exit(res)
        bad = [r for r in res[2][1:] if r.split(",")[1] != "pass"]
        return f"cli verify: {bad}" if bad or len(res[2]) < 2 else None

    commands = [
        ("mean --n 3", ["mean", "--n", "3"], check_cli_mean),
        ("transform", ["transform", "--rates", "explicit:1", "--input", "exp:1",
                       "--s-grid", ",".join(repr(s) for s in grid)], check_cli_transform),
        ("limit --certify 20,50", ["limit", "--rates", "linear:1", "--certify", "20,50",
                                   "--interval", "0,1", "--k", "1"], check_cli_certify),
        ("frozen geometric:0.5 --max 10", ["frozen", "--instance", "geometric:0.5", "--max", "10"],
         check_cli_frozen),
        ("verify --quick", ["verify", "--quick"], check_cli_verify),
    ]
    for i, (label, argv, check) in enumerate(commands):
        tasks.append(Task(f"cli {label}",
                          partial(_cli, argv=argv + ["--seed", cli_seed], out_name=f"exact_{i}.txt"),
                          check))

    def warmup():
        phi = analytic.chain_transform(exp1, [1.0, 2.0])
        return float(analytic.exact_mean_equal_rates(16)) + analytic.mean_from_transform(phi)

    return Workload(tasks, warmup)


# ---------------------------------------------------------------------------
# event_logs: long trajectories through the whole core validation chain
# ---------------------------------------------------------------------------

def _offered_points(tr: Tracer, log: core.EventLog, cfg: core.SystemConfig,
                  plan: sim.RandomnessPlan) -> dict:
    """Potential recovery points offered up to the log's horizon, per node."""
    offered = {}
    for node, rate in zip(range(cfg.left_node, cfg.right_node + 1), cfg.node_rates()):
        pts = tr.call("sim.recovery_points", plan.recovery_points, node, rate, log.horizon)
        tr.count("sim.recovery_points.points", len(pts))
        offered[node] = pts
    recoveries = sum(1 for e in log.events if e[0] == core.RECOVERY)
    tr.count("sim.points_consumed", recoveries)
    return offered


def _recoveries_offered(label: str, log: core.EventLog, offered: dict) -> str | None:
    by_node: dict[int, list[float]] = {}
    for e in log.events:
        if e[0] == core.RECOVERY:
            by_node.setdefault(e[2], []).append(e[1])
    for node, times in by_node.items():
        if not np.all(np.isin(times, offered[node])):
            return f"{label}: a recovery at node {node} is not an offered point"
    return None


def _simulate(tr: Tracer, cfg, plan, stop) -> core.EventLog:
    log = tr.call("sim.simulate", sim.simulate, cfg, plan, stop)
    tr.count("sim.simulate.calls")
    tr.count("sim.simulate.events", len(log.events))
    return log


def _log_task(tr: Tracer, cfg, plan, stop) -> dict:
    log = _simulate(tr, cfg, plan, stop)
    out = _core_chain(tr, log)
    out["log"] = log
    out["offered"] = _offered_points(tr, log, cfg, plan)
    return out


def _check_log(label: str, stop: sim.StopRule, out: dict) -> str | None:
    log = out["log"]
    if stop.kind == sim.HORIZON:
        if log.horizon != stop.time:
            return f"{label}: horizon {log.horizon!r}, asked {stop.time!r}"
    elif len(log.receptions_at(stop.node)) != stop.count:
        return f"{label}: {len(log.receptions_at(stop.node))} receptions, asked {stop.count}"
    return _first(_core_gate(label, out), _recoveries_offered(label, log, out["offered"]))


def _event_logs(rng, size) -> Workload:
    tasks = []
    cycle = size["n_cycle"]
    inputs = [
        core.InputModel.permanent(),
        core.InputModel.exponential(rng.uniform(1.2, 1.8)),
        core.InputModel.deterministic(rng.uniform(0.55, 0.85)),
        core.InputModel.empirical(rng.gamma(2.0, 0.35, size=64)),
    ]
    for f, family in enumerate(("explicit", "constant", "linear")):
        for i, model in enumerate(inputs):
            n = cycle[(f + i) % len(cycle)]
            if family == "explicit":
                rates = core.RateSchedule.explicit(
                    rng.permutation(np.linspace(0.5, 3.0, n)) * rng.uniform(0.9, 1.1, size=n))
            elif family == "constant":
                rates = core.RateSchedule.constant(rng.uniform(0.8, 1.25))
            else:
                rates = core.RateSchedule.linear(rng.uniform(0.8, 1.25))
            cfg = core.SystemConfig(1, n, rates, model)
            stops = [sim.StopRule.horizon(size["horizon"][family]),
                     sim.StopRule.reception_count(1, size["count_left"]),
                     sim.StopRule.reception_count(1 + n // 2, size["count_mid"])]
            for stop in stops:
                plan = sim.RandomnessPlan(_seed(rng), int(rng.integers(0, 2 ** 32)))
                label = f"simulate+validate {family} n={n} {model.kind} {stop.kind}"
                tasks.append(Task(label, partial(_log_task, cfg=cfg, plan=plan, stop=stop),
                                  partial(_check_log, label, stop)))

    # coupled runs: exponential against deterministic input on shared streams
    n = 10
    rates = core.RateSchedule.explicit(rng.uniform(0.5, 3.0, size=n))
    rho = rng.uniform(1.0, 2.0)
    cfg_exp = core.SystemConfig(1, n, rates, core.InputModel.exponential(rho))
    cfg_det = core.SystemConfig(1, n, rates, core.InputModel.deterministic(1.0 / rho))
    coupled_seed = _seed(rng)
    coupled_stop = sim.StopRule.horizon(size["coupled_horizon"])

    def coupled(tr):
        a, b = tr.call("sim.coupled_compare", sim.coupled_compare, cfg_exp, cfg_det,
                       coupled_seed, coupled_stop)
        plan = sim.RandomnessPlan(coupled_seed, 0)
        return [dict(_core_chain(tr, log), log=log, offered=_offered_points(tr, log, cfg, plan))
                for log, cfg in ((a, cfg_exp), (b, cfg_det))]

    def check_coupled(runs):
        for tag, out in zip(("exp", "det"), runs):
            gate = _check_log(f"coupled {tag}", coupled_stop, out)
            if gate:
                return gate
        a, b = (out["offered"] for out in runs)
        if any(not np.array_equal(a[k], b[k]) for k in a):
            return "coupled runs were offered different recovery points"
        return None

    tasks.append(Task("coupled_compare exp vs det", coupled, check_coupled))

    # interreception gaps at node 1 from one long run, against the exact law
    gap_count = size["gaps"]
    for label, cfg, ref in (
            ("unit n=4 permanent", _unit_chain(4), refs.chain_moments(1, [1, 1, 1])),
            ("rates 1,2,3 exp(2)", core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 3.0]),
                                                     core.InputModel.exponential(2.0)),
             refs.chain_moments(2, [1, 2, 3]))):
        def gaps(tr, cfg=cfg, seed=_seed(rng)):
            dist = tr.call("sim.sample_interreception", sim.sample_interreception,
                           cfg, 1, gap_count, seed)
            return dist, tr.call("sim.stats", dist.mean)

        tasks.append(Task(f"sample_interreception {label}", gaps,
                          partial(_check_sample, f"interreception {label}", gap_count, ref, None)))

    # a restricted window onto a permanently fed linear truncation
    ext_seed, ext_horizon = _seed(rng), size["extension_horizon"]

    def extension(tr):
        ext = tr.call("limit.sample_extension", limit.sample_extension, 3, 16, ext_horizon,
                      LINEAR, ext_seed)
        out = _core_chain(tr, ext.log)
        seq = out["seq"]
        tests = []
        for node in (1, 2, 3):
            off = [r - s for s, r in zip(seq.receptions[node], seq.recoveries[node])]
            dist = tr.call("sim.stats", sim.EmpiricalDistribution.from_values, off)
            d = tr.call("sim.stats", sim.ks_one_sample, dist,
                        lambda x, rate=float(node): -np.expm1(-rate * np.asarray(x)))
            tests.append((node, d, tr.call("sim.stats", sim.ks_one_sample_critical, dist.count, ALPHA)))
        return dict(out, ks=ext.sensitivity_ks, tests=tests)

    def check_extension(out):
        bad = [(node, d, c) for node, d, c in out["tests"] if d >= c]
        if bad or not 0.0 <= out["ks"] <= 1.0:
            return f"sample_extension: off-durations not exponential {bad} or KS {out['ks']!r}"
        return _core_gate("sample_extension", out)

    tasks.append(Task("sample_extension k=3 l=16", extension, check_extension))

    # the README's command
    cli_seed = _seed(rng)
    cli_cfg = core.SystemConfig(1, 3, core.RateSchedule.explicit([1.0, 2.0, 3.0]),
                                core.InputModel.permanent())

    def cli_simulate(tr):
        res = _cli(tr, ["simulate", "--rates", "explicit:1,2,3", "--input", "permanent",
                        "--stop", "horizon:10", "--seed", str(cli_seed)], "events_simulate.txt")
        log = _simulate(tr, cli_cfg, sim.RandomnessPlan(cli_seed, 0), sim.StopRule.horizon(10.0))
        return res, log, _core_chain(tr, log)

    def check_cli_simulate(out):
        res, log, chain = out
        if res[0] != 0:
            return _cli_exit(res)
        if res[2][1:] != list(log.csv_lines()):
            return "cli simulate: rows differ from the engine's log"
        return _core_gate("cli simulate", chain)

    tasks.append(Task("cli simulate --stop horizon:10", cli_simulate, check_cli_simulate))

    def warmup():
        log = sim.simulate(cli_cfg, sim.RandomnessPlan(0, 0), sim.StopRule.horizon(5.0))
        return core.check_dynamics(core.to_on_off(core.log_to_sequence(log)), core.log_to_sequence(log))

    return Workload(tasks, warmup)


_BUILDERS = {"mc_sampling": _mc_sampling, "exact_analytic": _exact_analytic,
             "event_logs": _event_logs}
