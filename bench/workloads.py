"""Seeded workloads: the CLI argv each one runs and the oracle that checks it.

A workload is a list of invocations of ``spingauss.cli.main``.  The seed only
picks the local parameters ``u`` (with ``|u|`` in [0.2, 1]) and the Monte
Carlo seed; the program sees nothing but the generated argv.  Every oracle is
seed independent: a monotone decrease in ``n`` or a closed form, the same
anchors the acceptance suite uses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# Sizes the workloads run at.  "tiny" exists for the harness self-test only:
# the same argv shapes and oracles, small enough to finish in seconds.
SIZES = {
    "full": {"blocks_n": (16, 64, 256), "tv_n": (64, 1024), "risk_mu": (0.75, 0.9, 1.0), "mc_samples": 200_000},
    "tiny": {"blocks_n": (4, 16, 64), "tv_n": (64, 256), "risk_mu": (1.0,), "mc_samples": 50_000},
}

# One checked statistic: a label, the values it looked at, and the verdict.
Check = tuple[str, list[float], bool]


@dataclass(frozen=True)
class Invocation:
    """One CLI call, the report file it writes, and the oracle for that report."""

    label: str
    argv: tuple[str, ...]
    out: str
    check: Callable[[dict], list[Check]]


def _annulus_point(rng: random.Random) -> tuple[float, float]:
    radius = rng.uniform(0.2, 1.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * math.cos(angle), radius * math.sin(angle)


def seeded_points(seed: int) -> tuple[str, tuple[float, float]]:
    """A two-point ``--grid`` spec and one more point, all with |u| in [0.2, 1].

    The CLI grid is a product of axes, so the pair shares its u_y: the second
    u_x is drawn so that its |u| is uniform over what the annulus allows.
    """
    rng = random.Random(seed)
    x1, y = _annulus_point(rng)
    r2 = rng.uniform(max(0.2, abs(y)), 1.0)
    x2 = math.copysign(math.sqrt(r2 * r2 - y * y), rng.uniform(-1.0, 1.0))
    x1, x2, y = (round(v, 6) for v in (x1, x2, y))
    single = tuple(round(v, 6) for v in _annulus_point(rng))
    return f"{x1!r}:{x2!r}:2,{y!r}", single


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _series(report: dict, statistic: str, mu: float) -> dict[int, float]:
    return {
        r["n"]: r["value"]
        for r in report["rows"]
        if r["statistic"] == statistic and r["mu"] == mu
    }


def _decreasing(values: list[float]) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _convergence_check(ns: tuple[int, ...], mus: tuple[float, ...]):
    def check(report: dict) -> list[Check]:
        out = []
        for mu in mus:
            for stat in ("forward_sup", "reverse_sup"):
                series = _series(report, stat, mu)
                vals = [series.get(n, math.nan) for n in ns]
                ok = _decreasing(vals) and vals[-1] < vals[0] / 2.0
                out.append((f"mu={mu} {stat} decreasing, last < first/2", vals, ok))
        return out

    return check


def _discrimination_check(ns: tuple[int, ...], u: tuple[float, float]):
    closed_form = 0.5 * (1.0 - math.sqrt(-math.expm1(-4.0 * (u[0] ** 2 + u[1] ** 2))))

    def check(report: dict) -> list[Check]:
        limit = _series(report, "limit_risk", 1.0).get(0, math.nan)
        risks = _series(report, "helstrom_risk", 1.0)
        gaps = [abs(risks.get(n, math.nan) - limit) for n in ns]
        return [
            ("mu=1 limit_risk vs closed form", [limit, closed_form], abs(limit - closed_form) <= 1e-12),
            ("mu=1 |helstrom_risk - limit_risk| decreasing, last < 0.01", gaps, _decreasing(gaps) and gaps[-1] < 0.01),
        ]

    return check


def _tv_check(ns: tuple[int, ...], mu: float):
    def check(report: dict) -> list[Check]:
        out = []
        points = sorted({(r["u_x"], r["u_y"]) for r in report["rows"]})
        if len(points) != 2:
            return [("report holds two u", [float(len(points))], False)]
        for u in points:
            rows = [r for r in report["rows"] if (r["u_x"], r["u_y"]) == u]
            sub = {"rows": rows}
            for n in ns:
                deficit = _series(sub, "concentration_deficit", mu).get(n, math.nan)
                for stat in ("covariant_mass", "heterodyne_mass"):
                    mass = _series(sub, stat, mu).get(n, math.nan)
                    ok = abs(mass - 1.0) <= 1e-3 + deficit
                    out.append((f"u={u} n={n} {stat} within 1e-3 + deficit of 1", [mass, deficit], ok))
            tv = _series(sub, "tv_bound", mu)
            vals = [tv.get(ns[0], math.nan), tv.get(ns[-1], math.nan)]
            out.append((f"u={u} tv_bound(n={ns[-1]}) < tv_bound(n={ns[0]})", vals, vals[1] < vals[0]))
        return out

    return check


def _risk_check(mus: tuple[float, ...]):
    def check(report: dict) -> list[Check]:
        out = []
        for mu in mus:
            ref = mu / (2.0 * mu - 1.0) ** 2
            value = _series(report, "heterodyne_risk", mu).get(0, math.nan)
            out.append((f"mu={mu} heterodyne_risk within 1% of mu/(2mu-1)^2", [value, ref], abs(value - ref) <= 0.01 * ref))
        return out

    return check


def build(workload: str, seed: int, outdir: str, sizes: str = "full") -> list[Invocation]:
    """The invocations of ``workload`` for ``seed``, writing reports under ``outdir``."""
    size = SIZES[sizes]
    calls: list[tuple[str, list[str], Callable[[dict], list[Check]]]] = []
    pair, single = seeded_points(seed)
    if workload == "blocks":
        ns, mus = size["blocks_n"], (0.75, 1.0)
        argv = ["convergence", "--mu", _join(mus), "--n", _join(ns), f"--grid={pair}"]
        calls.append((f"convergence grid={pair}", argv, _convergence_check(ns, mus)))
        argv = ["discriminate", "--mu", _join(mus), "--n", _join(ns), f"--grid={single[0]!r},{single[1]!r}"]
        calls.append((f"discriminate u={single}", argv, _discrimination_check(ns, single)))
    elif workload == "tv":
        ns, mu = size["tv_n"], 0.75
        argv = ["measure-compare", "--mu", str(mu), "--n", _join(ns), f"--grid={pair}"]
        calls.append((f"measure-compare grid={pair}", argv, _tv_check(ns, mu)))
    elif workload == "heterodyne":
        mus = size["risk_mu"]
        calls.append(("risk quadrature", ["risk", "--mu", _join(mus)], _risk_check(mus)))
        mc_seed = seed % 2**31
        argv = ["risk", "--mu", "0.75", "--samples", str(size["mc_samples"]), "--seed", str(mc_seed)]
        calls.append((f"risk monte-carlo seed={mc_seed}", argv, _risk_check((0.75,))))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    invocations = []
    for k, (label, argv, check) in enumerate(calls):
        out = f"{outdir}/{workload}-{k}.json"
        invocations.append(Invocation(label, tuple(argv + ["--out", out, "--format", "json"]), out, check))
    return invocations


WORKLOADS = ("blocks", "tv", "heterodyne")
