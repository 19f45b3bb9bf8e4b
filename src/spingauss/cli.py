"""Command-line front end for the convergence and measurement experiments.

Configuration precedence is command line over config file over defaults; the
effective configuration is echoed into every report so a report plus the
package version fully determines its own numbers (exactly for quadrature
paths, through the recorded seed for Monte Carlo ones).

Exit codes: 0 success, 2 configuration error, 3 numerical accuracy or
truncation failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .channels import SweepSettings, convergence_sweep
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    SpinGaussError,
    TruncationError,
    ValidationError,
)
from .irreps import LocalParam
from .measurements import (
    McSpec,
    discrimination_limit,
    finite_n_discrimination,
    helstrom_risk,
    heterodyne_estimation_risk,
    heterodyne_risk_reference,
    measurement_tv_sweep,
    position_measurement_risk,
)
from .oscillator import FockTruncation, displaced_thermal
from .qubit_model import ModelParams
from .reports import ReportRow, RiskReport, read_report, render_svg, write_report

DEFAULTS = {
    "mu": "0.75",
    "n": "16,64,256",
    "epsilon": "0.1",
    "grid": "-1:1:3",
    "trunc": "0",
    "seed": "20260809",
    "samples": "0",
    "out": "",
    "format": "csv",
    "workers": "1",
}

CONFIG_KEYS = set(DEFAULTS)


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


def parse_float_list(text: str, name: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"invalid {name} list {text!r}") from exc
    if not vals:
        raise ConfigError(f"empty {name} list")
    return vals


def parse_int_list(text: str, name: str) -> list[int]:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"invalid {name} list {text!r}") from exc
    if not vals:
        raise ConfigError(f"empty {name} list")
    return vals


def _parse_axis(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ConfigError(f"grid axis must be 'min:max:steps', got {spec!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ConfigError("grid steps must be >= 1")
    if steps == 1:
        return [(lo + hi) / 2.0]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def parse_grid(spec: str) -> tuple[LocalParam, ...]:
    """Grid spec 'min:max:steps' (both axes) or two comma-separated axis specs."""
    try:
        axes = spec.split(",")
        if len(axes) == 1:
            xs = ys = _parse_axis(axes[0])
        elif len(axes) == 2:
            xs, ys = _parse_axis(axes[0]), _parse_axis(axes[1])
        else:
            raise ConfigError(f"grid wants one or two axis specs, got {spec!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid grid spec {spec!r}") from exc
    return tuple(LocalParam(x, y) for x in xs for y in ys)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingauss",
        description="Convergence and measurement experiments for collective qubit ensembles",
    )
    parser.add_argument("--version", action="version", version=f"spingauss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "convergence": "forward/reverse channel distances over an (n, u) grid",
        "discriminate": "binary discrimination risks against the oscillator limit",
        "measure-compare": "covariant versus heterodyne outcome statistics",
        "risk": "heterodyne estimation risk per mu",
        "plot": "render a report statistic as a deterministic SVG",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        if name == "plot":
            p.add_argument("report", help="path of a CSV or JSON report")
            p.add_argument("--statistic", default=None, help="statistic to plot")
            p.add_argument("--out", default=None, help="output SVG path")
            continue
        p.add_argument("--mu", default=None, help="comma list of mu values in (1/2, 1]")
        p.add_argument("--n", default=None, help="comma list of ensemble sizes")
        p.add_argument("--epsilon", default=None, help="concentration exponent in (0, 1/2)")
        p.add_argument("--grid", default=None, help="u grid 'min:max:steps[,min:max:steps]'")
        p.add_argument("--trunc", default=None, help="Fock cutoff override (0 = automatic)")
        p.add_argument("--seed", default=None, help="Monte Carlo seed")
        p.add_argument("--samples", default=None, help="Monte Carlo samples (0 = quadrature)")
        p.add_argument("--out", default=None, help="output path ('' = stdout)")
        p.add_argument("--format", default=None, choices=("csv", "json"), dest="fmt")
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--workers", default=None, help="parallel workers for sweeps")
    return parser


def effective_config(args: argparse.Namespace) -> tuple[dict[str, str], str]:
    """Apply CLI > file > defaults; return the config echoed into the report
    and the output path.

    The output path is dropped from the echo: it never influences a number,
    and keeping it would break byte-identical reruns written to new files.
    """
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    overrides = {
        "mu": args.mu,
        "n": args.n,
        "epsilon": args.epsilon,
        "grid": args.grid,
        "trunc": args.trunc,
        "seed": args.seed,
        "samples": args.samples,
        "out": args.out,
        "format": getattr(args, "fmt", None),
        "workers": args.workers,
    }
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = str(val)
    out = cfg.pop("out")
    return cfg, out


def _mus(cfg: dict[str, str]) -> list[float]:
    mus = parse_float_list(cfg["mu"], "mu")
    for mu in mus:
        if not 0.5 < mu <= 1.0:
            raise ConfigError(f"mu must lie in (1/2, 1], got {mu}")
    return mus


def _ns(cfg: dict[str, str]) -> list[int]:
    ns = parse_int_list(cfg["n"], "n")
    for n in ns:
        if n < 1:
            raise ConfigError(f"n must be positive, got {n}")
    return ns


def _epsilon(cfg: dict[str, str]) -> float:
    eps = float(cfg["epsilon"])
    if not 0.0 < eps < 0.5:
        raise ConfigError(f"epsilon must lie in (0, 1/2), got {eps}")
    return eps


def run_convergence(cfg: dict[str, str]) -> RiskReport:
    grid = parse_grid(cfg["grid"])
    eps = _epsilon(cfg)
    rows: list[ReportRow] = []
    for mu in _mus(cfg):
        settings = SweepSettings(
            mu=mu,
            n_values=tuple(_ns(cfg)),
            u_grid=grid,
            epsilon=eps,
            trunc_dim=int(cfg["trunc"]) or None,
            workers=int(cfg["workers"]),
        )
        for rec in convergence_sweep(settings):
            for pt in rec.points:
                rows.append(ReportRow(rec.n, mu, pt.u.ux, pt.u.uy, "forward_distance", pt.forward, pt.error_bound))
                rows.append(ReportRow(rec.n, mu, pt.u.ux, pt.u.uy, "block_distance_max", pt.block_max, pt.error_bound))
                rows.append(ReportRow(rec.n, mu, pt.u.ux, pt.u.uy, "reverse_distance", pt.reverse, pt.error_bound))
            rows.append(ReportRow(rec.n, mu, rec.forward_argmax.ux, rec.forward_argmax.uy, "forward_sup", rec.forward_sup, rec.error_bound))
            rows.append(ReportRow(rec.n, mu, rec.block_argmax.ux, rec.block_argmax.uy, "block_sup", rec.block_sup, rec.error_bound))
            rows.append(ReportRow(rec.n, mu, rec.reverse_argmax.ux, rec.reverse_argmax.uy, "reverse_sup", rec.reverse_sup, rec.error_bound))
            rows.append(ReportRow(rec.n, mu, 0.0, 0.0, "excluded_weight", rec.excluded_weight, 0.0))
    return RiskReport("convergence", __version__, int(cfg["seed"]), cfg, tuple(rows))


def run_discriminate(cfg: dict[str, str]) -> RiskReport:
    grid = parse_grid(cfg["grid"])
    eps = _epsilon(cfg)
    rows: list[ReportRow] = []
    for mu in _mus(cfg):
        for u in grid:
            if mu == 1.0:
                limit = discrimination_limit(u)
                limit_err = 0.0
            else:
                trunc = int(cfg["trunc"]) or 128
                ft = FockTruncation(trunc)
                plus = displaced_thermal(u, mu, ft)
                minus = displaced_thermal(-u, mu, ft)
                limit = helstrom_risk(plus.matrix, minus.matrix).risk
                limit_err = plus.trunc.tail_bound + minus.trunc.tail_bound
            rows.append(ReportRow(0, mu, u.ux, u.uy, "limit_risk", limit, limit_err))
            rows.append(ReportRow(0, mu, u.ux, u.uy, "position_risk_baseline", position_measurement_risk(u), 0.0))
            for n in _ns(cfg):
                res = finite_n_discrimination(ModelParams(n, mu, eps), u)
                rows.append(ReportRow(n, mu, u.ux, u.uy, "helstrom_risk", res.risk, res.error_bound))
    return RiskReport("discriminate", __version__, int(cfg["seed"]), cfg, tuple(rows))


def run_measure_compare(cfg: dict[str, str]) -> RiskReport:
    grid = parse_grid(cfg["grid"])
    eps = _epsilon(cfg)
    rows: list[ReportRow] = []
    for mu in _mus(cfg):
        ests = measurement_tv_sweep(mu, tuple(_ns(cfg)), grid, epsilon=eps)
        for est in ests:
            u = est.u
            rows.append(ReportRow(est.n, mu, u.ux, u.uy, "tv_bound", est.tv_bound, est.out_of_grid_bound))
            rows.append(ReportRow(est.n, mu, u.ux, u.uy, "tv_grid_term", est.grid_term, est.out_of_grid_bound))
            rows.append(ReportRow(est.n, mu, u.ux, u.uy, "covariant_mass", est.covariant_mass, est.concentration_deficit))
            rows.append(ReportRow(est.n, mu, u.ux, u.uy, "heterodyne_mass", est.heterodyne_mass, est.concentration_deficit))
            rows.append(ReportRow(est.n, mu, u.ux, u.uy, "out_of_grid_mass", est.out_of_grid_bound, 0.0))
            rows.append(ReportRow(est.n, mu, u.ux, u.uy, "concentration_deficit", est.concentration_deficit, 0.0))
    return RiskReport("measure-compare", __version__, int(cfg["seed"]), cfg, tuple(rows))


def run_risk(cfg: dict[str, str]) -> RiskReport:
    rows: list[ReportRow] = []
    samples = int(cfg["samples"])
    seed = int(cfg["seed"])
    for mu in _mus(cfg):
        if samples > 0:
            est = heterodyne_estimation_risk(mu, mc=McSpec(seed=seed, samples=samples))
        else:
            est = heterodyne_estimation_risk(mu)
        rows.append(ReportRow(0, mu, 0.0, 0.0, "heterodyne_risk", est.value, est.error_bound))
        rows.append(ReportRow(0, mu, 0.0, 0.0, "heterodyne_risk_reference_derived", heterodyne_risk_reference(mu), 0.0))
    return RiskReport("risk", __version__, seed, cfg, tuple(rows))


def run_plot(args: argparse.Namespace) -> int:
    report = read_report(args.report)
    statistic = args.statistic
    if not statistic:
        counted: dict[str, int] = {}
        for r in report.rows:
            if r.n > 0:
                counted[r.statistic] = counted.get(r.statistic, 0) + 1
        statistic = next((s for s, c in counted.items() if c >= 2), None)
        if statistic is None:
            raise ConfigError("report holds no statistic with at least 2 rows")
    svg = render_svg(report, statistic)
    out = args.out or (os.path.splitext(args.report)[0] + f".{statistic}.svg")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return 0


RUNNERS = {
    "convergence": run_convergence,
    "discriminate": run_discriminate,
    "measure-compare": run_measure_compare,
    "risk": run_risk,
}


def _normalize_argv(argv: list[str]) -> list[str]:
    """Glue values onto flags whose arguments can start with a minus sign.

    argparse would otherwise read the grid spec '-1:1:3' as an option string.
    """
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--grid":
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"--grid={val}")
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "plot":
            return run_plot(args)
        cfg, out = effective_config(args)
        report = RUNNERS[args.command](cfg)
        if out:
            write_report(report, out, cfg["format"])
        else:
            from .reports import render_csv, render_json

            text = render_csv(report) if cfg["format"] == "csv" else render_json(report)
            sys.stdout.write(text)
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, AccuracyError, ValidationError) as exc:
        print(f"error: accuracy: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    except SpinGaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
