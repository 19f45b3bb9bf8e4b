"""Command-line front end for the convergence and measurement experiments.

Every configuration key is listed once in ``KEYS``, with its parser and the
subcommands that read it; a subcommand accepts only the flags of its own
keys.  Configuration precedence is command line over config file over
defaults; the keys a subcommand read are echoed into its report, so a
report plus the package version fully determines its own numbers (exactly
for quadrature paths, through the recorded seed for Monte Carlo ones).
A grid experiment is one list of (mu, n, u) point tasks, run in row order
by ``run_points``: serially, or over one process pool with ``--workers``.

Exit codes: 0 success, 2 configuration error, 3 numerical accuracy
failure or a refused allocation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import partial
from typing import Callable, NamedTuple

from . import __version__
from .channels import convergence_point
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    SpinGaussError,
    ValidationError,
)
from .irreps import LocalParam
from .measurements import (
    McSpec,
    finite_n_discrimination,
    heterodyne_estimation_risk,
    heterodyne_risk_reference,
    limit_discrimination,
    measurement_tv,
    position_measurement_risk,
)
from .qubit_model import ModelParams
from .reports import ReportRow, RiskReport, read_report, render, render_svg, write_report


class Key(NamedTuple):
    """A configuration key: its default, the parser that checks and converts
    its value, the subcommands that read it and its flag help."""

    default: str
    parse: Callable[[str], object]
    commands: frozenset[str]
    help: str


def _check(name: str, val, ok: Callable[[object], bool], rule: str):
    if not ok(val):
        raise ConfigError(f"{name} must {rule}, got {val}")
    return val


def _scalar(name: str, conv: Callable[[str], object], ok: Callable[[object], bool], rule: str):
    """Parser of one value, converted by ``conv`` and checked by ``ok``."""

    def parse(text: str):
        try:
            val = conv(text)
        except ValueError as exc:
            raise ConfigError(f"invalid {name} {text!r}") from exc
        return _check(name, val, ok, rule)

    return parse


def _list(name: str, conv: Callable[[str], object], ok: Callable[[object], bool], rule: str):
    """Parser of a comma list of distinct values, each converted by ``conv``
    and checked by ``ok``: a repeated value would repeat every report row it
    reaches."""

    def parse(text: str) -> list:
        try:
            vals = [conv(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"invalid {name} list {text!r}") from exc
        if not vals:
            raise ConfigError(f"empty {name} list")
        vals = [_check(name, val, ok, rule) for val in vals]
        if len(set(vals)) < len(vals):
            raise ConfigError(f"repeated value in {name} list {text!r}")
        return vals

    return parse


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
    """Grid spec 'min:max:steps' (both axes) or two comma-separated axis specs.

    A grid that holds one point twice is rejected, as a repeated ``--mu`` or
    ``--n`` value is: it would repeat every report row of that point.
    """
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
    grid = tuple(LocalParam(x, y) for x in xs for y in ys)
    if len(set(grid)) < len(grid):
        raise ConfigError(f"repeated point in grid {spec!r}")
    return grid


_GRID = frozenset(("convergence", "discriminate", "measure-compare"))
_ALL = _GRID | {"risk"}

# Every configuration key, with the subcommands that read it.  A subcommand
# takes a flag only for the keys it reads; a config file may hold any key.
KEYS = {
    "mu": Key(
        "0.75", _list("mu", float, lambda v: 0.5 < v <= 1.0, "lie in (1/2, 1]"), _ALL,
        "comma list of mu values in (1/2, 1]",
    ),
    "n": Key(
        "16,64,256", _list("n", int, lambda v: v >= 1, "be positive"), _GRID,
        "comma list of ensemble sizes",
    ),
    "epsilon": Key(
        "0.1", _scalar("epsilon", float, lambda v: 0.0 < v < 0.5, "lie in (0, 1/2)"),
        frozenset(("convergence", "measure-compare")), "concentration exponent in (0, 1/2)",
    ),
    "grid": Key("-1:1:3", parse_grid, _GRID, "u grid 'min:max:steps[,min:max:steps]'"),
    "workers": Key(
        "1", _scalar("workers", int, lambda v: v >= 1, "be at least 1"),
        _GRID, "parallel workers over the (mu, n, u) points",
    ),
    "samples": Key(
        "0", _scalar("samples", int, lambda v: v == 0 or v >= 2, "be 0 (quadrature) or at least 2"),
        frozenset(("risk",)), "Monte Carlo samples (0 = quadrature)",
    ),
    "seed": Key(
        "20260809", _scalar("seed", int, lambda v: v >= 0, "be nonnegative"),
        frozenset(("risk",)), "Monte Carlo seed",
    ),
    "format": Key(
        "csv", _scalar("format", str, lambda v: v in ("csv", "json"), "be csv or json"), _ALL,
        "report format, csv or json",
    ),
    "out": Key("", str, _ALL, "output path ('' = stdout)"),
}


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
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


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
        for key, spec in KEYS.items():
            if name in spec.commands:
                p.add_argument(f"--{key}", default=None, help=spec.help)
        p.add_argument(
            "--config", default=None,
            help="flat key = value config file; it may hold the keys of every subcommand",
        )
    return parser


def effective_config(args: argparse.Namespace) -> tuple[dict[str, str], dict[str, object]]:
    """Apply CLI > file > defaults to the keys ``args.command`` reads.

    Returns the configuration echoed into the report and the parsed values
    (``KEYS``).  Keys of other subcommands in the config file are neither
    parsed nor echoed.  The output path is dropped from the echo: it never
    influences a number, and keeping it would break byte-identical reruns
    written to new files.
    """
    keys = [key for key, spec in KEYS.items() if args.command in spec.commands]
    cfg = {key: KEYS[key].default for key in keys}
    if args.config:
        cfg.update((k, v) for k, v in parse_config_file(args.config).items() if k in cfg)
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    values = {key: KEYS[key].parse(cfg[key]) for key in keys}
    del cfg["out"]
    return cfg, values


# (PointStats field, per-point statistic, per-n sup statistic) of a convergence report
_CONVERGENCE_STATS = (
    ("forward", "forward_distance", "forward_sup"),
    ("block_max", "block_distance_max", "block_sup"),
    ("reverse", "reverse_distance", "reverse_sup"),
)


def run_points(tasks: list[partial], workers: int) -> list:
    """Each zero-argument task's result, in task order: serially at one worker,
    else over one process pool (imported here: a serial run never loads it),
    which cancels the tasks not yet started once one fails."""
    if workers == 1:
        return [task() for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        return list(pool.map(partial.__call__, tasks))


def run_convergence(cfg: dict[str, object]) -> list[ReportRow]:
    """``convergence_point`` at every (mu, n, u), in that order, then per
    (mu, n) the sup rows: the first largest value in grid order, with the
    largest bound of that n's points, which bounds each sup."""
    rows: list[ReportRow] = []
    mus, ns, grid = cfg["mu"], cfg["n"], cfg["grid"]
    tasks = [partial(convergence_point, ModelParams(n, mu, cfg["epsilon"]), u) for mu in mus for n in ns for u in grid]
    stats = iter(run_points(tasks, cfg["workers"]))
    for mu in mus:
        for n in ns:
            points = [(u, next(stats)) for u in grid]
            for u, pt in points:
                for field, statistic, _ in _CONVERGENCE_STATS:
                    rows.append(ReportRow(n, mu, u.ux, u.uy, statistic, getattr(pt, field), pt.error_bound))
            bound = max(pt.error_bound for _, pt in points)
            for field, _, statistic in _CONVERGENCE_STATS:
                u, pt = max(points, key=lambda point: getattr(point[1], field))
                rows.append(ReportRow(n, mu, u.ux, u.uy, statistic, getattr(pt, field), bound))
    return rows


def run_discriminate(cfg: dict[str, object]) -> list[ReportRow]:
    """Per (mu, u): the limit (n = 0) and position risks, then each n's."""
    rows: list[ReportRow] = []
    points = [(mu, u, n) for mu in cfg["mu"] for u in cfg["grid"] for n in (0, *cfg["n"])]
    tasks = [partial(finite_n_discrimination, ModelParams(n, mu), u) if n else partial(limit_discrimination, u, mu)
             for mu, u, n in points]
    for (mu, u, n), res in zip(points, run_points(tasks, cfg["workers"])):
        if n:
            rows.append(ReportRow(n, mu, u.ux, u.uy, "helstrom_risk", res.risk, res.error_bound))
        else:
            rows.append(ReportRow(0, mu, u.ux, u.uy, "limit_risk", res.risk, res.error_bound))
            rows.append(ReportRow(0, mu, u.ux, u.uy, "position_risk_baseline", position_measurement_risk(u), 0.0))
    return rows


def run_measure_compare(cfg: dict[str, object]) -> list[ReportRow]:
    rows: list[ReportRow] = []
    points = [(mu, n, u) for mu in cfg["mu"] for n in cfg["n"] for u in cfg["grid"]]
    tasks = [partial(measurement_tv, ModelParams(n, mu, cfg["epsilon"]), u) for mu, n, u in points]
    for (mu, n, u), est in zip(points, run_points(tasks, cfg["workers"])):
        rows.append(ReportRow(n, mu, u.ux, u.uy, "tv_bound", est.tv_bound, est.out_of_grid_bound))
        rows.append(ReportRow(n, mu, u.ux, u.uy, "tv_grid_term", est.grid_term, est.out_of_grid_bound))
        rows.append(ReportRow(n, mu, u.ux, u.uy, "covariant_mass", est.covariant_mass, est.concentration_deficit))
        rows.append(ReportRow(n, mu, u.ux, u.uy, "heterodyne_mass", est.heterodyne_mass, est.concentration_deficit))
        rows.append(ReportRow(n, mu, u.ux, u.uy, "out_of_grid_mass", est.out_of_grid_bound, 0.0))
        rows.append(ReportRow(n, mu, u.ux, u.uy, "concentration_deficit", est.concentration_deficit, 0.0))
    return rows


def run_risk(cfg: dict[str, object]) -> list[ReportRow]:
    mc = McSpec(cfg["seed"], cfg["samples"]) if cfg["samples"] else None
    rows: list[ReportRow] = []
    for mu in cfg["mu"]:
        est = heterodyne_estimation_risk(mu, mc=mc)
        rows.append(ReportRow(0, mu, 0.0, 0.0, "heterodyne_risk", est.value, est.error_bound))
        rows.append(ReportRow(0, mu, 0.0, 0.0, "heterodyne_risk_reference_derived", heterodyne_risk_reference(mu), 0.0))
    return rows


def run_plot(args: argparse.Namespace) -> int:
    report = read_report(args.report)
    statistic = args.statistic
    if not statistic:
        counted = Counter(r.statistic for r in report.rows if r.n > 0)
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
        val = next(it, None) if tok == "--grid" else None
        out.append(tok if val is None else f"--grid={val}")
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
        cfg, values = effective_config(args)
        rows = RUNNERS[args.command](values)
        report = RiskReport(args.command, __version__, values.get("seed"), cfg, tuple(rows))
        if values["out"]:
            write_report(report, values["out"], values["format"])
        else:
            sys.stdout.write(render(report, values["format"]))
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ValidationError) as exc:
        print(f"error: accuracy: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    except SpinGaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
