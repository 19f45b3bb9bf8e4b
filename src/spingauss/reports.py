"""Report records and deterministic CSV / JSON / SVG emission.

Every experiment emits rows of (n, mu, u_x, u_y, statistic, value,
error_bound).  Floats are written with 17 significant digits so the files
round-trip bit exactly; nothing time- or environment-dependent is written,
which makes byte-identical reruns the expected behavior rather than a
special mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass(frozen=True)
class ReportRow:
    n: int
    mu: float
    u_x: float
    u_y: float
    statistic: str
    value: float
    error_bound: float


@dataclass(frozen=True)
class RiskReport:
    experiment: str
    version: str
    seed: int | None
    config: dict[str, str]
    rows: tuple[ReportRow, ...] = field(default_factory=tuple)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def render_csv(report: RiskReport) -> str:
    lines = [f"# spingauss {report.experiment} report"]
    lines.append(f"# version = {report.version}")
    lines.append(f"# seed = {report.seed if report.seed is not None else ''}")
    for key in sorted(report.config):
        if key == "seed":
            continue
        lines.append(f"# {key} = {report.config[key]}")
    lines.append("n,mu,u_x,u_y,statistic,value,error_bound")
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    str(r.n),
                    _fmt(r.mu),
                    _fmt(r.u_x),
                    _fmt(r.u_y),
                    r.statistic,
                    _fmt(r.value),
                    _fmt(r.error_bound),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def render_json(report: RiskReport) -> str:
    payload = {
        "experiment": report.experiment,
        "version": report.version,
        "seed": report.seed,
        "config": dict(sorted(report.config.items())),
        "rows": [
            {
                "n": r.n,
                "mu": r.mu,
                "u_x": r.u_x,
                "u_y": r.u_y,
                "statistic": r.statistic,
                "value": r.value,
                "error_bound": r.error_bound,
            }
            for r in report.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render(report: RiskReport, fmt: str) -> str:
    """The report in format ``fmt``, csv or json."""
    return render_csv(report) if fmt == "csv" else render_json(report)


def write_report(report: RiskReport, path: str, fmt: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render(report, fmt))


def read_report(path: str) -> RiskReport:
    """Read a report back from either emitted format (used by the plotter).

    A file that is not a well-formed report, down to a bad number or a
    missing key, raises ``ConfigError``; only failing to open it is an
    ``OSError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _parse_report(fh.read())
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed report {path}: {exc!r}") from exc


def _parse_report(text: str) -> RiskReport:
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        rows = tuple(
            ReportRow(
                n=int(r["n"]),
                mu=float(r["mu"]),
                u_x=float(r["u_x"]),
                u_y=float(r["u_y"]),
                statistic=str(r["statistic"]),
                value=float(r["value"]),
                error_bound=float(r["error_bound"]),
            )
            for r in payload["rows"]
        )
        return RiskReport(
            experiment=payload.get("experiment", "unknown"),
            version=payload.get("version", ""),
            seed=payload.get("seed"),
            config={k: str(v) for k, v in payload.get("config", {}).items()},
            rows=rows,
        )
    config: dict[str, str] = {}
    rows_list = []
    header_seen = False
    experiment = "unknown"
    version = ""
    seed: int | None = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.endswith("report") and body.startswith("spingauss"):
                experiment = body.split()[1]
            elif "=" in body:
                key, _, val = body.partition("=")
                key, val = key.strip(), val.strip()
                if key == "version":
                    version = val
                elif key == "seed":
                    seed = int(val) if val else None
                else:
                    config[key] = val
            continue
        if not header_seen:
            if line != "n,mu,u_x,u_y,statistic,value,error_bound":
                raise ConfigError(f"unrecognized report header: {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ConfigError(f"malformed report row: {line!r}")
        rows_list.append(
            ReportRow(
                n=int(parts[0]),
                mu=float(parts[1]),
                u_x=float(parts[2]),
                u_y=float(parts[3]),
                statistic=parts[4],
                value=float(parts[5]),
                error_bound=float(parts[6]),
            )
        )
    if not header_seen:
        raise ConfigError("not a spingauss report (missing header row)")
    return RiskReport(experiment, version, seed, config, tuple(rows_list))


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#e377c2", "#7f7f7f")


def render_svg(report: RiskReport, statistic: str) -> str:
    """Log-x line plot of one statistic, one polyline per (mu, u) series.

    Pure function of the parsed rows: equal reports give byte-equal files.
    """
    import math

    rows = [r for r in report.rows if r.statistic == statistic and r.n > 0]
    if len(rows) < 2:
        raise ConfigError(f"need at least 2 rows of statistic {statistic!r} to plot")
    series: dict[tuple[float, float, float], list[ReportRow]] = {}
    for r in rows:
        series.setdefault((r.mu, r.u_x, r.u_y), []).append(r)
    for key in series:
        series[key] = sorted(series[key], key=lambda r: r.n)
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 64.0, 160.0, 36.0, 48.0
    xs = [math.log10(r.n) for r in rows]
    ys = [r.value for r in rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-12:
        y1 = y0 + max(abs(y0), 1.0) * 0.1
    pad = 0.06 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v: float) -> float:
        return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v: float) -> float:
        return height - mb - (v - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{ml}" y="{mt - 14}" font-family="monospace" font-size="13">'
        f"{report.experiment}: {statistic}</text>",
    ]
    parts.append(
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>'
    )
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>')
    ns = sorted({r.n for r in rows})
    for n in ns:
        x = sx(math.log10(n))
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - mb + 18}" font-family="monospace" font-size="11" '
            f'text-anchor="middle">{n}</text>'
        )
    for k in range(5):
        yv = y0 + (y1 - y0) * k / 4
        y = sy(yv)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" font-family="monospace" font-size="11" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    for idx, key in enumerate(sorted(series)):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{sx(math.log10(r.n)):.2f},{sy(r.value):.2f}" for r in series[key])
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for r in series[key]:
            parts.append(
                f'<circle cx="{sx(math.log10(r.n)):.2f}" cy="{sy(r.value):.2f}" r="2.5" fill="{color}"/>'
            )
        ly = mt + 16 * idx
        parts.append(
            f'<rect x="{width - mr + 10}" y="{ly - 8}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - mr + 26}" y="{ly + 1}" font-family="monospace" font-size="11">'
            f"mu={key[0]:g} u=({key[1]:g},{key[2]:g})</text>"
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 12}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">n (log scale)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
