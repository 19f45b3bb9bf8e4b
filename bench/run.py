"""End-to-end benchmark of the spingauss CLI, with an optional traced run.

    python3 bench/run.py --workload blocks --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src``.  Every pass runs the workload's CLI
invocations (see ``workloads.py``) in one fresh child interpreter with the
BLAS/OpenMP thread count pinned to ``THREADS``, one child at a time.  Passes
repeat until the next one would end after ``--seconds``.  Each report is
checked against a seed-independent oracle; an invocation fails when it exits
non-zero or fails its check.

``--trace 0`` reports, as medians over the run:

* ``setup_s``: child start until ``spingauss.cli`` is imported, sampled by
  ``SETUP_SAMPLES`` import-only children plus every pass;
* ``run_s``: wall time of one pass's invocations, setup excluded;
* ``peak_rss_mb``: peak resident memory (``ru_maxrss``) of one pass's child.

Both times are in reference seconds: each child also times a fixed NumPy
kernel that does not use spingauss, and its wall times are scaled by
``REF_S`` over that kernel's time.  On a shared host the machine's speed
drifts by tens of percent over minutes, and the scaling cancels most of it.
The unscaled wall times are printed as ``setup_wall_s`` and ``run_wall_s``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` from the traced ones, plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is the
JSON result.  The program's reports and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ".bench_out"
THREADS = "1"
SETUP_SAMPLES = 2
# every run has to exit within 180 s, whatever --seconds asks for
RUN_LIMIT_S = 170.0

# Nominal time of child.py's reference kernel: about what it takes on the
# machine of BASELINE.json when its host is quiet.
REF_S = 0.2

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


class HarnessError(Exception):
    """The benchmark cannot measure here; no result is printed."""


@dataclass
class Pass:
    traced: bool
    result: dict | None
    checks: list[list[workloads.Check]] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argvs: list[tuple[str, ...]], traced: bool, outdir: Path, timeout: float) -> dict | None:
    """Run one child interpreter; None when it crashed or timed out."""
    spec_path, result_path = outdir / "spec.json", outdir / "result.json"
    spec = {"src": str(ROOT / "src"), "argvs": argvs, "trace": traced, "spans": str(outdir / "spans.jsonl")}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0 or not result_path.exists():
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - spawned
    return result


def run_pass(invs: list[workloads.Invocation], traced: bool, outdir: Path, timeout: float) -> Pass:
    for inv in invs:
        (ROOT / inv.out).unlink(missing_ok=True)
    p = Pass(traced, run_child([inv.argv for inv in invs], traced, outdir, timeout))
    for k, inv in enumerate(invs):
        checks: list[workloads.Check] = []
        ok = p.result is not None and p.result["rc"][k] == 0
        if ok:
            try:
                report = json.loads((ROOT / inv.out).read_text(encoding="utf-8"))
                checks = inv.check(report)
            except (OSError, ValueError, KeyError) as exc:
                checks = [(f"report unreadable: {exc}", [], False)]
            ok = bool(checks) and all(c[2] for c in checks)
        p.checks.append(checks)
        p.ok.append(ok)
    return p


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _summary(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name:<12} no samples"
    return f"{name:<12} median {_median(values):.6g} {unit}  max {max(values):.6g} {unit}  n={len(values)}"


def _fmt_check(k: int, check: workloads.Check) -> str:
    label, values, ok = check
    return f"  check [{k}] {label}: {', '.join(f'{v:.12g}' for v in values)} {'ok' if ok else 'FAILED'}"


def measure(workload: str, seed: int, seconds: int, trace: bool, sizes: str = "full", log=print) -> dict:
    """Run one benchmark run and return the result object of the last line."""
    start = time.monotonic()
    if not (ROOT / "src" / "spingauss" / "cli.py").is_file():
        raise HarnessError(f"no spingauss sources under {ROOT / 'src'}")
    outdir = ROOT / OUT / workload
    outdir.mkdir(parents=True, exist_ok=True)
    invs = workloads.build(workload, seed, f"{OUT}/{workload}", sizes)

    setups = []
    for _ in range(SETUP_SAMPLES):
        r = run_child([], False, outdir, RUN_LIMIT_S - (time.monotonic() - start))
        if r is None:
            raise HarnessError("the child interpreter could not import spingauss.cli")
        setups.append(r)
    log(f"machine: {json.dumps(r['machine'], sort_keys=True)} seed={seed}")
    log(f"workload {workload}: {len(invs)} invocations per pass, trace={int(trace)}")
    for k, inv in enumerate(invs):
        log(f"  [{k}] {inv.label}: spingauss {' '.join(inv.argv)}")

    modes = (False, True) if trace else (False,)
    passes: list[Pass] = []
    while True:
        traced = modes[len(passes) % len(modes)]
        t0 = time.monotonic()
        p = run_pass(invs, traced, outdir, RUN_LIMIT_S - (t0 - start))
        took = time.monotonic() - t0
        passes.append(p)
        if p.result is None:
            log(f"pass {len(passes)} ({'traced' if traced else 'untraced'}): child failed")
        else:
            log(
                f"pass {len(passes)} ({'traced' if traced else 'untraced'}): run_wall_s {sum(p.result['wall_s']):.4f}"
                f" setup_wall_s {p.result['setup_s']:.4f} ref_s {p.result['ref_s']:.4f}"
                f" peak_rss_mb {p.result['maxrss_mib']:.1f}"
                f" ok {sum(p.ok)}/{len(p.ok)}"
            )
        for k, checks in enumerate(p.checks):
            for c in checks:
                if len(passes) == 1 or not c[2]:
                    log(_fmt_check(k, c))
        elapsed = time.monotonic() - start
        if elapsed + took > RUN_LIMIT_S:
            break
        if len(passes) >= len(modes) and elapsed + took > seconds:
            break

    done = [p for p in passes if p.result is not None]
    plain = [p.result for p in done if not p.traced]
    if not plain:
        raise HarnessError("no untraced pass completed")
    children = setups + [p.result for p in done]
    samples = {
        "setup_wall_s": [r["setup_s"] for r in children],
        "run_wall_s": [sum(r["wall_s"]) for r in plain],
        "ref_s": [r["ref_s"] for r in children],
        "setup_s": [_scaled(r, r["setup_s"]) for r in children],
        "run_s": [_scaled(r, sum(r["wall_s"])) for r in plain],
        "peak_rss_mb": [r["maxrss_mib"] for r in plain],
    }
    for name, values in samples.items():
        log(_summary(name, values, END_TO_END.get(name, "s")))
    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)
    log(f"{'error_rate':<12} {failed}/{attempted} = {failed / attempted:.6g} fraction  n={attempted}")

    if not trace:
        metrics = {name: {"value": _median(samples[name]), "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = _layer_metrics([p.result for p in done if p.traced], plain, log)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _scaled(result: dict, seconds: float) -> float:
    """A child's wall time in reference seconds: seconds * REF_S / its ref_s."""
    return seconds * REF_S / result["ref_s"]


def _layer_metrics(traced: list[dict], plain: list[dict], log) -> dict:
    """Medians of the traced passes' layer metrics, plus the two diagnostics."""
    if traced and traced[0]["absent"]:
        log(f"traced functions absent from the package (reported as 0): {', '.join(traced[0]['absent'])}")
    values = {name: _median([r["layers"][name] for r in traced]) for name in (traced[0]["layers"] if traced else ())}
    traced_run_s = [_scaled(r, sum(r["wall_s"])) for r in traced]
    log(_summary("traced run_s", traced_run_s, "s"))
    values["proc.cpu_s"] = _median([r["cpu_s"] for r in plain])
    if traced:
        plain_run_s = _median([_scaled(r, sum(r["wall_s"])) for r in plain])
        values["trace.overhead_frac"] = _median(traced_run_s) / plain_run_s - 1.0
    units = spans.layer_metric_units()
    for name, unit in units.items():
        log(f"  {name:<48} {values.get(name, 0.0):.6g} {unit}")
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
