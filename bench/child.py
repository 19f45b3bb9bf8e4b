"""One measured pass, run in a fresh interpreter.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory to import ``spingauss`` from), ``argvs``
(CLI invocations to run in order; none for an import-only child), ``trace``
and ``spans`` (where a traced pass writes its spans).  RESULT receives the
monotonic time at which ``spingauss.cli`` was imported and ready, the
reference kernel's time (the mean of one run before and one after the
invocations), per-invocation wall times and exit codes, CPU time and peak RSS
of this process, machine facts and, when traced, the per-layer metrics.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _reference_s() -> float:
    """Time of a fixed NumPy/LAPACK kernel that never touches spingauss.

    The harness divides the child's set-up and pass times by it, which
    cancels most of the drift in machine speed on a shared host.  It
    allocates about 2 MB, so it never sets the peak RSS.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    a = a + a.T
    z = 1j * rng.standard_normal(65536)
    t0 = time.perf_counter()
    for _ in range(40):
        np.linalg.eigh(a)
        a @ a
        np.exp(z)
    return time.perf_counter() - t0


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from spingauss import cli

    ready = time.monotonic()
    import spingauss

    expected = os.path.realpath(os.path.join(spec["src"], "spingauss"))
    if os.path.realpath(os.path.dirname(spingauss.__file__)) != expected:
        print(f"imported spingauss from {spingauss.__file__}, not {expected}", file=sys.stderr)
        return 2

    ref_before = _reference_s()
    if not spec["argvs"]:
        return _write(result_path, {"ready": ready, "ref_s": ref_before, "machine": _machine()})

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        cache = getattr(sys.modules.get("spingauss.irreps"), "_x_rotation_eigensystem", None)
        patched, absent = spans.instrument(tracer)

    cpu0 = _cpu_s()
    wall, codes = [], []
    for argv in spec["argvs"]:
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:  # a crash is a failed invocation, not a harness error
            import traceback

            traceback.print_exc()
            rc = -1
        wall.append(time.perf_counter() - t0)
        codes.append(rc)
    cpu = _cpu_s() - cpu0
    ref_s = (ref_before + _reference_s()) / 2.0

    result = {
        "ready": ready,
        "wall_s": wall,
        "rc": codes,
        "cpu_s": cpu,
        "ref_s": ref_s,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }
    if tracer is not None:
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        spans.restore(patched)
        result["layers"] = spans.layer_metrics(tracer, info)
        result["absent"] = absent
        tracer.write(spec["spans"])
    return _write(result_path, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
