"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all
even on success).  The numeric anchors are either independent brute-force
oracles (tensor spectra, quadrature, closed forms evaluated from scratch) or
monotone-decrease checks of the convergence statistics at desk scale.
"""

import math
import time

import numpy as np
import pytest

from spingauss.channels import (
    coherent_vector_distance,
    composition_defect,
    convergence_point,
)
from spingauss.cli import main as cli_main
from spingauss.irreps import HalfInteger, LocalParam
from spingauss.measurements import (
    McSpec,
    finite_n_discrimination,
    heterodyne_estimation_risk,
    heterodyne_risk_reference,
    measurement_tv,
    position_measurement_risk,
)
from spingauss.numerics import trace_norm
from spingauss.oscillator import FockTruncation, PolarGrid
from spingauss.qubit_model import ModelParams, block_weight, multiplicity, valid_spins
from spingauss.reference import (
    EmbeddingMap,
    block_state_zero,
    discrimination_limit,
    embed_block,
    glauber_mixture,
    inverse_channel_block,
    thermal_state,
)

GRID9 = tuple(LocalParam(float(x), float(y)) for x in (-1, 0, 1) for y in (-1, 0, 1))


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_spectrum_equivalence_brute_force():
    t0 = time.time()
    worst = 0.0
    for mu in (0.6, 0.75, 0.9):
        for n in range(1, 11):
            params = ModelParams(n, mu)
            got = []
            for j in valid_spins(n):
                w = block_weight(params, j)
                nj = multiplicity(n, j)
                for lam in np.diag(block_state_zero(params, j)).real:
                    got.extend([w * lam / nj] * nj)
            want = []
            for k in range(n + 1):
                want.extend([mu ** k * (1 - mu) ** (n - k)] * math.comb(n, k))
            diff = float(np.abs(np.sort(got) - np.sort(want)).max())
            worst = max(worst, diff)
    elapsed = time.time() - t0
    report(
        "1 spectrum equivalence (n <= 10, brute-force tensor oracle)",
        worst <= 1e-10 and elapsed < 10,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_weight_normalization():
    t0 = time.time()
    worst = 0.0
    for mu in (0.6, 0.75, 0.9, 1.0):
        for n in (1, 10, 100, 500, 1000):
            total = sum(block_weight(ModelParams(n, mu), j) for j in valid_spins(n))
            worst = max(worst, abs(total - 1.0))
    elapsed = time.time() - t0
    report(
        "2 weight normalization (n up to 1000, log-space path)",
        worst <= 1e-10 and elapsed < 5,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def sweeps():
    # per mu, the points of GRID9 at n = 16, 64, 256
    return {
        mu: [[convergence_point(ModelParams(n, mu), u) for u in GRID9] for n in (16, 64, 256)]
        for mu in (0.75, 0.9, 1.0)
    }


def test_03_forward_convergence(sweeps):
    t0 = time.time()
    ok = True
    detail = []
    for mu, grids in sweeps.items():
        sups = [max(pt.forward for pt in points) for points in grids]
        ok &= sups[0] > sups[1] > sups[2] and sups[2] < sups[0] / 2
        detail.append(f"mu={mu}: " + " > ".join(f"{s:.4f}" for s in sups))
    report(
        "3 forward convergence sup_u ||T_n(rho) - phi|| decreasing, n=256 below half n=16",
        ok,
        "; ".join(detail) + f", +{time.time() - t0:.0f}s",
    )


def test_04_reverse_convergence_and_exact_round_trip(sweeps):
    ok = True
    detail = []
    for mu, grids in sweeps.items():
        sups = [max(pt.reverse for pt in points) for points in grids]
        ok &= sups[0] > sups[1] > sups[2] and sups[2] < sups[0] / 2
        detail.append(f"mu={mu}: " + " > ".join(f"{s:.4f}" for s in sups))
    rng = np.random.default_rng(2026)
    worst = 0.0
    for twoj in (0, 1, 6, 37, 100):
        emb = EmbeddingMap(HalfInteger(twoj), FockTruncation(twoj + 9))
        a = rng.standard_normal((twoj + 1, twoj + 1)) + 1j * rng.standard_normal((twoj + 1, twoj + 1))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        back = inverse_channel_block(embed_block(rho, emb), emb)
        worst = max(worst, float(np.abs(back - rho).max()))
    ok &= worst == 0.0
    report(
        "4 reverse convergence decreasing + exact block round trip",
        ok,
        "; ".join(detail) + f"; round-trip worst {worst:.1e}",
    )


def test_05_coherent_vector_lemma():
    t0 = time.time()
    mu, u = 0.75, LocalParam(1.0, 0.0)
    vals = []
    for n in (64, 256, 1024):
        twoj = 2 * round(n * (mu - 0.5))
        if (twoj - n) % 2:
            twoj += 1
        vals.append(coherent_vector_distance(HalfInteger(twoj), u, n))
    ok = vals[0] > vals[1] > vals[2] and vals[2] < vals[0] / 2
    report(
        "5 coherent-vector distance decreasing with n=1024 below half of n=64",
        ok and time.time() - t0 < 30,
        " > ".join(f"{v:.5f}" for v in vals),
    )


def test_06_composition_defect():
    t0 = time.time()
    mu = 0.75
    u, v = LocalParam(0.5, 0.0), LocalParam(0.0, 0.5)
    vals = []
    for n in (64, 256, 1024):
        twoj = 2 * round(n * (mu - 0.5))
        vals.append(composition_defect(HalfInteger(twoj), u, v, n))
    parallel = max(
        composition_defect(HalfInteger(2 * round(n * (mu - 0.5))), LocalParam(0.5, 0), LocalParam(0.8, 0), n)
        for n in (64, 256, 1024)
    )
    ok = vals[0] > vals[1] > vals[2] and parallel <= 1e-8
    report(
        "6 composition defect decreasing, exactly zero for parallel rotations",
        ok and time.time() - t0 < 30,
        " > ".join(f"{v:.5f}" for v in vals) + f"; parallel {parallel:.1e}",
    )


def test_07_glauber_mixture():
    t0 = time.time()
    p = 1 / 3
    s2 = p / (2 * (1 - p))
    mix = glauber_mixture(0.75, FockTruncation(32), quad=PolarGrid(radius=5 * math.sqrt(s2)))
    dist = trace_norm(mix.matrix - thermal_state(p, FockTruncation(32)).matrix)
    report(
        "7 Gaussian mixture of coherent states reproduces the thermal state",
        dist <= 1e-4 and time.time() - t0 < 10,
        f"trace distance {dist:.2e}",
    )


def test_08_heterodyne_risk():
    t0 = time.time()
    details = []
    ok = True
    for mu in (0.75, 0.9, 1.0):
        est = heterodyne_estimation_risk(mu)
        ref = heterodyne_risk_reference(mu)
        ok &= abs(est.value - ref) / ref <= 0.01
        details.append(f"mu={mu}: {est.value:.4f} vs {ref:.4f}")
    ok &= abs(heterodyne_risk_reference(0.75) - 3.0) < 1e-12
    ok &= abs(heterodyne_risk_reference(1.0) - 1.0) < 1e-12
    mc = heterodyne_estimation_risk(0.75, mc=McSpec(seed=11, samples=100_000))
    ok &= abs(mc.value - 3.0) / 3.0 <= 0.01
    report(
        "8 heterodyne risk equals mu/(2mu-1)^2 within 1%",
        ok and time.time() - t0 < 30,
        "; ".join(details) + f"; MC {mc.value:.4f}",
    )


def test_09_discrimination():
    t0 = time.time()
    u = LocalParam(0.5, 0.0)
    limit = discrimination_limit(u)
    gaps = []
    for n in (16, 64, 256):
        risk = finite_n_discrimination(ModelParams(n, 1.0), u).risk
        gaps.append(abs(risk - limit))
    strict = all(
        position_measurement_risk(LocalParam(m, 0)) > discrimination_limit(LocalParam(m, 0))
        for m in (0.25, 0.5, 1.0)
    )
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.01 and strict
    report(
        "9 discrimination risk approaches the collective limit; quadrature baseline stays above",
        ok and time.time() - t0 < 60,
        f"limit {limit:.5f}, gaps " + " > ".join(f"{g:.2e}" for g in gaps),
    )


def test_10_measurement_equivalence():
    t0 = time.time()
    by_u = {}
    ok = True
    for n in (64, 256, 1024):
        params = ModelParams(n, 0.75)
        for u in GRID9:
            est = measurement_tv(params, u)
            by_u.setdefault(u, []).append(est)
            ok &= abs(est.covariant_mass - 1.0) <= 1e-3 + est.concentration_deficit
            ok &= abs(est.heterodyne_mass - 1.0) <= 1e-3 + est.concentration_deficit
    worst_ratio = 0.0
    for series in by_u.values():
        tvs = [e.tv_bound for e in series]
        ok &= tvs[0] > tvs[1] > tvs[2]
        worst_ratio = max(worst_ratio, tvs[2] / tvs[0])
    elapsed = time.time() - t0
    report(
        "10 covariant vs heterodyne outcome TV decreasing for every u, masses normalized",
        ok and elapsed < 300,
        f"worst n=1024/n=64 ratio {worst_ratio:.3f}, {elapsed:.0f}s",
    )


def test_11_reproducibility(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "mu = 0.75\nn = 8,16\ngrid = -1:1:2\nseed = 424242\nsamples = 20000\n",
        encoding="utf-8",
    )
    pairs = []
    for cmd in (["convergence"], ["risk"]):
        a, b = tmp_path / f"{cmd[0]}_a.csv", tmp_path / f"{cmd[0]}_b.csv"
        assert cli_main(cmd + ["--config", str(cfg), "--out", str(a)]) == 0
        assert cli_main(cmd + ["--config", str(cfg), "--out", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    report("11 bit-exact reports for identical config and seed", all(pairs), f"{pairs}")
