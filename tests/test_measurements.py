import itertools
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from spingauss.errors import DomainError, ValidationError
from spingauss.irreps import HalfInteger, LocalParam
from spingauss.measurements import (
    TV_CHUNK,
    McSpec,
    finite_n_discrimination,
    heterodyne_estimation_risk,
    heterodyne_outcome_std,
    heterodyne_risk_reference,
    heterodyne_samples,
    injectivity_radius,
    limit_discrimination,
    measurement_tv,
    position_measurement_risk,
)
from spingauss.measurements import (
    _block_density_pair,
    _covariant,
    _tv_grid,
    default_tv_grid,
)
from spingauss.numerics import mirror_trace_norm, trace_norm, trim_rows
from spingauss.oscillator import (
    FockTruncation,
    PolarGrid,
    PolarHeterodyne,
    _coherent_rows,
    displaced_thermal,
    heterodyne_pdf_kernel,
)
from spingauss import irreps, measurements, oscillator, qubit_model, reference
from spingauss.channels import convergence_point
from spingauss.qubit_model import (
    ModelParams,
    block_weight,
    concentration_set,
    multiplicity,
    occurring_range,
    rotated_blocks,
    valid_spins,
)
from spingauss.reference import (
    block_state,
    block_state_zero,
    covariant_block_density,
    discrimination_limit,
    ensemble,
    heterodyne_pullback_density,
    rotation_unitary,
)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_helstrom_trivial_cases():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 3)
    assert reference.helstrom_risk(rho, rho).risk == pytest.approx(0.5, abs=1e-12)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert reference.helstrom_risk(a, b).risk == pytest.approx(0.0, abs=1e-12)


def test_helstrom_pure_overlap_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        got = reference.helstrom_risk(np.outer(a, a.conj()), np.outer(b, b.conj())).risk
        c = abs(np.vdot(a, b))
        assert got == pytest.approx(0.5 * (1 - math.sqrt(1 - c * c)), abs=1e-12)


def test_helstrom_symmetry_and_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        r1 = reference.helstrom_risk(a, b).risk
        r2 = reference.helstrom_risk(b, a).risk
        assert abs(r1 - r2) < 1e-10
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(h)
        r3 = reference.helstrom_risk(q @ a @ q.conj().T, q @ b @ q.conj().T).risk
        assert abs(r1 - r3) < 1e-10


def tensor_discrimination_risk(mu, n, u):
    """Oracle: the risk from the full 2^n-dimensional product states at +-u."""
    one = []
    for v in (u, -u):
        um = rotation_unitary(HalfInteger(1), v.scaled(1 / math.sqrt(n)))
        one.append(um @ np.diag([mu, 1 - mu]).astype(complex) @ um.conj().T)
    big_plus, big_minus = one
    for _ in range(n - 1):
        big_plus = np.kron(big_plus, one[0])
        big_minus = np.kron(big_minus, one[1])
    return 0.5 * (1 - 0.5 * trace_norm(big_plus - big_minus))


def test_helstrom_ensembles_vs_brute_force_tensor_oracle():
    # oracle: build the full 2^n-dimensional states and take the trace norm
    mu, n = 0.8, 5
    u = LocalParam(0.6, -0.3)
    got = finite_n_discrimination(ModelParams(n, mu), u).risk
    assert got == pytest.approx(tensor_discrimination_risk(mu, n, u), abs=1e-10)


@pytest.mark.parametrize("mu", [0.51, 0.52])
def test_next_to_one_half_blocks_and_risk_match_the_tensor_oracle(mu):
    # next to 1/2 the block spectra are nearly flat and the limit core is
    # hundreds of rows; at n <= 10 every block occurs and keeps its rank, so
    # the streamed blocks hold the whole 2^n spectrum of the product state,
    # eigenvalue by eigenvalue, and the risk is that of the 2^n states
    u = LocalParam(0.6, -0.3)
    for n in range(1, 11):
        params = ModelParams(n, mu)
        lo, hi, skipped = occurring_range(params)
        assert skipped == 0.0
        got = []
        for b in rotated_blocks(params, u, lo, hi):
            count = multiplicity(n, b.j)
            held = np.linalg.svd(b.core, compute_uv=False) ** 2
            got.extend(np.repeat(b.weight * held / count, count))
        want = [mu**k * (1 - mu) ** (n - k) for k in range(n + 1) for _ in range(math.comb(n, k))]
        assert len(got) == 2**n
        np.testing.assert_allclose(np.sort(got), np.sort(want), rtol=0, atol=1e-14)
        risk = finite_n_discrimination(params, u).risk
        assert risk == pytest.approx(tensor_discrimination_risk(mu, n, u), abs=1e-12)


def dense_discrimination_risk(params, u):
    """Oracle: blockwise dense trace norms, every block diagonalized."""
    tnorm = sum(
        block_weight(params, j) * trace_norm(block_state(params, j, u) - block_state(params, j, -u))
        for j in valid_spins(params.n)
    )
    return 0.5 * (1 - 0.5 * tnorm)


@pytest.mark.parametrize("mu", [0.75, 1.0])
def test_finite_n_discrimination_matches_dense_blocks(mu):
    params = ModelParams(64, mu)
    for u in (LocalParam(0.5, 0.0), LocalParam(-0.3, 0.9)):
        res = finite_n_discrimination(params, u)
        assert res.risk == pytest.approx(dense_discrimination_risk(params, u), abs=1e-12)
        assert 0.0 <= res.error_bound < 1e-13


@pytest.mark.parametrize("mu, u", [(0.51, LocalParam(1.0, -1.0)), (0.52, LocalParam(0.3, 0.2))])
def test_finite_n_discrimination_next_to_one_half_matches_dense_blocks(mu, u):
    # at n = 256 the oracle diagonalizes every block densely; the two agree
    # within the error bound and the oracle's rounding
    params = ModelParams(256, mu)
    res = finite_n_discrimination(params, u)
    assert abs(res.risk - dense_discrimination_risk(params, u)) <= res.error_bound + 1e-13


@pytest.mark.parametrize("mu", [0.75, 1.0])
def test_mirror_trace_norm_matches_dense_blocks(mu):
    # each block against its own mirror is the block at u against the block
    # at -u; the oracle builds both densely, in the fixed frame
    for n in (1, 2, 9, 16):
        params = ModelParams(n, mu)
        for u in (LocalParam(0.0, 0.0), LocalParam(0.7, -0.4), LocalParam(-1.5, 2.0)):
            for b in ensemble(params, u).blocks:
                want = trace_norm(block_state(params, b.j, u) - block_state(params, b.j, -u))
                assert mirror_trace_norm(b.core) == pytest.approx(want, abs=1e-13)


def test_discrimination_error_bound_covers_skipped_blocks_and_rank_cut(monkeypatch):
    # under-resolve on purpose: skip blocks up to 1e-2 weight and cut block
    # ranks at 1e-4, then compare with the fully resolved dense oracle
    params = ModelParams(12, 0.75)
    u = LocalParam(0.9, -0.4)
    want = dense_discrimination_risk(params, u)
    monkeypatch.setattr(qubit_model, "NEGLIGIBLE_WEIGHT", 1e-2)
    monkeypatch.setattr(qubit_model, "RANK_CUT", 1e-4)
    res = finite_n_discrimination(params, u)
    assert abs(res.risk - want) > 1e-4
    assert abs(res.risk - want) <= res.error_bound


def test_helstrom_mismatched_ensembles_rejected():
    a = ensemble(ModelParams(2, 0.75), LocalParam(0.1, 0))
    b = ensemble(ModelParams(4, 0.75), LocalParam(0.1, 0))
    with pytest.raises(ValidationError):
        reference.ensemble_distance(a, b)


def test_discrimination_limit_values():
    assert discrimination_limit(LocalParam(0, 0)) == pytest.approx(0.5, abs=1e-15)
    # closed form evaluated at |u| = 0.5
    want = 0.5 * (1 - math.sqrt(1 - math.exp(-1.0)))
    assert discrimination_limit(LocalParam(0.5, 0)) == pytest.approx(want, abs=1e-15)
    assert want == pytest.approx(0.10246995118967495, abs=1e-15)


def test_discrimination_limit_matches_truncated_fock_oracle():
    # pure-case oracle on the oscillator: risk between coherent states at +-u
    from spingauss.reference import coherent_state, displacement_amplitude

    for mag in (0.3, 0.5, 1.0):
        u = LocalParam(mag, 0.0)
        plus = coherent_state(displacement_amplitude(u, 1.0), FockTruncation(64))
        minus = coherent_state(displacement_amplitude(-u, 1.0), FockTruncation(64))
        got = reference.helstrom_risk(plus.matrix, minus.matrix).risk
        assert got == pytest.approx(discrimination_limit(u), abs=1e-6)


def test_helstrom_factor_form_limit_states_match_dense():
    # the mu < 1 limit risk compares the core with its mirror, the state at
    # -u in u's frame; the dense pair of independently built states, each
    # put back in the fixed frame, is the oracle
    from spingauss.oscillator import displaced_thermal

    trunc = FockTruncation(128)
    for mu, u in ((0.75, LocalParam(0.6, -0.3)), (0.9, LocalParam(-1.2, 0.4))):
        plus = displaced_thermal(u, mu)
        got = limit_discrimination(u, mu).risk
        want = reference.helstrom_risk(
            reference.lab_frame(reference.fock_matrix(plus, trunc), u.angle),
            reference.lab_frame(reference.fock_matrix(displaced_thermal(-u, mu), trunc), (-u).angle),
        ).risk
        assert got == pytest.approx(want, abs=1e-13)


def test_finite_n_discrimination_symmetries():
    params = ModelParams(6, 0.75)
    u = LocalParam(0.4, 0.2)
    r_plus = finite_n_discrimination(params, u).risk
    r_minus = finite_n_discrimination(params, -u).risk
    assert abs(r_plus - r_minus) < 1e-14
    assert finite_n_discrimination(params, LocalParam(0, 0)).risk == pytest.approx(0.5, abs=1e-12)


def test_finite_n_discrimination_rejects_an_angle_past_the_rule(monkeypatch):
    # |u|/sqrt(n) = 2.5e19 has no digit left mod pi (it used to return risk
    # 0.2346 with error_bound 0); the rule raises before any walk is started
    walks = []
    monkeypatch.setattr(irreps, "_walk", lambda *args: walks.append(args))
    with pytest.raises(DomainError, match="rotation angle"):
        finite_n_discrimination(ModelParams(16, 0.75), LocalParam(1e20, 0.0))
    assert walks == []
    # the rule is on the angle itself: 2^26 raises, the double below it runs
    below = math.nextafter(irreps.MAX_ANGLE, 0.0)
    assert irreps.rotation_columns(HalfInteger(4), below, 2).shape[1] == 2
    with pytest.raises(DomainError):
        irreps.rotation_columns(HalfInteger(4), irreps.MAX_ANGLE, 2)


def test_position_measurement_risk_values():
    assert position_measurement_risk(LocalParam(0, 0)) == 0.5
    # numeric integral oracle for int_0^0.5 e^(-t^2)/sqrt(pi) dt
    ts = np.linspace(0, 0.5, 20001)
    integral = np.trapezoid(np.exp(-ts * ts) / math.sqrt(math.pi), ts)
    got = position_measurement_risk(LocalParam(0.5, 0))
    assert got == pytest.approx(0.5 - integral, abs=1e-9)
    assert got == pytest.approx(0.23975006109347674, abs=1e-12)


def test_collective_beats_single_quadrature():
    for mag in (0.25, 0.5, 1.0):
        u = LocalParam(mag, 0)
        assert discrimination_limit(u) < position_measurement_risk(u)


def test_heterodyne_risk_quadrature_reference():
    for mu in (0.75, 0.9, 1.0):
        est = heterodyne_estimation_risk(mu)
        want = heterodyne_risk_reference(mu)
        assert abs(est.value - want) / want < 0.01
        assert est.method == "quadrature"
    assert heterodyne_risk_reference(0.75) == pytest.approx(3.0, abs=1e-12)
    assert heterodyne_risk_reference(1.0) == pytest.approx(1.0, abs=1e-12)


def pdf_at_points(points, u, mu):
    """The radial kernel ``heterodyne_pdf_kernel`` at the distances of an
    (G, 2) array of points to u: the outcome density at those points."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    rho = np.hypot(pts[:, 0] - u.ux, pts[:, 1] - u.uy)
    return heterodyne_pdf_kernel(mu)(rho)


def risk_grids(mu, u):
    """2-D polar grids around u with the quadrature risk's radius, 8 sigma,
    and its fine and coarse radial orders."""
    radius = 8.0 * heterodyne_outcome_std(mu)
    return [PolarGrid(center=(u.ux, u.uy), radius=radius, n_radial=k, n_angular=128) for k in (160, 80)]


@pytest.mark.parametrize("mu", [0.75, 0.9, 1.0])
@pytest.mark.parametrize("u", [(0.0, 0.0), (0.3, -0.7), (2.0, 1.0)], ids=["origin", "near", "far"])
def test_quadrature_risk_kernel_matches_pointwise_density(u, mu):
    # the polar kernel against the pointwise density at every node of two
    # 2-D grids around u, and the radial risk against the polar kernel's
    # sums over those grids, an independent cross-check
    u = LocalParam(*u)
    core = displaced_thermal(u, mu).core
    moments = []
    for grid in risk_grids(mu, u):
        pts, w = grid.nodes()
        (dens,) = PolarHeterodyne(grid, mu, core.shape[0]).densities((core,))
        np.testing.assert_allclose(dens, pdf_at_points(pts, u, mu), rtol=0, atol=1e-15)
        sq = (pts[:, 0] - u.ux) ** 2 + (pts[:, 1] - u.uy) ** 2
        moments.append((float(np.sum(w * sq * dens)), float(np.sum(w * dens))))
    (value, mass), (coarse, _) = moments
    est = heterodyne_estimation_risk(mu)
    radius, sig = risk_grids(mu, u)[0].radius, heterodyne_outcome_std(mu)
    tail = math.exp(-radius ** 2 / (2.0 * sig * sig)) * (radius ** 2 + 4 * sig * sig)
    rank_cut = displaced_thermal(u, mu).deficit * radius ** 2
    rounding = 160 * np.finfo(float).eps * est.value
    resolution = est.error_bound - tail - rank_cut - rounding
    assert abs(est.value - value) <= 1e-14
    assert abs(est.mass - mass) <= 1e-14
    assert abs(resolution - abs(coarse - value)) <= 1e-14


@pytest.mark.parametrize("mu", [0.6, 0.75, 0.9, 1.0])
def test_quadrature_risk_bound_covers_the_closed_form(mu):
    # the bound's terms are closed forms or measured, none the rounding
    # residue 1 - mass (about 1.9e-14 at every mu, times R^2 = 32 to 480)
    est = heterodyne_estimation_risk(mu)
    assert abs(est.value - heterodyne_risk_reference(mu)) <= est.error_bound
    sig = heterodyne_outcome_std(mu)
    assert est.error_bound < 1.2 * math.exp(-32.0) * (68.0 * sig * sig)


@pytest.mark.parametrize("mu", [0.6, 0.75, 0.9, 1.0])
def test_quadrature_risk_rounding_term_covers_exact_arithmetic(mu):
    # the same nodes, weights and float thermal weights summed in 40 digits:
    # the float value is within the bound's rounding term of it
    mpmath = pytest.importorskip("mpmath")
    est = heterodyne_estimation_risk(mu)
    radius = 8.0 * heterodyne_outcome_std(mu)
    lam = np.diagonal(displaced_thermal(LocalParam(0.0, 0.0), mu).core) ** 2
    x, wx = oscillator._gauss_legendre(160)
    r = 0.5 * radius * (x + 1.0)
    w = math.pi * radius * wx * r
    with mpmath.workdps(40):
        s2 = mpmath.mpf(2 * mu - 1)
        exact = mpmath.fsum(
            mpmath.mpf(wi) * mpmath.mpf(ri) ** 2 * s2 / mpmath.pi
            * mpmath.fsum(
                mpmath.mpf(lk) * mpmath.exp(-s2 * mpmath.mpf(ri) ** 2) * (s2 * mpmath.mpf(ri) ** 2) ** k
                / mpmath.factorial(k)
                for k, lk in enumerate(lam)
            )
            for ri, wi in zip(r, w)
        )
        assert abs(est.value - float(exact)) <= 160 * np.finfo(float).eps * est.value


def test_each_gauss_legendre_rule_is_computed_once(monkeypatch):
    leggauss = np.polynomial.legendre.leggauss
    orders = []

    def counted(order):
        orders.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    oscillator._gauss_legendre.cache_clear()
    n, mu, u = 64, 0.75, LocalParam(0.7, -0.5)
    _tv_grid(ModelParams(n, mu), u, default_tv_grid(mu, u, n))
    for mu in (0.75, 0.9, 1.0):
        heterodyne_estimation_risk(mu)
    assert sorted(orders) == [64, 80, 160]
    for order in orders:
        got, want = oscillator._gauss_legendre(order), leggauss(order)
        for a, b in zip(got, want):
            assert np.array_equal(a, b) and not a.flags.writeable
    assert len(orders) == 3


def test_heterodyne_risk_monte_carlo_reproducible_and_consistent():
    mu = 0.75
    a = heterodyne_estimation_risk(mu, mc=McSpec(seed=123, samples=40_000))
    b = heterodyne_estimation_risk(mu, mc=McSpec(seed=123, samples=40_000))
    assert a.value == b.value
    c = heterodyne_estimation_risk(mu, mc=McSpec(seed=321, samples=40_000))
    assert abs(a.value - c.value) <= a.error_bound + c.error_bound
    assert abs(a.value - heterodyne_risk_reference(mu)) <= a.error_bound + 0.02


def test_heterodyne_pdf_moments_match_derived_variance():
    # importance-sampled moments of the offsets u_hat - u under the computed
    # outcome density, 3 sigma bands
    mu = 0.75
    chunks = list(heterodyne_samples(mu, McSpec(seed=42, samples=200_000)))
    off = np.concatenate([p for p, _ in chunks])
    w = np.concatenate([w for _, w in chunks])
    m = len(w)
    mean = (w[:, None] * off).sum(axis=0) / m
    err_mean = 3 * np.sqrt(((w[:, None] * off).std(axis=0, ddof=1) ** 2) / m)
    assert abs(mean[0]) < err_mean[0] and abs(mean[1]) < err_mean[1]
    var_ref = mu / (2 * (2 * mu - 1) ** 2)
    for axis in (0, 1):
        sq = w * off[:, axis] ** 2
        var = sq.mean()
        assert abs(var - var_ref) < 3 * sq.std(ddof=1) / math.sqrt(m)
    assert abs(w.mean() - 1.0) < 3 * w.std(ddof=1) / math.sqrt(m)


def test_monte_carlo_samples_do_not_depend_on_the_chunk(monkeypatch):
    # chunked normal draws reproduce one draw of every sample, and each
    # sample's weight is computed alone, so the samples are the same to the bit
    mc = McSpec(seed=9, samples=10_001)
    drawn = []
    for chunk in (7, measurements.PDF_CHUNK, mc.samples, 4 * mc.samples):
        monkeypatch.setattr(measurements, "PDF_CHUNK", chunk)
        chunks = list(heterodyne_samples(0.75, mc))
        sizes = [len(w) for _, w in chunks]
        assert sum(sizes) == mc.samples and max(sizes) == min(chunk, mc.samples)
        drawn.append([np.concatenate(part) for part in zip(*chunks)])
    for off, w in drawn[1:]:
        assert np.array_equal(off, drawn[0][0]) and np.array_equal(w, drawn[0][1])


def traced_peak(run):
    """The traced (``tracemalloc``) peak of the allocations ``run()`` makes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_radial_density_runs_in_real_arithmetic_without_a_rows_buffer(monkeypatch):
    # the density is the thermal one at |u_hat - u|, a real radial sum:
    # neither risk path, nor the pointwise density at any u, hands the
    # Poisson anchors a complex mean, and the kernel holds a few arrays of
    # the points, never one of (rank, points) (865 rows at mu = 0.51)
    dtypes = []
    anchor = oscillator._log_poisson

    def spied(x, k):
        dtypes.append(np.asarray(x).dtype)
        return anchor(x, k)

    monkeypatch.setattr(oscillator, "_log_poisson", spied)
    pts = [[0.0, 0.0], [0.9, -0.3], [-6.5, 8.0]]
    for mu in (0.75, 0.9, 1.0):
        runs = [
            lambda: heterodyne_estimation_risk(mu, mc=McSpec(seed=5, samples=5_000)),
            lambda: heterodyne_estimation_risk(mu),
            lambda: pdf_at_points(pts, LocalParam(0.4, -0.3), mu),
            lambda: pdf_at_points(pts, LocalParam(-6.0, 8.0), mu),
        ]
        for run in runs:
            dtypes.clear()
            run()
            assert dtypes and set(dtypes) == {np.dtype(float)}
    rho = np.linspace(0.0, 9.0 * heterodyne_outcome_std(0.51), 4096)
    assert traced_peak(lambda: heterodyne_pdf_kernel(0.51)(rho)) <= 16 * 8 * len(rho)


def test_quadrature_risk_next_to_one_half_holds_no_rank_sized_table():
    # 8,601 thermal weights at mu = 0.501: a (rank, points) table of rows
    # or a (rank, rank) core would take tens of MiB
    mu = 0.501
    est = heterodyne_estimation_risk(mu)
    assert abs(est.value - heterodyne_risk_reference(mu)) <= est.error_bound
    assert traced_peak(lambda: heterodyne_estimation_risk(mu)) <= 2 * 2 ** 20


@pytest.mark.parametrize("mu", [0.5, 0.3, 1.5, math.nan])
@pytest.mark.parametrize("mc", [None, McSpec(seed=1, samples=100)], ids=["quadrature", "monte-carlo"])
def test_heterodyne_risk_rejects_mu_outside_its_domain(mu, mc):
    # checked before the outcome std 1/(2 mu - 1) or the grid radius is formed
    with pytest.raises(DomainError, match=r"mu must lie in \(1/2, 1\]"):
        heterodyne_estimation_risk(mu, mc=mc)


@pytest.mark.parametrize("mu", [0.5, 0.3, 1.5, math.nan])
@pytest.mark.parametrize("closed_form", [heterodyne_outcome_std, heterodyne_risk_reference])
def test_heterodyne_closed_forms_reject_mu_outside_the_risks_domain(mu, closed_form):
    # without the check 0.3 gives a negative std, 0.5 divides by zero and
    # nan passes through
    with pytest.raises(DomainError, match=r"mu must lie in \(1/2, 1\]"):
        closed_form(mu)


@pytest.mark.parametrize(
    "seed, samples",
    [(1, 1), (1, 0), (-1, 10), (1, -5), (1, 2.0), (1.5, 10), ("1", 10), (1, None), (True, 10), (1, np.float64(3))],
)
def test_mc_spec_rejects_bad_seed_or_samples(seed, samples):
    with pytest.raises(DomainError):
        McSpec(seed, samples)


def test_mc_spec_accepts_integer_seed_and_samples():
    assert McSpec(0, 2) == McSpec(np.int64(0), np.int64(2))


def test_monte_carlo_risk_memory_is_flat_in_the_samples():
    # the sums add up each chunk as it is drawn, so nothing is kept per
    # sample: the chunk buffers are all the risk holds
    small, large = (
        traced_peak(lambda: heterodyne_estimation_risk(0.75, mc=McSpec(1, samples)))
        for samples in (100_000, 400_000)
    )
    assert large - small <= 64 * 2 ** 10
    assert traced_peak(lambda: heterodyne_estimation_risk(0.51, mc=McSpec(1, 200_000))) <= 2 * 2 ** 20


def test_covariant_density_resolution_of_identity():
    # quadrature oracle: for the maximally mixed block the disk mass up to
    # radius R is (1 - cos(2 R / sqrt(n)))/2, independent of j
    j, n = HalfInteger(20), 100
    rho = np.eye(j.dim, dtype=complex) / j.dim
    for frac in (0.5, 0.9, 0.999):
        radius = frac * injectivity_radius(n)
        grid = PolarGrid(radius=radius, n_radial=300, n_angular=64)
        pts, w = grid.nodes()
        dens = covariant_block_density(j, n, rho, pts)
        want = 0.5 * (1 - math.cos(2 * radius / math.sqrt(n)))
        assert np.sum(w * dens) == pytest.approx(want, abs=1e-4)


def test_covariant_density_peaks_at_origin_for_highest_weight():
    j, n = HalfInteger(12), 36
    rho = np.zeros((j.dim, j.dim), dtype=complex)
    rho[0, 0] = 1.0
    center = covariant_block_density(j, n, rho, LocalParam(0.0, 0.0))
    for r in (0.4, 1.0, 2.5):
        assert center >= covariant_block_density(j, n, rho, LocalParam(r, 0.2))


def test_covariant_density_total_mass_rotated_block():
    n, mu = 100, 0.75
    params = ModelParams(n, mu)
    j = HalfInteger(50)
    rho = block_state(params, j, LocalParam(0.5, 0.0))
    grid = PolarGrid(radius=0.999 * injectivity_radius(n), n_radial=600, n_angular=128)
    pts, w = grid.nodes()
    dens = covariant_block_density(j, n, rho, pts)
    assert np.all(dens >= -1e-12)
    assert np.sum(w * dens) == pytest.approx(1.0, abs=1e-4)


def test_covariant_density_domain_error():
    with pytest.raises(DomainError):
        covariant_block_density(HalfInteger(2), 4, np.eye(3) / 3, LocalParam(10.0, 0.0))


def test_pullback_density_pure_gaussian_oracle():
    # coherent-overlap oracle: a highest weight block pulls back to
    # (2mu-1)/pi exp(-(2mu-1)|u|^2) at mu = 1
    j = HalfInteger(80)
    rho = np.zeros((j.dim, j.dim), dtype=complex)
    rho[0, 0] = 1.0
    pts = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, -1.0]])
    got = heterodyne_pullback_density(j, rho, 1.0, pts)
    d2 = np.sum(pts ** 2, axis=1)
    want = (1 / math.pi) * np.exp(-d2)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pullback_density_radially_symmetric_at_center():
    params = ModelParams(64, 0.75)
    j = HalfInteger(16)
    rho = block_state_zero(params, j)
    vals = [
        heterodyne_pullback_density(j, rho, 0.75, LocalParam(0.8 * math.cos(t), 0.8 * math.sin(t)))
        for t in np.linspace(0, 2 * math.pi, 9)
    ]
    assert max(vals) - min(vals) < 1e-8


def test_pullback_density_mass_at_most_one():
    params = ModelParams(64, 0.75)
    j = HalfInteger(16)
    rho = block_state(params, j, LocalParam(0.4, 0.4))
    sig = heterodyne_outcome_std(0.75)
    grid = PolarGrid(center=(0.4, 0.4), radius=8 * sig, n_radial=200, n_angular=128)
    pts, w = grid.nodes()
    dens = heterodyne_pullback_density(j, rho, 0.75, pts)
    mass = np.sum(w * dens)
    assert mass <= 1.0 + 1e-4
    assert mass > 0.9  # most of the state lives inside the block image here


def test_block_density_pair_matches_public_densities():
    # the low-rank grid route must agree with the direct quadratic forms
    params = ModelParams(64, 0.75)
    u = LocalParam(0.7, -0.5)
    j = HalfInteger(18)
    grid = PolarGrid(center=(u.ux, u.uy), radius=6.0, n_radial=24, n_angular=16)
    pts, _ = grid.nodes()
    tv = _tv_grid(params, u, grid)
    block = next(b for chunk in tv.chunks() for b in chunk if b.j == j)
    (dens_m,), (dens_h,) = _block_density_pair(tv, (block,))
    rho = block_state(params, j, u)
    want_m = covariant_block_density(j, params.n, rho, pts)
    want_h = heterodyne_pullback_density(j, rho, params.mu, pts)
    np.testing.assert_allclose(dens_m, want_m, atol=1e-12)
    np.testing.assert_allclose(dens_h, want_h, atol=1e-12)


def test_measurement_tv_smoke_and_decrease():
    est16, est64 = (measurement_tv(ModelParams(n, 0.75), LocalParam(0.5, 0.5)) for n in (16, 64))
    for est in (est16, est64):
        assert 0 <= est.grid_term <= 2 + 1e-9
        assert est.covariant_mass == pytest.approx(1.0, abs=2e-3)
        assert est.heterodyne_mass == pytest.approx(1.0, abs=2e-3)
    assert est64.grid_term < est16.grid_term


def dense_tv(mu, n, u):
    """Oracle: grid term and masses from dense blocks and the public densities."""
    params = ModelParams(n, mu)
    pts, w = default_tv_grid(mu, u, n).nodes()
    grid_term = mass_m = mass_h = included = 0.0
    for j in concentration_set(params):
        bw = block_weight(params, j)
        rho = block_state(params, j, u)
        dens_m = covariant_block_density(j, n, rho, pts)
        dens_h = heterodyne_pullback_density(j, rho, mu, pts)
        grid_term += bw * np.sum(w * np.abs(dens_m - dens_h))
        mass_m += bw * np.sum(w * dens_m)
        mass_h += bw * np.sum(w * dens_h)
        included += bw
    return grid_term, mass_m / included, mass_h / included


def test_measurement_tv_matches_dense_blocks():
    for n in (16, 36):
        for u in (LocalParam(0, 0), LocalParam(1, 0), LocalParam(-0.6, 0.9)):
            est = measurement_tv(ModelParams(n, 0.75), u)
            grid_term, mass_m, mass_h = dense_tv(0.75, n, u)
            assert est.grid_term == pytest.approx(grid_term, abs=1e-12)
            assert est.covariant_mass == pytest.approx(mass_m, abs=1e-12)
            assert est.heterodyne_mass == pytest.approx(mass_h, abs=1e-12)


def test_measurement_tv_frees_its_grid_before_the_next(monkeypatch):
    built = []

    def tv_grid(*args):
        # every grid built so far is gone before the next one is built
        assert all(ref() is None for ref in built)
        tv = _tv_grid(*args)
        built.append(weakref.ref(tv))
        return tv

    monkeypatch.setattr(measurements, "_tv_grid", tv_grid)
    for n in (16, 36):
        for u in (LocalParam(0, 0), LocalParam(1, 0)):
            measurement_tv(ModelParams(n, 0.75), u)
    assert len(built) == 4


def tv_block_densities(tv):
    """(block, covariant, heterodyne) for every included block, in order,
    ``TV_CHUNK`` blocks per ``_block_density_pair`` call, as the TV sums take them."""
    for chunk in tv.chunks():
        yield from zip(chunk, *_block_density_pair(tv, chunk))


def block_densities(params, u, grid):
    return list(tv_block_densities(_tv_grid(params, u, grid)))


def covariant_densities(params, u, pts):
    """The covariant closed form of every included block at bare points:
    the concentration set's blocks that occur."""
    cov = _covariant(params, u, pts)
    lo, hi, _ = qubit_model.occurring_range(params)
    spins = [j for j in concentration_set(params) if lo <= j.twoj <= hi]
    return list(zip(spins, cov.densities([j.twoj for j in spins])))


def test_closed_form_covariant_density_matches_dense_blocks():
    for n in (16, 36):
        for mu in (0.75, 0.9, 1.0):
            params = ModelParams(n, mu)
            for u in (LocalParam(0, 0), LocalParam(1, -0.5), LocalParam(-2.1, 1.3)):
                grid = default_tv_grid(mu, u, n)
                pts, _ = grid.nodes()
                for block, dens_m, dens_h in block_densities(params, u, grid):
                    rho = block_state(params, block.j, u)
                    want = covariant_block_density(block.j, n, rho, pts)
                    np.testing.assert_allclose(dens_m, want, rtol=0, atol=1e-13)
                    assert dens_m.min() >= 0.0 and dens_h.min() >= -1e-12


@pytest.mark.parametrize("n", [16, 4096], ids=["n16-edge-grid", "n4096-edge-grid"])
def test_closed_form_covariant_density_finite_at_edge(n):
    # out to 0.98 of the injectivity radius the densities stay finite for
    # every included block, down to the lightest spin
    params, u = ModelParams(n, 0.75), LocalParam(0.8, -0.5)
    radius = 0.98 * injectivity_radius(n) - u.norm
    grid = PolarGrid(center=(u.ux, u.uy), radius=radius, n_radial=24, n_angular=16)
    pairs = block_densities(params, u, grid)
    assert pairs
    for _, dens_m, dens_h in pairs:
        assert np.all(np.isfinite(dens_m)) and np.all(dens_m >= 0.0)
        assert np.all(np.isfinite(dens_h))


def test_closed_form_covariant_density_pure_antipode():
    # p = 0 and an outcome at the antipode of the rotated highest weight
    # vector (infidelity s^2 = 1, up to rounding): the density vanishes and
    # is not NaN
    n, u = 16, LocalParam(3.0, 0.0)
    pts = np.array([[3.0 - 0.5 * math.pi * math.sqrt(n), 0.0], [0.5, 0.2]])
    (j, dens_m), = covariant_densities(ModelParams(n, 1.0), u, pts)
    assert 0.0 <= dens_m[0] < 1e-200
    want = covariant_block_density(j, n, block_state(ModelParams(n, 1.0), j, u), pts[1])
    assert dens_m[1] == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize(
    "u",
    [(0.7, -0.5), (0.0, 0.0)],  # at u = 0, z_c = 0 and u.angle is 0 by convention
    ids=["default", "origin-u"],
)
def test_recentred_heterodyne_matches_dense_pullback(u):
    # 16 angular nodes, fewer than the rows of A, so cos(d (t + pi/2 - psi))
    # wraps around the angular grid
    n, mu = 64, 0.75
    params, u = ModelParams(n, mu), LocalParam(*u)
    grid = replace(default_tv_grid(mu, u, n), n_angular=16)
    tv = _tv_grid(params, u, grid)
    assert tv.heterodyne.back.dtype == float
    assert tv.heterodyne.back.shape[0] > grid.n_angular
    for block, _, dens_h in tv_block_densities(tv):
        rho = block_state(params, block.j, u)
        want = heterodyne_pullback_density(block.j, rho, mu, tv.points)
        np.testing.assert_allclose(dens_h, want, rtol=0, atol=1e-13)


def test_recentred_heterodyne_nonnegative_at_scale():
    # the cosine sum is not a sum of squares, so only rounding may go negative
    n, mu, u = 1024, 0.75, LocalParam(0.7, -0.5)
    params = ModelParams(n, mu)
    tv = _tv_grid(params, u, default_tv_grid(mu, u, n))
    assert min(float(dens_h.min()) for _, _, dens_h in tv_block_densities(tv)) >= -1e-14


def full_size_densities(het, grid, cores):
    """The polar kernel contracted on every row of ``back``, G untrimmed:
    the form that held before each chunk was cut to the rows its G keep.
    The radial products R_{m+d} R_m and the angular table come from the
    grid, on all those rows, the products zero past the last; an index past
    the last row clips to it and meets those zeros."""
    size = het.back.shape[0]
    radii, _, angles = grid.axes()
    radial = _coherent_rows(math.sqrt(2.0 * het.mu - 1.0) * radii, size)
    cos = np.cos(np.outer(np.arange(size), angles + 0.5 * math.pi - LocalParam(*grid.center).angle))
    cos[1:] *= 2.0
    diag = np.zeros((size, size, len(radii)))
    for d in range(size):
        diag[d, : size - d] = radial[d:] * radial[: size - d]
    m = np.arange(size)
    flat = np.minimum(m[:, None] + m, size - 1) * size + m
    a_diag = np.empty((size, len(cores), size))
    for k, core in enumerate(cores):
        g = het.back[:, : core.shape[0]] @ core
        a_diag[:, k] = np.take(g @ g.T, flat)
    h = np.matmul(a_diag, diag).reshape(size, -1)
    dens = h.T @ cos
    dens *= (2.0 * het.mu - 1.0) / math.pi
    return dens.reshape(len(cores), -1)


@pytest.mark.parametrize(
    "n, u",
    [(64, (0.3, 0.0)), (64, (-0.5, 0.66)), (1024, (0.0, -0.3)), (1024, (0.82, 0.0)),
     (16384, (0.18, 0.24)), (16384, (-0.492, -0.656)), (1024, (15.0, -20.0))],
)
def test_trimmed_contraction_matches_full_size_on_tv_grids(n, u):
    # |u| in {0.3, 0.82} at every n, and |u| = 25 at n = 1024, where G does
    # not trim; each chunk as the TV sums take it
    mu, u = 0.75, LocalParam(*u)
    grid = default_tv_grid(mu, u, n)
    tv = _tv_grid(ModelParams(n, mu), u, grid)
    for chunk in tv.chunks():
        cores = [b.core for b in chunk]
        got = tv.heterodyne.densities(cores)
        np.testing.assert_allclose(got, full_size_densities(tv.heterodyne, grid, cores), rtol=0, atol=1e-16)


@pytest.mark.parametrize("mu", [0.75, 1.0])
@pytest.mark.parametrize("u", [(0.0, 0.0), (2.0, 1.0)], ids=["origin", "far"])
def test_trimmed_contraction_matches_full_size_on_risk_grids(u, mu):
    u = LocalParam(*u)
    core = displaced_thermal(u, mu).core
    for grid in risk_grids(mu, u):
        het = PolarHeterodyne(grid, mu, core.shape[0])
        got = het.densities((core,))
        np.testing.assert_allclose(got, full_size_densities(het, grid, (core,)), rtol=0, atol=1e-16)


def test_trimmed_contraction_runs_on_the_rows_g_keeps(monkeypatch):
    # on the bench's n = 1024 point every re-centred core keeps at most 60
    # of the 104 rows of back, and the batched product and its radial
    # products run on the rows the chunk's longest G keeps alone (back has
    # a column per row the top block's core reaches, so its rows follow
    # the rows the rotation kernel keeps)
    n, mu, u = 1024, 0.75, LocalParam(-0.783814, -0.251648)
    tv = _tv_grid(ModelParams(n, mu), u, default_tv_grid(mu, u, n))
    het = tv.heterodyne
    assert het.back.shape[0] == 104 and het.diag is None and het.cos is None
    chunks = [[b.core for b in chunk] for chunk in tv.chunks()]
    shapes = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b, **kwargs):
            shapes.append(b.shape)
            return np.matmul(a, b, **kwargs)

    reached = [max(trim_rows(het.back[:, : c.shape[0]] @ c)[0].shape[0] for c in cores) for cores in chunks]
    monkeypatch.setattr(oscillator, "np", Spy())
    for cores in chunks:
        het.densities(cores)
    assert len(shapes) == len(reached) == math.ceil(((tv.hi - tv.lo) // 2 + 1) / TV_CHUNK)
    assert shapes == [(k, k, 64) for k in reached] and max(reached) <= 60


def test_radial_products_cover_only_the_rows_the_chunks_reach():
    # on the bench's n = 1024 point the first chunk's G reach K = 42 of the
    # 104 rows of back and no later chunk reaches further, so the radial
    # products and the angular table are built once, on those K rows; taken
    # in reverse order the chunks reach 40, then 41 and 42, and the tables
    # are rebuilt at each step up, with the same densities
    n, mu, u = 1024, 0.75, LocalParam(-0.783814, -0.251648)
    params, grid = ModelParams(n, mu), default_tv_grid(mu, u, n)
    tv = _tv_grid(params, u, grid)
    het = tv.heterodyne
    chunks = [[b.core for b in chunk] for chunk in tv.chunks()]
    reached = [max(trim_rows(het.back[:, : c.shape[0]] @ c)[0].shape[0] for c in cores) for cores in chunks]
    assert het.diag is None and het.cos is None and het.back.shape[0] == 104
    assert reached[0] == max(reached) == 42
    want = [het.densities(cores) for cores in chunks]
    assert het.diag.shape == (42, 42, 64) and het.cos.shape == (42, 96)
    het = _tv_grid(params, u, grid).heterodyne
    tables = []
    for k in reversed(range(len(chunks))):
        np.testing.assert_allclose(het.densities(chunks[k]), want[k], rtol=0, atol=1e-16)
        tables.append(het.diag.shape[0])
    assert tables == list(itertools.accumulate(reversed(reached), max))
    assert sorted(set(tables)) == [40, 41, 42]


@pytest.mark.parametrize("kernel", [convergence_point, finite_n_discrimination, measurement_tv])
def test_point_kernels_hold_no_more_than_a_block_at_a_time(kernel):
    # the blocks stream past: from n = 16384 to 65536 the blocks double in
    # number (808 to 1617), and the traced peak may grow by half at most
    # (the TV kernel holds a chunk of TV_CHUNK cores at a time); a warm-up
    # call first fills the per-(n, mu) weight tables
    u = LocalParam(1.0, -1.0)
    peaks = []
    for n in (16384, 65536):
        params = ModelParams(n, 0.75)
        kernel(params, u)
        tracemalloc.start()
        try:
            kernel(params, u)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_tv_traced_peak_at_the_bench_point():
    # on the bench's n = 64 point a chunk's heterodyne densities are formed
    # before its covariant ones, the covariant exponential runs in place and
    # the sums take one block's row at a time, so no temporary of a chunk's
    # (blocks, nodes) size sits beside its two density arrays: the traced
    # peak is 3.90 MiB, where the parent's covariant-first order with
    # whole-chunk products took 4.65 MiB, and the new order alone 4.25 MiB;
    # a warm-up call first fills the per-(n, mu) weight tables
    params, u = ModelParams(64, 0.75), LocalParam(-0.783814, -0.251648)
    measurement_tv(params, u)
    assert traced_peak(lambda: measurement_tv(params, u)) <= 4.1 * 2 ** 20


def test_tv_estimate_does_not_depend_on_the_chunk_size(monkeypatch):
    n, mu, u = 1024, 0.75, LocalParam(-0.783814, -0.251648)
    params = ModelParams(n, mu)
    tv = _tv_grid(params, u, default_tv_grid(mu, u, n))
    blocks = (tv.hi - tv.lo) // 2 + 1
    estimates = []
    for chunk in (1, 16, blocks):
        monkeypatch.setattr(measurements, "TV_CHUNK", chunk)
        estimates.append(measurement_tv(params, u))
    single, default, whole = estimates
    assert default == whole
    # a chunk of one block runs the batched product on one row per batch,
    # which rounds differently (as the full-size contraction did):
    # heterodyne_mass moves by 2.2e-16 and tv_bound by 6.9e-18 here
    for name in ("tv_bound", "grid_term", "covariant_mass", "heterodyne_mass", "out_of_grid_bound"):
        assert abs(getattr(single, name) - getattr(default, name)) <= 1e-15


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
@pytest.mark.parametrize("mu", [0.6, 0.75, 0.9])
def test_polar_tables_are_sized_for_every_core_the_walk_yields(mu, n):
    # back gets a column per row the top block's core reaches, taken before
    # the walk (irreps.core_rows); on these 48 points that covers every core
    # the walk yields, by 0 to 6 rows
    for radius in (0.3, 1.0, 1.41, 3.0):
        u = LocalParam(radius, 0.0)
        tv = _tv_grid(ModelParams(n, mu), u, default_tv_grid(mu, u, n))
        reach = max(b.core.shape[0] for chunk in tv.chunks() for b in chunk)
        assert 0 <= tv.heterodyne.back.shape[1] - reach <= 6


@pytest.mark.parametrize("n, u", [(64, (0.7, -0.5)), (1024, (3.0, 0.0)), (256, (-9.0, 8.0))])
def test_polar_tables_grow_past_a_short_estimate(monkeypatch, n, u):
    # an estimate of one row grows back at the first chunk, and one of the
    # first chunk's rows grows it again further up the range, where the
    # cores reach further; the estimate is the sized tables' either way,
    # since the leading columns of D(-z_c) do not depend on how many are
    # built
    mu, u = 0.75, LocalParam(*u)
    params = ModelParams(n, mu)
    want = measurement_tv(params, u)
    tv = _tv_grid(params, u, default_tv_grid(mu, u, n))
    first = max(b.core.shape[0] for b in next(tv.chunks()))
    built = []
    displacement_columns = oscillator.displacement_columns

    def spy(t, cols):
        built.append(cols)
        return displacement_columns(t, cols)

    monkeypatch.setattr(oscillator, "displacement_columns", spy)
    for short in (1, first):
        built.clear()
        monkeypatch.setattr(measurements, "core_rows", lambda *args: short)
        assert measurement_tv(params, u) == want
        assert built[0] == short and len(built) >= 2 and built == sorted(set(built))


def pointwise_heterodyne(params, u, block, pts):
    """A block's pulled-back density by coherent rows at every node, contracted
    with its whole core: the form that held before the grids were re-centred.
    The amplitudes are turned into the core's frame, u's, and each row is
    the real row at |z| times its frame phases e^{ik arg z}."""
    z = math.sqrt(2.0 * params.mu - 1.0) * (-pts[:, 1] + 1j * pts[:, 0])
    z *= complex(math.cos(u.angle), -math.sin(u.angle))
    b = block.core.T @ reference._coherent_columns(z, block.core.shape[0])
    sq = np.einsum("kg,kg->g", b.real, b.real) + np.einsum("kg,kg->g", b.imag, b.imag)
    return (2.0 * params.mu - 1.0) / math.pi * sq


@pytest.mark.parametrize("n, mu, u", [(1024, 1.0, (20.0, -15.0)), (256, 0.75, (-9.0, 8.0))])
def test_recentred_heterodyne_far_from_origin(n, mu, u):
    # |z_c| = 25 and 8.5: the blocks reach about |z_c|^2 rows, while the
    # tables stay as wide as the radial rows at the grid radius
    params, u = ModelParams(n, mu), LocalParam(*u)
    grid = default_tv_grid(mu, u, n)
    tracemalloc.start()
    try:
        tv = _tv_grid(params, u, grid)
        densities = list(tv_block_densities(tv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(b.core.shape[0] for b, _, _ in densities) > tv.heterodyne.back.shape[0]
    assert peak < 64 * 2**20
    for block, _, dens_h in densities[:: max(1, len(densities) // 4)]:
        want = pointwise_heterodyne(params, u, block, tv.points)
        np.testing.assert_allclose(dens_h, want, rtol=0, atol=1e-13)


def test_tv_grid_rejects_a_grid_off_u():
    n, mu, u = 64, 0.75, LocalParam(0.7, -0.5)
    params = ModelParams(n, mu)
    grid = replace(default_tv_grid(mu, u, n), center=(-0.3, 0.9))
    with pytest.raises(ValidationError):
        _tv_grid(params, u, grid)


def test_tv_grid_rejects_a_grid_past_the_disk_before_rotating(monkeypatch):
    # neither the walk nor the rotation kernel call that sizes the polar
    # tables may run before the injectivity-disk check
    def fail(*args, **kwargs):
        raise AssertionError("rotated a block for a grid that is rejected")

    monkeypatch.setattr(qubit_model, "rotation_walk", fail)
    monkeypatch.setattr(irreps, "rotation_columns", fail)
    n, u = 1024, LocalParam(45.0, 0.0)
    params = ModelParams(n, 0.75)
    with pytest.raises(DomainError):
        _tv_grid(params, u, PolarGrid(center=(45.0, 0.0), radius=8.0))
