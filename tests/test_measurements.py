import math

import numpy as np
import pytest

from spingauss.errors import DomainError, ValidationError
from spingauss.irreps import HalfInteger, LocalParam, rotation_unitary
from spingauss.measurements import (
    McSpec,
    covariant_block_density,
    discrimination_limit,
    finite_n_discrimination,
    helstrom_risk,
    heterodyne_estimation_risk,
    heterodyne_outcome_std,
    heterodyne_pullback_density,
    heterodyne_risk_reference,
    heterodyne_samples,
    injectivity_radius,
    measurement_tv_distance,
    measurement_tv_sweep,
    outcome_density_field,
    position_measurement_risk,
)
from spingauss.measurements import (
    _block_density_pair,
    _concentration_weights,
    _tv_grid,
    default_tv_grid,
)
from spingauss.numerics import trace_norm
from spingauss.oscillator import FockTruncation, PolarGrid, heterodyne_pdf
from spingauss import measurements, qubit_model
from spingauss.qubit_model import (
    ModelParams,
    block_state,
    block_state_zero,
    block_weight,
    concentration_set,
    ensemble,
    valid_spins,
)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_helstrom_trivial_cases():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 3)
    assert helstrom_risk(rho, rho).risk == pytest.approx(0.5, abs=1e-12)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert helstrom_risk(a, b).risk == pytest.approx(0.0, abs=1e-12)


def test_helstrom_pure_overlap_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        got = helstrom_risk(np.outer(a, a.conj()), np.outer(b, b.conj())).risk
        c = abs(np.vdot(a, b))
        assert got == pytest.approx(0.5 * (1 - math.sqrt(1 - c * c)), abs=1e-12)


def test_helstrom_symmetry_and_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        r1 = helstrom_risk(a, b).risk
        r2 = helstrom_risk(b, a).risk
        assert abs(r1 - r2) < 1e-10
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(h)
        r3 = helstrom_risk(q @ a @ q.conj().T, q @ b @ q.conj().T).risk
        assert abs(r1 - r3) < 1e-10


def test_helstrom_ensembles_vs_brute_force_tensor_oracle():
    # oracle: build the full 2^n-dimensional states and take the trace norm
    mu, n = 0.8, 5
    u = LocalParam(0.6, -0.3)
    params = ModelParams(n, mu)
    got = finite_n_discrimination(params, u).risk
    um = rotation_unitary(HalfInteger(1), u.scaled(1 / math.sqrt(n)))
    one_plus = um @ np.diag([mu, 1 - mu]).astype(complex) @ um.conj().T
    um_m = rotation_unitary(HalfInteger(1), (-u).scaled(1 / math.sqrt(n)))
    one_minus = um_m @ np.diag([mu, 1 - mu]).astype(complex) @ um_m.conj().T
    big_plus = one_plus
    big_minus = one_minus
    for _ in range(n - 1):
        big_plus = np.kron(big_plus, one_plus)
        big_minus = np.kron(big_minus, one_minus)
    want = 0.5 * (1 - 0.5 * trace_norm(big_plus - big_minus))
    assert got == pytest.approx(want, abs=1e-10)


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
        helstrom_risk(a, b)


def test_discrimination_limit_values():
    assert discrimination_limit(LocalParam(0, 0)) == pytest.approx(0.5, abs=1e-15)
    # closed form evaluated at |u| = 0.5
    want = 0.5 * (1 - math.sqrt(1 - math.exp(-1.0)))
    assert discrimination_limit(LocalParam(0.5, 0)) == pytest.approx(want, abs=1e-15)
    assert want == pytest.approx(0.10246995118967495, abs=1e-15)


def test_discrimination_limit_matches_truncated_fock_oracle():
    # pure-case oracle on the oscillator: risk between coherent states at +-u
    from spingauss.oscillator import coherent_state, displacement_amplitude

    for mag in (0.3, 0.5, 1.0):
        u = LocalParam(mag, 0.0)
        plus = coherent_state(displacement_amplitude(u, 1.0), FockTruncation(64))
        minus = coherent_state(displacement_amplitude(-u, 1.0), FockTruncation(64))
        got = helstrom_risk(plus.matrix, minus.matrix).risk
        assert got == pytest.approx(discrimination_limit(u), abs=1e-6)


def test_helstrom_factor_form_limit_states_match_dense():
    # the mu < 1 limit risk compares the +-u cores in one gauge; the dense
    # pair of independently built states is the oracle
    from spingauss.oscillator import displaced_thermal

    trunc = FockTruncation(128)
    for mu, u in ((0.75, LocalParam(0.6, -0.3)), (0.9, LocalParam(-1.2, 0.4))):
        plus = displaced_thermal(u, mu, trunc)
        got = helstrom_risk(plus, plus.mirrored()).risk
        want = helstrom_risk(plus.matrix, displaced_thermal(-u, mu, trunc).matrix).risk
        assert got == pytest.approx(want, abs=1e-13)


def test_finite_n_discrimination_symmetries():
    params = ModelParams(6, 0.75)
    u = LocalParam(0.4, 0.2)
    r_plus = finite_n_discrimination(params, u).risk
    r_minus = finite_n_discrimination(params, -u).risk
    assert abs(r_plus - r_minus) < 1e-14
    assert finite_n_discrimination(params, LocalParam(0, 0)).risk == pytest.approx(0.5, abs=1e-12)


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


def test_heterodyne_risk_covariance_in_u():
    r0 = heterodyne_estimation_risk(0.75, u=LocalParam(0, 0))
    r1 = heterodyne_estimation_risk(0.75, u=LocalParam(1, 1))
    assert abs(r0.value - r1.value) <= r0.error_bound + r1.error_bound + 1e-6


def test_heterodyne_risk_monte_carlo_reproducible_and_consistent():
    mu = 0.75
    a = heterodyne_estimation_risk(mu, mc=McSpec(seed=123, samples=40_000))
    b = heterodyne_estimation_risk(mu, mc=McSpec(seed=123, samples=40_000))
    assert a.value == b.value
    c = heterodyne_estimation_risk(mu, mc=McSpec(seed=321, samples=40_000))
    assert abs(a.value - c.value) <= a.error_bound + c.error_bound
    assert abs(a.value - heterodyne_risk_reference(mu)) <= a.error_bound + 0.02


def test_heterodyne_risk_monte_carlo_uses_sample_truncation(monkeypatch):
    # away from u = 0 the Monte Carlo value is the mean over the points and
    # weights heterodyne_samples returns, with the truncation it sizes from
    # the farthest sample, not from the quadrature radius
    mu, u = 0.75, LocalParam(1.3, -0.7)
    mc = McSpec(seed=5, samples=20_000)
    dims = []

    def recording_pdf(pts, u, mu, trunc):
        dims.append(trunc.dim)
        return heterodyne_pdf(pts, u, mu, trunc)

    monkeypatch.setattr(measurements, "heterodyne_pdf", recording_pdf)
    pts, weights = heterodyne_samples(mu, u, mc)
    want = float((((pts[:, 0] - u.ux) ** 2 + (pts[:, 1] - u.uy) ** 2) * weights).mean())
    assert heterodyne_estimation_risk(mu, u, mc=mc).value == want
    assert dims[0] == dims[1]


def test_heterodyne_pdf_moments_match_derived_variance():
    # importance-sampled moments of the computed outcome density, 3 sigma bands
    mu = 0.75
    u = LocalParam(0.3, -0.2)
    pts, w = heterodyne_samples(mu, u, McSpec(seed=42, samples=200_000))
    m = len(w)
    mean = (w[:, None] * pts).sum(axis=0) / m
    err_mean = 3 * np.sqrt(((w[:, None] * pts).std(axis=0, ddof=1) ** 2) / m)
    assert abs(mean[0] - u.ux) < err_mean[0] and abs(mean[1] - u.uy) < err_mean[1]
    var_ref = mu / (2 * (2 * mu - 1) ** 2)
    for axis, center in ((0, u.ux), (1, u.uy)):
        sq = w * (pts[:, axis] - center) ** 2
        var = sq.mean()
        assert abs(var - var_ref) < 3 * sq.std(ddof=1) / math.sqrt(m)
    assert abs(w.mean() - 1.0) < 3 * w.std(ddof=1) / math.sqrt(m)


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
    tv = _tv_grid(params, u, pts, _concentration_weights(params))
    dens_m, dens_h = _block_density_pair(tv, next(b for b in tv.blocks if b.j == j))
    rho = block_state(params, j, u)
    want_m = covariant_block_density(j, params.n, rho, pts)
    want_h = heterodyne_pullback_density(j, rho, params.mu, pts)
    np.testing.assert_allclose(dens_m, want_m, atol=1e-12)
    np.testing.assert_allclose(dens_h, want_h, atol=1e-12)


def test_outcome_density_field_masses():
    params = ModelParams(36, 0.75)
    u = LocalParam(0.5, 0.5)
    field = outcome_density_field(params, u)
    included = sum(field.block_weights)
    assert np.all(field.covariant >= -1e-12)
    assert np.all(field.heterodyne >= -1e-12)
    mass_m = np.sum(field.weights * field.covariant)
    mass_h = np.sum(field.weights * field.heterodyne)
    assert mass_m == pytest.approx(included, abs=2e-3)
    assert mass_h == pytest.approx(included, abs=2e-3)


def test_measurement_tv_smoke_and_decrease():
    est16 = measurement_tv_distance(ModelParams(16, 0.75), LocalParam(0.5, 0.5))
    est64 = measurement_tv_distance(ModelParams(64, 0.75), LocalParam(0.5, 0.5))
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


def test_measurement_tv_sweep_matches_dense_blocks():
    u_list = (LocalParam(0, 0), LocalParam(1, 0), LocalParam(-0.6, 0.9))
    swept = measurement_tv_sweep(0.75, (16, 36), u_list)
    assert [(e.n, e.u) for e in swept] == [(n, u) for n in (16, 36) for u in u_list]
    for est in swept:
        grid_term, mass_m, mass_h = dense_tv(0.75, est.n, est.u)
        assert est.grid_term == pytest.approx(grid_term, abs=1e-12)
        assert est.covariant_mass == pytest.approx(mass_m, abs=1e-12)
        assert est.heterodyne_mass == pytest.approx(mass_h, abs=1e-12)


def block_densities(params, u, pts):
    tv = _tv_grid(params, u, pts, _concentration_weights(params))
    return [(block, *_block_density_pair(tv, block)) for block in tv.blocks]


def test_closed_form_covariant_density_matches_dense_blocks():
    for n in (16, 36):
        for mu in (0.75, 0.9, 1.0):
            params = ModelParams(n, mu)
            for u in (LocalParam(0, 0), LocalParam(1, -0.5), LocalParam(-2.1, 1.3)):
                pts, _ = default_tv_grid(mu, u, n).nodes()
                for block, dens_m, _ in block_densities(params, u, pts):
                    rho = block_state(params, block.j, u)
                    want = covariant_block_density(block.j, n, rho, pts)
                    np.testing.assert_allclose(dens_m, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [16, 4096], ids=["n16-edge-grid", "n4096-edge-grid"])
def test_closed_form_covariant_density_finite_at_edge(n):
    # at 0.98 of the injectivity radius the densities stay finite for every
    # included block, down to the lightest spin
    params = ModelParams(n, 0.75)
    grid = PolarGrid(radius=0.98 * injectivity_radius(n), n_radial=24, n_angular=16)
    pts, _ = grid.nodes()
    pairs = block_densities(params, LocalParam(0.8, -0.5), pts)
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
    (block, dens_m, _), = block_densities(ModelParams(n, 1.0), u, pts)
    assert 0.0 <= dens_m[0] < 1e-200
    want = covariant_block_density(block.j, n, block_state(ModelParams(n, 1.0), block.j, u), pts[1])
    assert dens_m[1] == pytest.approx(want, abs=1e-13)
