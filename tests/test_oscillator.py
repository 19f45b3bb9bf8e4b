import math

import numpy as np
import pytest
from scipy.special import gammainc

from spingauss.errors import AccuracyError, DomainError, TruncationError
from spingauss.irreps import LocalParam
from spingauss.numerics import trace_norm
from spingauss.oscillator import (
    Displacement,
    FockTruncation,
    PolarGrid,
    coherent_coefficients,
    coherent_state,
    default_truncation,
    displaced_thermal,
    displacement_amplitude,
    displacement_operator,
    glauber_mixture,
    heterodyne_density,
    heterodyne_pdf,
    number_basis_state,
    quadrature_operators,
    required_coherent_dim,
    thermal_state,
)
from spingauss.qubit_model import ModelParams

T32 = FockTruncation(32)
T64 = FockTruncation(64)


def test_number_basis_state():
    op = number_basis_state(0, FockTruncation(5))
    np.testing.assert_allclose(op.matrix, np.diag([1, 0, 0, 0, 0]).astype(complex))
    assert np.trace(op.matrix) == 1.0
    a = number_basis_state(1, FockTruncation(5)).matrix
    b = number_basis_state(3, FockTruncation(5)).matrix
    assert np.trace(a @ b) == 0.0
    with pytest.raises(DomainError):
        number_basis_state(5, FockTruncation(5))


def test_thermal_state_values_and_tail():
    vac = thermal_state(0.0, FockTruncation(4))
    np.testing.assert_allclose(vac.matrix, np.diag([1, 0, 0, 0]).astype(complex))
    th = thermal_state(1 / 3, FockTruncation(3))
    np.testing.assert_allclose(np.diag(th.matrix).real, [2 / 3, 2 / 9, 2 / 27], atol=1e-15)
    # geometric series oracle: missing trace is exactly p^N
    assert 1 - np.trace(th.matrix).real == pytest.approx((1 / 3) ** 3, abs=1e-15)
    assert th.trunc.tail_bound == pytest.approx((1 / 3) ** 3, abs=1e-18)
    with pytest.raises(DomainError):
        thermal_state(1.0, T32)


def test_coherent_state_vacuum_and_overlap_oracle():
    vac = coherent_state(0.0, FockTruncation(6))
    np.testing.assert_allclose(vac.matrix, number_basis_state(0, FockTruncation(6)).matrix)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z1, z2 = (complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(2))
        c1 = coherent_coefficients(z1, 64)
        c2 = coherent_coefficients(z2, 64)
        want = math.exp(-abs(z1 - z2) ** 2 / 2)
        assert abs(np.vdot(c1, c2)) == pytest.approx(want, abs=1e-8)


def test_coherent_state_mean_photon_moment_oracle():
    rng = np.random.default_rng(5)
    a_dag_a = np.diag(np.arange(64)).astype(complex)
    for _ in range(6):
        z = complex(*rng.uniform(-2, 2, 2) / math.sqrt(2))
        rho = coherent_state(z, T64).matrix
        assert np.trace(rho @ a_dag_a).real == pytest.approx(abs(z) ** 2, abs=1e-8)


def test_coherent_state_leakage_error_names_required_dim():
    with pytest.raises(TruncationError, match="need dim >= "):
        coherent_state(3.0, FockTruncation(8))
    need = required_coherent_dim(3.0, 1e-8)
    coherent_state(3.0, FockTruncation(need))  # no raise at the stated dim


def test_displacement_operator_identity_and_inverse():
    ident = displacement_operator(Displacement(0.0), T32)
    np.testing.assert_allclose(ident.matrix, np.eye(32), atol=1e-12)
    # inverse-product oracle at N=64, pad=32: the row mass escaping past the
    # cutoff re-enters the product diagonal linearly, so the 1e-8 level holds
    # on the half block for |z| <= 1.6 and deeper inside (first 24 levels) for
    # |z| up to 2
    rng = np.random.default_rng(7)
    for _ in range(4):
        phase = np.exp(2j * math.pi * rng.uniform())
        for mag, keep in ((1.6 * rng.uniform(), 32), (2.0, 24)):
            z = mag * phase
            dp = displacement_operator(Displacement(z), T64, pad=32)
            dm = displacement_operator(Displacement(-z), T64, pad=32)
            resid = np.abs((dp.matrix @ dm.matrix)[:keep, :keep] - np.eye(keep)).max()
            assert resid < 1e-8


def test_displacement_first_column_is_coherent_vector():
    z = 1.1 - 0.4j
    d = displacement_operator(Displacement(z), T64, pad=32)
    np.testing.assert_allclose(d.matrix[:, 0], coherent_coefficients(z, 64), atol=1e-8)


def test_displacement_truncation_error_when_pad_too_small():
    with pytest.raises(TruncationError):
        displacement_operator(Displacement(4.0), FockTruncation(6), pad=0)


def test_displaced_thermal_reduces_to_thermal_and_coherent():
    mu = 0.75
    th = displaced_thermal(LocalParam(0.0, 0.0), mu, T32)
    np.testing.assert_allclose(th.matrix, thermal_state(1 / 3, T32).matrix, atol=1e-14)
    u = LocalParam(0.6, -0.2)
    pure = displaced_thermal(u, 1.0, T64)
    want = coherent_state(displacement_amplitude(u, 1.0), T64).matrix
    assert trace_norm(pure.matrix - want) < 1e-8


def test_displaced_thermal_real_core_matches_displacement_operator():
    # the core in the gauge psi = u.angle rebuilds D(z)|k> sqrt((1-p) p^k)
    # from the dense displacement operator, over |z| up to 3
    rng = np.random.default_rng(73)
    for mu in (0.75, 1.0):
        p = (1 - mu) / mu
        for mag in (0.0, 0.4, 1.0, 2.2, 3.0 / math.sqrt(2 * mu - 1)):
            t = rng.uniform(0, 2 * math.pi)
            u = LocalParam(mag * math.cos(t), mag * math.sin(t))
            op = displaced_thermal(u, mu, FockTruncation(160))
            assert op.psi == u.angle and op.core.dtype == np.float64 and op.dense is None
            rows, rank = op.core.shape
            d_op = displacement_operator(
                Displacement(displacement_amplitude(u, mu)), FockTruncation(160), pad=64
            ).matrix
            want = d_op[:rows, :rank] * np.sqrt((1 - p) * p ** np.arange(rank))
            r, c = np.indices(op.core.shape)
            np.testing.assert_allclose(np.exp(1j * op.psi * (r - c)) * op.core, want, atol=1e-12)


def test_displaced_thermal_crop_is_the_mass_past_the_truncation():
    # exactly 0 when the truncation holds every row the factor reaches
    u, mu = LocalParam(1.0, 1.0), 0.75
    full = displaced_thermal(u, mu, FockTruncation(400))
    cut = displaced_thermal(u, mu, FockTruncation(19))
    assert full.core.shape[0] < 400 and full.crop == 0.0
    assert cut.crop == pytest.approx(float(np.sum(full.core[19:] ** 2)), rel=1e-12)
    assert cut.crop > 0.0
    assert cut.trunc.tail_bound == pytest.approx(full.trunc.tail_bound + cut.crop, rel=1e-12)
    assert cut.distance_bound == cut.trunc.tail_bound + 2 * math.sqrt(cut.crop)


def test_displaced_thermal_mirror_is_minus_u():
    # D(-z) = S D(z) S: the mirrored state is the state at -u
    u, mu = LocalParam(0.7, -0.4), 0.8
    plus = displaced_thermal(u, mu, T64)
    np.testing.assert_allclose(
        plus.mirrored().matrix, displaced_thermal(-u, mu, T64).matrix, atol=1e-14
    )
    assert plus.mirrored().psi == plus.psi


def test_displaced_thermal_quadrature_means():
    # quadrature-moment oracle: the state is displaced by sqrt(2 mu - 1) alpha_u,
    # so <Q> = -sqrt(2) sqrt(2 mu - 1) u_y and <P> = sqrt(2) sqrt(2 mu - 1) u_x
    # (a rotation-strength factor sqrt(2 mu - 1), consistent with the coherent
    # limit of the spin blocks and with the heterodyne outcome density)
    mu = 0.75
    root = math.sqrt(2 * mu - 1)
    q, p = quadrature_operators(FockTruncation(128))
    for u in (LocalParam(1.0, 0.0), LocalParam(-0.3, 0.8)):
        rho = displaced_thermal(u, mu, FockTruncation(128)).matrix
        mean_q = np.trace(rho @ q).real
        mean_p = np.trace(rho @ p).real
        assert mean_q == pytest.approx(-math.sqrt(2) * root * u.uy, abs=1e-6)
        assert mean_p == pytest.approx(math.sqrt(2) * root * u.ux, abs=1e-6)


def test_displaced_thermal_parity_relation():
    # conjugating by the parity operator flips the displacement sign
    mu = 0.8
    u = LocalParam(0.7, 0.4)
    parity = np.diag([(-1.0) ** k for k in range(64)])
    plus = displaced_thermal(u, mu, T64).matrix
    minus = displaced_thermal(-u, mu, T64).matrix
    assert np.abs(parity @ plus @ parity - minus).max() < 1e-8


def test_state_factories_are_psd_with_reported_trace():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu = rng.uniform(0.55, 1.0)
        u = LocalParam(*rng.uniform(-1, 1, 2))
        op = displaced_thermal(u, mu, T64)
        eigs = np.linalg.eigvalsh(op.matrix)
        assert eigs.min() > -1e-10
        assert 1 - op.trunc.tail_bound - 1e-12 <= np.trace(op.matrix).real <= 1 + 1e-10


def test_glauber_mixture_matches_thermal():
    mu = 0.75
    s2 = (1 / 3) / (2 * (1 - 1 / 3))
    quad = PolarGrid(radius=5 * math.sqrt(s2))
    mix = glauber_mixture(mu, T32, quad=quad)
    assert trace_norm(mix.matrix - thermal_state(1 / 3, T32).matrix) < 1e-4
    # phase symmetry: uniform angular grid kills all off-diagonals
    off = mix.matrix - np.diag(np.diag(mix.matrix))
    assert np.abs(off).max() < 1e-8


def test_glauber_mixture_vacuum_limit():
    mix = glauber_mixture(0.999, FockTruncation(16))
    vac = number_basis_state(0, FockTruncation(16)).matrix
    assert trace_norm(mix.matrix - vac) < 5e-3


def test_glauber_mixture_radius_too_small_raises():
    with pytest.raises(AccuracyError):
        glauber_mixture(0.75, T32, quad=PolarGrid(radius=0.3))


def test_heterodyne_completeness_quadrature_oracle():
    # incomplete-gamma oracle: integrating the density over |u| < R gives
    # diagonal entries P(k+1, (2mu-1) R^2)
    mu, radius, dim = 0.9, 8.0, 16
    trunc = FockTruncation(dim)
    grid = PolarGrid(radius=radius, n_radial=200, n_angular=64)
    pts, w = grid.nodes()
    total = np.zeros((dim, dim), dtype=complex)
    for (ux, uy), wg in zip(pts, w):
        total += wg * heterodyne_density(LocalParam(ux, uy), mu, trunc).matrix
    ks = np.arange(dim)
    want = gammainc(ks + 1, (2 * mu - 1) * radius ** 2)
    np.testing.assert_allclose(np.diag(total).real, want, atol=1e-9)
    assert np.abs(np.diag(total).real - 1.0).max() < 1e-3
    off = total - np.diag(np.diag(total))
    assert np.abs(off).max() < 1e-8


def test_heterodyne_pdf_gaussian_oracle():
    # derived closed form: (2mu-1)^2/(pi mu) exp(-(2mu-1)^2 ||d||^2 / mu)
    mu = 0.75
    trunc = FockTruncation(128)
    u = LocalParam(0.4, -0.6)
    pts = np.array([[0.4, -0.6], [1.0, 0.0], [-0.5, 1.2], [2.0, 2.0]])
    got = heterodyne_pdf(pts, u, mu, trunc)
    d2 = np.sum((pts - [u.ux, u.uy]) ** 2, axis=1)
    want = (2 * mu - 1) ** 2 / (math.pi * mu) * np.exp(-((2 * mu - 1) ** 2) * d2 / mu)
    np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("mu", [0.75, 0.9, 1.0])
def test_heterodyne_pdf_matches_dense_quadratic_form(mu):
    # oracle: (2mu-1)/pi <z|rho|z> with the dense matrix over all levels
    trunc = FockTruncation(140)
    u = LocalParam(2.5, -1.5)
    pts = np.array([[2.5, -1.5], [0.0, 0.0], [3.5, -0.5], [1.0, -3.0], [5.0, 1.0]])
    rho = displaced_thermal(u, mu, trunc).matrix
    want = []
    for x, y in pts:
        c = coherent_coefficients(math.sqrt(2 * mu - 1) * complex(-y, x), trunc.dim)
        want.append((2 * mu - 1) / math.pi * np.vdot(c, rho @ c).real)
    np.testing.assert_allclose(heterodyne_pdf(pts, u, mu, trunc), want, rtol=0, atol=1e-14)


def test_heterodyne_pdf_integrates_to_one():
    mu = 0.75
    u = LocalParam(0.5, 0.5)
    sig = math.sqrt(mu / 2) / (2 * mu - 1)
    grid = PolarGrid(center=(u.ux, u.uy), radius=8 * sig, n_radial=160, n_angular=128)
    pts, w = grid.nodes()
    dens = heterodyne_pdf(pts, u, mu, FockTruncation(96))
    assert abs(np.sum(w * dens) - 1.0) < 1e-4


def test_default_truncation_policy_floors():
    params = ModelParams(100, 0.75, 0.1)
    trunc = default_truncation(params, u_max=math.sqrt(2))
    # covers every concentration-set block and the thermal tail
    assert trunc.dim >= 2 * (25 + math.ceil(100 ** 0.6)) + 1 - 2
    assert (1 / 3) ** trunc.dim < 1e-8
    assert trunc.dim >= math.ceil((math.sqrt(0.5) * math.sqrt(2) + 6) ** 2)
