import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammainc, gammaln, xlogy

from spingauss.errors import AccuracyError, DomainError
from spingauss.irreps import LocalParam
from spingauss.numerics import mirror_rows, trace_norm
from spingauss.oscillator import (
    FockTruncation,
    PolarGrid,
    _coherent_rows,
    coherent_coefficients,
    displaced_thermal,
    displacement_columns,
    heterodyne_pdf_kernel,
)
from spingauss.reference import (
    TruncationError,
    coherent_state,
    displacement_amplitude,
    displacement_operator,
    fock_matrix,
    glauber_mixture,
    lab_frame,
    heterodyne_density,
    number_basis_state,
    quadrature_operators,
    required_coherent_dim,
    thermal_state,
    tridiagonal_propagator,
)

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


def mp_coherent_rows(z, turn, dim):
    """Oracle: c_k(e^{-i turn} z) and sum |c_k|^2 in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        zeta = mpmath.mpc(z.real, z.imag) * mpmath.exp(-1j * mpmath.mpf(turn))
        c = mpmath.exp(-abs(zeta) ** 2 / 2)
        rows, norm = [complex(c)], abs(c) ** 2
        for k in range(1, dim):
            c = c * zeta / mpmath.sqrt(k)
            rows.append(complex(c))
            norm += abs(c) ** 2
        return np.array(rows), float(norm)


def closed_form_rows(z, dim, turn):
    """Second oracle: e^{-|z|^2/2 + k log|z| - lgamma(k+1)/2 + ik(arg z - turn)}."""
    az, k = np.abs(z)[:, None], np.arange(dim)
    amp = np.exp(-az ** 2 / 2 + xlogy(k, az) - 0.5 * gammaln(k + 1))
    return (amp * np.exp(1j * (np.angle(z) - turn)[:, None] * k)).T


def turned(z, turn):
    """The amplitudes z in the frame of ``turn``: |z> there is |e^{-i turn} z>."""
    return np.asarray(z, dtype=complex) * complex(math.cos(turn), -math.sin(turn))


@pytest.mark.parametrize("turn", [0.0, 1.1, -2.7])
def test_coherent_rows_match_40_digit_oracle(turn):
    # the real row at |z| times its frame phases; past c_0's underflow at
    # |z| > 38 the rows near k ~ |z|^2 come from the re-anchoring alone
    for i, r in enumerate((0.0, 1e-3, 0.5, 3.0, 7.0, 20.0, 37.0, 45.0)):
        z = r * complex(math.cos(0.7 + 1.9 * i), math.sin(0.7 + 1.9 * i))
        dim = math.ceil(r * r + 10 * r + 40) + 1
        got = coherent_coefficients(turned([z], turn)[0], dim)
        assert got.dtype == complex and got.shape == (dim,)
        want, norm = mp_coherent_rows(z, turn, dim)
        assert np.abs(got - want).max() <= 1e-13
        assert abs(float(np.sum(np.abs(got) ** 2)) - norm) <= 1e-13
        if r == 0.0:
            assert got[0] == 1.0 and not got[1:].any()


def test_coherent_rows_match_40_digit_oracle_at_real_amplitudes():
    # the real kernel alone, at either sign and past c_0's underflow
    # (|t| > 38); a negative amplitude flips the odd rows, bit for bit
    for t in (0.0, 1e-3, 0.5, -3.0, 7.0, -20.0, 37.0, -39.5, 42.0, -45.0):
        dim = math.ceil(t * t + 10 * abs(t) + 40) + 1
        rows = _coherent_rows(np.array([t, -t]), dim)
        assert rows.dtype == np.float64 and rows.shape == (dim, 2)
        want, norm = mp_coherent_rows(complex(t), 0.0, dim)
        assert np.abs(rows[:, 0] - want.real).max() <= 1e-15
        assert abs(float(np.sum(rows[:, 0] ** 2)) - norm) <= 1e-13
        np.testing.assert_array_equal(rows[:, 1], (-1.0) ** np.arange(dim) * rows[:, 0])


def test_coherent_rows_match_closed_form():
    rng = np.random.default_rng(11)
    for r_max, dim, tol in ((8.0, 140, 3e-14), (45.0, 2520, 5e-13)):
        z = rng.uniform(0, r_max, 300) * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
        for turn in (0.0, 1.1, -2.7):
            got = np.stack([coherent_coefficients(zeta, dim) for zeta in turned(z, turn)], axis=1)
            np.testing.assert_allclose(got, closed_form_rows(z, dim, turn), rtol=0, atol=tol)


def test_coherent_rows_of_real_amplitudes_are_the_real_half():
    # real amplitudes run in real arithmetic and return (dim, G); past
    # |t| = 38 c_0 underflows and the anchors carry the rows near t^2
    t = np.linspace(0.0, 45.0, 451)
    for dim, amps in ((1, t), (16, t), (17, t), (33, t), (120, t), (2100, t[::10])):
        rows = _coherent_rows(amps, dim)
        assert rows.dtype == np.float64 and rows.shape == (dim, len(amps))
    assert rows[1600:, -1].max() > 0.009
    assert coherent_coefficients(0, 3).dtype == complex
    assert coherent_coefficients(0.5, 3).dtype == complex


def test_displacement_operator_identity_and_inverse():
    ident = displacement_operator(0.0, T32)
    np.testing.assert_allclose(ident, np.eye(32), atol=1e-12)
    # inverse-product oracle at N=64, pad=32: the row mass escaping past the
    # cutoff re-enters the product diagonal linearly, so the 1e-8 level holds
    # on the half block for |z| <= 1.6 and deeper inside (first 24 levels) for
    # |z| up to 2
    rng = np.random.default_rng(7)
    for _ in range(4):
        phase = np.exp(2j * math.pi * rng.uniform())
        for mag, keep in ((1.6 * rng.uniform(), 32), (2.0, 24)):
            z = mag * phase
            dp = displacement_operator(z, T64, pad=32)
            dm = displacement_operator(-z, T64, pad=32)
            resid = np.abs((dp @ dm)[:keep, :keep] - np.eye(keep)).max()
            assert resid < 1e-8


def test_displacement_first_column_is_coherent_vector():
    z = 1.1 - 0.4j
    d = displacement_operator(z, T64, pad=32)
    np.testing.assert_allclose(d[:, 0], coherent_coefficients(z, 64), atol=1e-8)


def test_displacement_truncation_error_when_pad_too_small():
    with pytest.raises(TruncationError):
        displacement_operator(4.0, FockTruncation(6), pad=0)


def test_displaced_thermal_reduces_to_thermal_and_coherent():
    mu = 0.75
    th = fock_matrix(displaced_thermal(LocalParam(0.0, 0.0), mu), T32)
    np.testing.assert_allclose(th, thermal_state(1 / 3, T32).matrix, atol=1e-14)
    u = LocalParam(0.6, -0.2)
    pure = lab_frame(fock_matrix(displaced_thermal(u, 1.0), T64), u.angle)
    want = coherent_state(displacement_amplitude(u, 1.0), T64).matrix
    assert trace_norm(pure - want) < 1e-8


def test_displaced_thermal_real_core_matches_displacement_operator():
    # the core in u's frame, with the frame phase put back, rebuilds
    # D(z)|k> sqrt((1-p) p^k) from the dense displacement operator, over |z|
    # up to 3
    rng = np.random.default_rng(73)
    for mu in (0.75, 1.0):
        p = (1 - mu) / mu
        for mag in (0.0, 0.4, 1.0, 2.2, 3.0 / math.sqrt(2 * mu - 1)):
            t = rng.uniform(0, 2 * math.pi)
            u = LocalParam(mag * math.cos(t), mag * math.sin(t))
            op = displaced_thermal(u, mu)
            assert op.core.dtype == np.float64 and not hasattr(op, "dense")
            core = op.core[:160]
            rows, rank = core.shape
            d_op = displacement_operator(
                displacement_amplitude(u, mu), FockTruncation(160), pad=64
            )
            want = d_op[:rows, :rank] * np.sqrt((1 - p) * p ** np.arange(rank))
            np.testing.assert_allclose(lab_frame(core, u.angle), want, atol=1e-12)


def test_displaced_thermal_mirror_is_minus_u():
    # D(-z) = S D(z) S: the mirrored state is the state at -u, in u's frame;
    # built at -u, in its own frame, the state has the very core of u's
    u, mu = LocalParam(0.7, -0.4), 0.8
    plus = displaced_thermal(u, mu)
    minus = displaced_thermal(-u, mu)
    np.testing.assert_allclose(
        lab_frame(fock_matrix(replace(plus, core=mirror_rows(plus.core)), T64), u.angle),
        lab_frame(fock_matrix(minus, T64), (-u).angle),
        atol=1e-14,
    )
    np.testing.assert_array_equal(minus.core, plus.core)


def test_displaced_thermal_quadrature_means():
    # quadrature-moment oracle: the state is displaced by sqrt(2 mu - 1) alpha_u,
    # so <Q> = -sqrt(2) sqrt(2 mu - 1) u_y and <P> = sqrt(2) sqrt(2 mu - 1) u_x
    # (a rotation-strength factor sqrt(2 mu - 1), consistent with the coherent
    # limit of the spin blocks and with the heterodyne outcome density)
    mu = 0.75
    root = math.sqrt(2 * mu - 1)
    q, p = quadrature_operators(FockTruncation(128))
    for u in (LocalParam(1.0, 0.0), LocalParam(-0.3, 0.8)):
        rho = lab_frame(fock_matrix(displaced_thermal(u, mu), FockTruncation(128)), u.angle)
        mean_q = np.trace(rho @ q).real
        mean_p = np.trace(rho @ p).real
        assert mean_q == pytest.approx(-math.sqrt(2) * root * u.uy, abs=1e-6)
        assert mean_p == pytest.approx(math.sqrt(2) * root * u.ux, abs=1e-6)


def test_displaced_thermal_parity_relation():
    # conjugating by the parity operator flips the displacement sign
    mu = 0.8
    u = LocalParam(0.7, 0.4)
    parity = np.diag([(-1.0) ** k for k in range(64)])
    plus = lab_frame(fock_matrix(displaced_thermal(u, mu), T64), u.angle)
    minus = lab_frame(fock_matrix(displaced_thermal(-u, mu), T64), (-u).angle)
    assert np.abs(parity @ plus @ parity - minus).max() < 1e-8


def test_state_factories_are_psd_with_reported_trace():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu = rng.uniform(0.55, 1.0)
        u = LocalParam(*rng.uniform(-1, 1, 2))
        op = displaced_thermal(u, mu)
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


def pdf_at_points(points, u, mu):
    """The radial kernel ``heterodyne_pdf_kernel`` at the distances of an
    (G, 2) array of points to u: the outcome density at those points."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    rho = np.hypot(pts[:, 0] - u.ux, pts[:, 1] - u.uy)
    return heterodyne_pdf_kernel(mu)(rho)


def test_heterodyne_pdf_gaussian_oracle():
    # derived closed form: (2mu-1)^2/(pi mu) exp(-(2mu-1)^2 ||d||^2 / mu)
    mu = 0.75
    u = LocalParam(0.4, -0.6)
    pts = np.array([[0.4, -0.6], [1.0, 0.0], [-0.5, 1.2], [2.0, 2.0]])
    got = pdf_at_points(pts, u, mu)
    d2 = np.sum((pts - [u.ux, u.uy]) ** 2, axis=1)
    want = (2 * mu - 1) ** 2 / (math.pi * mu) * np.exp(-((2 * mu - 1) ** 2) * d2 / mu)
    np.testing.assert_allclose(got, want, atol=1e-6)


DENSE_FORM_POINTS = np.array([[2.5, -1.5], [0.0, 0.0], [3.5, -0.5], [1.0, -3.0], [5.0, 1.0]])
# offsets from u in units of the outcome std, all within 3 sigma
DENSE_FORM_OFFSETS = np.array([[0.0, 0.0], [1.0, 0.0], [-0.6, 1.8], [2.1, -2.1], [0.0, -3.0]])


@pytest.mark.parametrize(
    "mu, u",
    [
        pytest.param(0.75, (2.5, -1.5), id="0.75"),
        pytest.param(0.9, (2.5, -1.5), id="0.9"),
        pytest.param(1.0, (2.5, -1.5), id="1.0"),
        # the 1x1 core of the pure state
        pytest.param(1.0, (0.0, 0.0), id="1.0-origin"),
        # the radial kernel sees only |u_hat - u|: covariance against the
        # displaced core, which at |u| = 10 reaches about 250 rows
        pytest.param(0.75, (-3.0, 4.0), id="0.75-far"),
        pytest.param(0.75, (6.0, -8.0), id="0.75-farther"),
        pytest.param(1.0, (-3.0, 4.0), id="1.0-far"),
        pytest.param(1.0, (6.0, -8.0), id="1.0-farther"),
    ],
)
def test_heterodyne_pdf_matches_dense_quadratic_form(mu, u):
    # oracle: (2mu-1)/pi <z|rho|z> with the dense matrix over every row of
    # the displaced thermal core, and at least 140
    u = LocalParam(*u)
    phi = displaced_thermal(u, mu)
    trunc = FockTruncation(max(140, phi.core.shape[0]))
    sig = math.sqrt(mu / 2) / (2 * mu - 1)
    pts = np.vstack([DENSE_FORM_POINTS, [u.ux, u.uy] + sig * DENSE_FORM_OFFSETS])
    rho = lab_frame(fock_matrix(phi, trunc), u.angle)
    want = []
    for x, y in pts:
        c = coherent_coefficients(math.sqrt(2 * mu - 1) * complex(-y, x), trunc.dim)
        want.append((2 * mu - 1) / math.pi * np.vdot(c, rho @ c).real)
    np.testing.assert_allclose(pdf_at_points(pts, u, mu), want, rtol=0, atol=1e-14)


def test_heterodyne_pdf_integrates_to_one():
    mu = 0.75
    u = LocalParam(0.5, 0.5)
    sig = math.sqrt(mu / 2) / (2 * mu - 1)
    grid = PolarGrid(center=(u.ux, u.uy), radius=8 * sig, n_radial=160, n_angular=128)
    pts, w = grid.nodes()
    dens = pdf_at_points(pts, u, mu)
    assert abs(np.sum(w * dens) - 1.0) < 1e-4


@pytest.mark.parametrize("mu", [0.51, 0.6, 0.75, 0.9, 1.0])
def test_heterodyne_pdf_kernel_matches_40_digit_oracle(mu):
    # (2 mu - 1)/pi sum_k lambda_k e^{-y} y^k/k!, y = (2 mu - 1) rho^2, over
    # the same float thermal weights in 40 digits, out to 9 sigma, where the
    # density is e^{-40.5} of its peak (865 weights at mu = 0.51)
    mpmath = pytest.importorskip("mpmath")
    lam = np.diagonal(displaced_thermal(LocalParam(0.0, 0.0), mu).core) ** 2
    sig = math.sqrt(mu / 2) / (2 * mu - 1)
    rho = np.linspace(0.0, 9.0 * sig, 19)
    got = heterodyne_pdf_kernel(mu)(rho)
    with mpmath.workdps(40):
        s2 = mpmath.mpf(2 * mu - 1)
        for r, g in zip(rho, got):
            y = s2 * mpmath.mpf(r) ** 2
            pmf, total = mpmath.exp(-y), mpmath.mpf(0)
            for k, weight in enumerate(lam):
                total += mpmath.mpf(weight) * pmf
                pmf *= y / (k + 1)
            want = float(s2 / mpmath.pi * total)
            assert abs(g - want) <= 1e-14 * want


@pytest.mark.parametrize("t", [0.0, 0.001, 0.01, 0.3, 0.7, 2.5, 3.5, 9.0, 17.7, 30.0])
def test_displacement_core_matches_propagator(t):
    # the Charlier recurrence against the Chebyshev propagator oracle; the
    # rows it drops are below the trim there too.  Far out the oracle's cost
    # grows like t^4, so it takes the 17 columns of mu = 0.9 there
    cols = 40 if t < 10 else 17
    want = tridiagonal_propagator(np.sqrt, t, cols)
    got = displacement_columns(t, cols)
    assert got.shape[0] <= want.shape[0]
    np.testing.assert_allclose(got, want[: got.shape[0]], rtol=0, atol=1e-13)
    assert np.abs(want[got.shape[0] :]).max(initial=0.0) < 1e-17
    assert np.abs(np.sqrt(np.einsum("ij,ij->j", got, got)) - 1.0).max() <= 1e-14


def test_displacement_columns_where_the_start_column_underflows():
    # at t = 0.01 the coherent vector falls below the smallest double by
    # row 110, yet the diagonal of every column is O(1): each row carries its
    # own binary exponent through the recurrence
    t, cols = 0.01, 300
    got = displacement_columns(t, cols)
    want = tridiagonal_propagator(np.sqrt, t, cols)
    assert got.shape[0] <= want.shape[0]
    np.testing.assert_allclose(got, want[: got.shape[0]], rtol=0, atol=1e-13)
    assert np.diag(got).min() > 0.9


def test_displacement_core_far_out():
    # at t = 40 e^{-t^2/2} underflows long before the rows near t^2 = 1600:
    # the first column is the coherent vector and the columns stay orthonormal
    t, cols = 40.0, 60
    core = displacement_columns(t, cols)
    rows = core.shape[0]
    np.testing.assert_allclose(core[:, 0], _coherent_rows(np.array([t]), rows)[:, 0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(core.T @ core, np.eye(cols), rtol=0, atol=1e-12)


def test_displaced_thermal_far_out_takes_milliseconds():
    # the kernel's cost grows with the rows it reaches, about |z|^2, not
    # with a series degree of order |z|^2: at mu = 0.9, |u| = 30 (1212 rows)
    # it takes about 2 ms, where the Chebyshev series took 1.5 s
    u = LocalParam(30.0, 0.0)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        displaced_thermal(u, 0.9)
        times.append(time.perf_counter() - start)
    assert min(times) <= 0.05
