import math

import numpy as np
import pytest

from spingauss.errors import ValidationError
from spingauss.irreps import HalfInteger, LocalParam, rotation_unitary
from spingauss.numerics import (
    factor_difference_eigvals,
    fidelity,
    hermitian_eig,
    psd_factor,
    trace_norm,
    tridiagonal_propagator,
    unitary_exp,
)
from spingauss.oscillator import Displacement, FockTruncation, displacement_operator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_eig_diagonal_input():
    w, v = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
    np.testing.assert_allclose(w, [1.0, 3.0])
    assert abs(abs(v[1, 0]) - 1.0) < 1e-14 and abs(abs(v[0, 1]) - 1.0) < 1e-14


def test_eig_pauli_x_spectrum():
    w, _ = hermitian_eig(SX)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eig_reconstruction_oracle():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 5)
    w, v = hermitian_eig(h)
    recon = (v * w) @ v.conj().T
    assert np.linalg.norm(recon - h) <= 1e-10 * np.linalg.norm(h)
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-10


def test_eig_rejects_non_hermitian_naming_entry():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError, match=r"\(0, 1\)|\(1, 0\)"):
        hermitian_eig(bad)


def test_unitary_exp_zero_is_identity():
    np.testing.assert_allclose(unitary_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_unitary_exp_matches_closed_form_2x2():
    # one-qubit rotation at u = (0.3, 0.4): angle 0.5, phase Arg(-0.4 + 0.3i)
    ux, uy = 0.3, 0.4
    got = unitary_exp(ux * SX + uy * SY)
    r = math.hypot(ux, uy)
    phi = math.atan2(ux, -uy)
    want = np.array(
        [
            [math.cos(r), -np.exp(-1j * phi) * math.sin(r)],
            [np.exp(1j * phi) * math.sin(r), math.cos(r)],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_unitary_exp_inverse_product_oracle():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 6)
    prod = unitary_exp(h) @ unitary_exp(-h)
    assert np.abs(prod - np.eye(6)).max() < 1e-10


def test_unitary_exp_singular_values_near_one():
    rng = np.random.default_rng(3)
    for dim in (2, 17, 64):
        u = unitary_exp(random_hermitian(rng, dim))
        sv = np.linalg.svd(u, compute_uv=False)
        assert np.abs(sv - 1.0).max() < 1e-10


def test_trace_norm_diag():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)


def test_trace_norm_zero_difference():
    rng = np.random.default_rng(5)
    m = random_density(rng, 4)
    assert trace_norm(m - m) == 0.0


def test_trace_norm_pure_state_closed_form():
    # oracle: two pure states with overlap c are at distance 2 sqrt(1 - |c|^2)
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        c = np.vdot(a, b)
        got = trace_norm(np.outer(a, a.conj()) - np.outer(b, b.conj()))
        assert got == pytest.approx(2 * math.sqrt(1 - abs(c) ** 2), abs=1e-12)


def test_trace_norm_non_square_rejected():
    with pytest.raises(ValidationError):
        trace_norm(np.zeros((2, 3)))


def test_trace_norm_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_propagator_matches_dense_rotation_unitary():
    # oracle: the dense eigendecomposition route, over the rows the series
    # returns; past them the dense columns are at rounding level
    rng = np.random.default_rng(47)
    for twoj in (0, 1, 2, 9, 40, 100):
        j = HalfInteger(twoj)
        for _ in range(3):
            u = LocalParam(*rng.uniform(-1.5, 1.5, size=2))  # |u| up to 2.1
            full = rotation_unitary(j, u)
            for cols in (1, 5, j.dim):
                got = tridiagonal_propagator(
                    lambda i: np.sqrt(i * (twoj + 1.0 - i)),
                    u.norm,
                    math.atan2(u.uy, u.ux),
                    cols,
                    size=j.dim,
                )
                rows = got.shape[0]
                assert got.shape[1] == min(cols, j.dim)
                np.testing.assert_allclose(got, full[:rows, : got.shape[1]], atol=1e-12)
                assert np.abs(full[rows:, : got.shape[1]]).max(initial=0.0) < 1e-12


def test_propagator_matches_displacement_operator_columns():
    # z a^dag - z* a is the gauge of i |z| (a + a^dag) by e^{ik (arg z - pi/2)}
    rng = np.random.default_rng(53)
    for mag in (0.0, 0.4, 1.0, 2.2, 3.0):
        z = mag * np.exp(2j * math.pi * rng.uniform())
        dense = displacement_operator(Displacement(z), FockTruncation(160), pad=64).matrix
        got = tridiagonal_propagator(np.sqrt, abs(z), np.angle(z) - math.pi / 2, 12)
        rows = got.shape[0]
        assert rows < 160
        np.testing.assert_allclose(got, dense[:rows, :12], atol=1e-12)
        assert np.abs(dense[rows:, :12]).max() < 1e-12


def test_factor_trace_norm_matches_dense_trace_norm():
    rng = np.random.default_rng(59)
    for rows_f, rank_f, rows_g, rank_g in ((6, 2, 6, 3), (9, 4, 5, 1), (3, 3, 12, 5), (7, 6, 7, 6)):
        f = rng.standard_normal((rows_f, rank_f)) + 1j * rng.standard_normal((rows_f, rank_f))
        g = rng.standard_normal((rows_g, rank_g)) + 1j * rng.standard_normal((rows_g, rank_g))
        dim = max(rows_f, rows_g)
        dense = np.zeros((dim, dim), dtype=complex)
        dense[:rows_f, :rows_f] += f @ f.conj().T
        dense[:rows_g, :rows_g] -= g @ g.conj().T
        want = np.linalg.eigvalsh(dense)
        got = factor_difference_eigvals(f, g)
        # the dense spectrum is the factor spectrum padded with zeros
        np.testing.assert_allclose(
            np.sort(np.abs(got))[::-1], np.sort(np.abs(want))[::-1][: len(got)], atol=1e-11
        )
        assert np.abs(got).sum() == pytest.approx(trace_norm(dense), abs=1e-11)


def test_factor_trace_norm_identical_factors_exactly_zero():
    rng = np.random.default_rng(61)
    f = rng.standard_normal((40, 7)) + 1j * rng.standard_normal((40, 7))
    assert np.abs(factor_difference_eigvals(f, f)).sum() == 0.0
    assert np.abs(factor_difference_eigvals(f, f.copy())).sum() == 0.0


def test_psd_factor_reconstructs_state():
    rng = np.random.default_rng(67)
    rho = random_density(rng, 6)
    f = psd_factor(rho)
    np.testing.assert_allclose(f @ f.conj().T, rho, atol=1e-14)
    with pytest.raises(ValidationError):
        psd_factor(np.diag([1.1, -0.1]).astype(complex))


def test_fidelity_self_is_one():
    rng = np.random.default_rng(19)
    rho = random_density(rng, 3)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_pure_states_overlap():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    f = fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
    assert f == pytest.approx(abs(np.vdot(a, b)), abs=1e-10)


def test_fidelity_commuting_bhattacharyya_oracle():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.1, 0.2, 0.7])
    f = fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert f == pytest.approx(np.sum(np.sqrt(p * q)), abs=1e-12)


def test_fidelity_rejects_negative_eigenvalues():
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(ValidationError):
        fidelity(bad, np.diag([0.5, 0.5]).astype(complex))


def test_fuchs_van_de_graaf_on_random_qubit_pairs():
    rng = np.random.default_rng(29)
    for _ in range(40):
        rho = random_density(rng, 2)
        sig = random_density(rng, 2)
        f = fidelity(rho, sig)
        half_tn = 0.5 * trace_norm(rho - sig)
        assert 1 - f <= half_tn + 1e-8
        assert half_tn <= math.sqrt(1 - f * f) + 1e-8
