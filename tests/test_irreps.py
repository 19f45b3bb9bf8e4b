import math

import numpy as np
import pytest

from spingauss.errors import DomainError
from spingauss.irreps import (
    HalfInteger,
    LocalParam,
    ladder_ops,
    rotation_columns,
    rotation_generator,
    rotation_unitary,
    spin_coherent_coords,
)


def gauged(core, psi):
    """The complex columns e^{i(r-c) psi} core[r, c] of a real core."""
    r, c = np.indices(core.shape)
    return np.exp(1j * psi * (r - c)) * core


def test_half_integer_basics():
    j = HalfInteger(3)
    assert j.value == 1.5 and j.dim == 4 and str(j) == "3/2"
    assert HalfInteger.from_value(2.0) == HalfInteger(4)
    with pytest.raises(DomainError):
        HalfInteger(-1)
    with pytest.raises(DomainError):
        HalfInteger.from_value(0.3)


def test_local_param_alpha_and_angle():
    u = LocalParam(0.3, 0.4)
    assert u.alpha == complex(-0.4, 0.3)
    assert u.angle == pytest.approx(math.atan2(0.3, -0.4))
    assert (-u).ux == -0.3 and (u + u).uy == 0.8
    assert u.scaled(0.5).norm == pytest.approx(0.25)


def test_ladder_ops_spin_half_is_pauli_over_two():
    jp, jm, jz = ladder_ops(HalfInteger(1))
    np.testing.assert_allclose(jp, [[0, 1], [0, 0]])
    np.testing.assert_allclose(jz, np.diag([0.5, -0.5]))
    np.testing.assert_allclose(jm, jp.conj().T)


def test_ladder_ops_spin_one_superdiagonal():
    # ladder amplitudes at m = 0 and m = -1 are both sqrt(2)
    jp, _, _ = ladder_ops(HalfInteger(2))
    np.testing.assert_allclose(np.diag(jp, 1), [math.sqrt(2)] * 2, atol=1e-15)


def test_ladder_commutators_algebraic_oracle():
    for twoj in range(0, 11):
        jp, jm, jz = ladder_ops(HalfInteger(twoj))
        np.testing.assert_allclose(jp @ jm - jm @ jp, 2 * jz, atol=1e-12)
        np.testing.assert_allclose(jz @ jp - jp @ jz, jp, atol=1e-12)


def test_rotation_identity_at_zero():
    u0 = LocalParam(0.0, 0.0)
    np.testing.assert_allclose(rotation_unitary(HalfInteger(7), u0), np.eye(8), atol=1e-13)


def test_rotation_matches_one_qubit_closed_form():
    u = LocalParam(0.3, 0.4)
    got = rotation_unitary(HalfInteger(1), u)
    r, phi = u.norm, u.angle
    want = np.array(
        [
            [math.cos(r), -np.exp(-1j * phi) * math.sin(r)],
            [np.exp(1j * phi) * math.sin(r), math.cos(r)],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotation_unitarity_large_j():
    rng = np.random.default_rng(31)
    for twoj in (1, 10, 41, 100):
        u = LocalParam(*rng.uniform(-1, 1, size=2))
        m = rotation_unitary(HalfInteger(twoj), u)
        assert np.abs(m @ m.conj().T - np.eye(twoj + 1)).max() < 1e-10


def test_rotation_generator_is_collective_pauli_sum():
    # restriction of sum_k (ux sx + uy sy) over two qubits to the triplet block
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    i2 = np.eye(2)
    ux, uy = 0.7, -0.2
    two_qubit = np.kron(ux * sx + uy * sy, i2) + np.kron(i2, ux * sx + uy * sy)
    # triplet basis |1,1>,|1,0>,|1,-1> in descending m
    up, dn = np.array([1, 0]), np.array([0, 1])
    basis = np.array(
        [
            np.kron(up, up),
            (np.kron(up, dn) + np.kron(dn, up)) / math.sqrt(2),
            np.kron(dn, dn),
        ]
    ).T
    want = basis.conj().T @ two_qubit @ basis
    got = rotation_generator(HalfInteger(2), LocalParam(ux, uy))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotation_columns_agree_with_full_unitary():
    rng = np.random.default_rng(37)
    for twoj in (0, 1, 2, 9, 40):
        j = HalfInteger(twoj)
        u = LocalParam(*rng.uniform(-1.5, 1.5, size=2))
        full = rotation_unitary(j, u)
        cols = gauged(rotation_columns(j, u, cols=j.dim), u.angle)
        np.testing.assert_allclose(cols, full, atol=1e-11)
        part = gauged(rotation_columns(j, u, cols=3)[:5], u.angle)
        np.testing.assert_allclose(part, full[: min(5, j.dim), : min(3, j.dim)], atol=1e-11)


def test_rotation_columns_support():
    # the columns reach only a few rows past ``cols``; past them the dense
    # unitary is at rounding level
    j, u = HalfInteger(200), LocalParam(0.05, -0.04)
    support = gauged(rotation_columns(j, u, cols=4), u.angle)
    rows = support.shape[0]
    assert rows < j.dim
    full = rotation_unitary(j, u)[:, :4]
    np.testing.assert_allclose(support, full[:rows], atol=1e-12)
    np.testing.assert_allclose(full[rows:], 0.0, atol=1e-12)


def test_rotation_columns_real_core_in_gauge_u_angle():
    # the real core and the one gauge angle psi = u.angle rebuild the dense
    # unitary, over 2j <= 100 and |u| up to 2.1
    rng = np.random.default_rng(41)
    for twoj in (0, 1, 2, 9, 40, 100):
        j = HalfInteger(twoj)
        for _ in range(3):
            u = LocalParam(*rng.uniform(-1.5, 1.5, size=2))
            core = rotation_columns(j, u, cols=j.dim)
            assert core.dtype == np.float64
            full = rotation_unitary(j, u)
            np.testing.assert_allclose(gauged(core, u.angle), full[: core.shape[0]], atol=1e-12)


def test_rotation_mirror_identity():
    # U_j(-w) = S U_j(w) S with S = diag((-1)^k)
    rng = np.random.default_rng(43)
    for twoj in (1, 4, 17, 60):
        j = HalfInteger(twoj)
        s = np.diag((-1.0) ** np.arange(j.dim))
        w = LocalParam(*rng.uniform(-1.5, 1.5, size=2))
        np.testing.assert_allclose(
            rotation_unitary(j, -w), s @ rotation_unitary(j, w) @ s, atol=1e-12
        )


def test_spin_coherent_at_zero_is_highest_weight():
    v = spin_coherent_coords(HalfInteger(6), LocalParam(0.0, 0.0))
    np.testing.assert_allclose(v, np.eye(7)[0], atol=0)


def test_spin_coherent_half_spin_derived_from_rotation():
    # oracle: apply the explicit rotation to |1/2, 1/2>
    w = LocalParam(0.7, 0.0)
    got = spin_coherent_coords(HalfInteger(1), w)
    want = rotation_unitary(HalfInteger(1), w)[:, 0]
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, [math.cos(0.7), 1j * math.sin(0.7)], atol=1e-12)


def test_spin_coherent_norm_binomial_sum_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        twoj = int(rng.integers(0, 41))
        w = LocalParam(*rng.uniform(-0.7, 0.7, size=2))
        v = spin_coherent_coords(HalfInteger(twoj), w)
        # binomial identity: sum C(2j,k) |z|^(2k) (1-|z|^2)^(2j-k) = 1
        assert abs(np.vdot(v, v).real - 1.0) < 1e-12


def test_spin_coherent_matches_rotated_highest_weight():
    rng = np.random.default_rng(43)
    for twoj in (1, 2, 17, 50, 100):
        j = HalfInteger(twoj)
        u = LocalParam(*rng.uniform(-0.7, 0.7, size=2))
        got = spin_coherent_coords(j, u)
        want = rotation_unitary(j, u)[:, 0]
        assert np.abs(got - want).max() < 1e-9


def test_spin_coherent_domain_error():
    with pytest.raises(DomainError):
        spin_coherent_coords(HalfInteger(2), LocalParam(math.pi / 2, 0.0))


def test_spin_coherent_overflow_safe_at_twoj_4000():
    v = spin_coherent_coords(HalfInteger(4000), LocalParam(0.4, 0.3))
    assert np.all(np.isfinite(v.view(float)))
    assert abs(np.vdot(v, v).real - 1.0) < 1e-10
