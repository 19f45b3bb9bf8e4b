import math

import numpy as np
import pytest
from scipy.special import jv

from spingauss import reference
from spingauss.errors import ValidationError
from spingauss.irreps import HalfInteger, LocalParam
from spingauss.numerics import (
    WALK_TRIM,
    factor_difference_eigvals,
    mirror_rows,
    mirror_trace_norm,
    trace_norm,
    trim_rows,
)
from spingauss.oscillator import FockTruncation
from spingauss.reference import (
    bessel_j,
    displacement_operator,
    hermitian_eig,
    lab_frame,
    psd_factor,
    rotation_unitary,
    tridiagonal_propagator,
    unitary_exp,
)

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


def test_trace_norm_non_hermitian_rejected():
    # a nilpotent Jordan block: singular values 1 and 0, eigenvalues 0 and 0
    with pytest.raises(ValidationError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


BESSEL_X = (0.0, 1e-6, 1e-3, 0.5, 8.0, 128.0, 1250.0, 3000.0)


def bessel_orders(x):
    """Orders up to 20 transition widths past x, as ``_chebyshev_degree`` evaluates."""
    return math.ceil(x + 20.0 * x ** (1.0 / 3.0) + 40.0) + 1


def test_bessel_j_matches_mpmath():
    # oracle: 40-digit mpmath at orders across the oscillating range, the
    # turning point k = x and the decaying tail
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in BESSEL_X:
            count = bessel_orders(x)
            got = bessel_j(count, x)
            for k in {0, 1, round(x / 3), round(2 * x / 3), round(x), round(x + 10 * x ** (1 / 3)), count - 1}:
                assert abs(got[k] - float(mpmath.besselj(k, x))) <= 1e-15, (x, k)


def test_bessel_j_matches_scipy_in_the_decaying_tail():
    # past k = x, where the Chebyshev degree is decided, |J_k| decays and its
    # relative error is meaningful (below it, zeros of J_k are not)
    for x in BESSEL_X[1:]:
        k = np.arange(bessel_orders(x))
        got, want = bessel_j(len(k), x), jv(k, x)
        tail = (k >= x) & (np.abs(want) > 1e-18)
        np.testing.assert_allclose(got[tail], want[tail], rtol=1e-12, atol=0.0)


def test_chebyshev_degree_matches_scipy_degree():
    def scipy_degree(a):
        k = np.arange(math.ceil(a + 20.0 * a ** (1.0 / 3.0) + 40.0))
        return int(np.nonzero(np.abs(jv(k, a)) > reference.CHEBYSHEV_TOL)[0][-1]) + 1

    for a in np.geomspace(1e-6, 3000.0, 200):
        assert reference._chebyshev_degree(a) == scipy_degree(a), a


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
                got = lab_frame(
                    tridiagonal_propagator(
                        lambda i: np.sqrt(i * (twoj + 1.0 - i)), u.norm, cols, size=j.dim
                    ),
                    math.atan2(u.uy, u.ux) + math.pi / 2,
                )
                rows = got.shape[0]
                assert got.shape[1] == min(cols, j.dim)
                np.testing.assert_allclose(got, full[:rows, : got.shape[1]], atol=1e-12)
                assert np.abs(full[rows:, : got.shape[1]]).max(initial=0.0) < 1e-12


def test_propagator_matches_displacement_operator_columns():
    # z a^dag - z* a is the gauge of i |z| (a + a^dag) by e^{ik (arg z - pi/2)},
    # so D(z) is the real propagator in the frame of arg z
    rng = np.random.default_rng(53)
    for mag in (0.0, 0.4, 1.0, 2.2, 3.0):
        z = mag * np.exp(2j * math.pi * rng.uniform())
        dense = displacement_operator(z, FockTruncation(160), pad=64)
        got = lab_frame(tridiagonal_propagator(np.sqrt, abs(z), 12), np.angle(z))
        rows = got.shape[0]
        assert rows < 160
        np.testing.assert_allclose(got, dense[:rows, :12], atol=1e-12)
        assert np.abs(dense[rows:, :12]).max() < 1e-12


def test_propagator_chunks_sum_to_the_one_product(monkeypatch):
    # a one-byte chunk keeps three terms, so the sum is flushed and the two
    # recurrence terms carried over on every step past the third
    def off(i):
        return np.sqrt(i * (401.0 - i))

    whole = tridiagonal_propagator(off, 0.6, 5, size=401)
    assert whole.shape[0] > 100
    monkeypatch.setattr(reference, "PROPAGATOR_CHUNK_BYTES", 1)
    chunked = tridiagonal_propagator(off, 0.6, 5, size=401)
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-14)


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
    # rows within QR_ROW_RATIO of the columns: diagonalized on the rows
    f = rng.standard_normal((40, 16))
    assert np.abs(factor_difference_eigvals(f, f.copy())).sum() == 0.0


def test_factor_difference_is_frame_invariant():
    # a frame is a diagonal unitary, so two real cores put in one common
    # frame, or both mirrored (the frame moved by pi), give the real cores'
    # spectrum; the real pair is diagonalized in real arithmetic
    rng = np.random.default_rng(71)
    for rows_f, rank_f, rows_g, rank_g in ((6, 2, 6, 3), (9, 4, 5, 1), (3, 3, 12, 5), (40, 7, 35, 7)):
        # unit-trace states: F F^dag and G G^dag as density matrices
        f = rng.standard_normal((rows_f, rank_f))
        g = rng.standard_normal((rows_g, rank_g))
        f /= np.linalg.norm(f)
        g /= np.linalg.norm(g)
        want = factor_difference_eigvals(f, g)
        assert want.dtype == np.float64
        angle = rng.uniform(-math.pi, math.pi)
        framed = factor_difference_eigvals(lab_frame(f, angle), lab_frame(g, angle))
        np.testing.assert_allclose(framed, want, rtol=0, atol=1e-14)
        mirrored = factor_difference_eigvals(mirror_rows(f), mirror_rows(g))
        np.testing.assert_allclose(mirrored, want, rtol=0, atol=1e-14)
    f = lab_frame(rng.standard_normal((40, 7)), 0.4)
    assert np.abs(factor_difference_eigvals(f, f.copy())).sum() == 0.0


@pytest.mark.parametrize("dtype", [float, complex])
def test_factor_difference_both_branches_match_dense_spectrum(dtype, monkeypatch):
    # pairs with at most QR_ROW_RATIO times as many rows as [f g] has columns
    # are diagonalized on their rows, taller ones on the R of a QR; both
    # against the padded dense difference, whose extra eigenvalues are zeros
    rng = np.random.default_rng(73)

    def core(rows, cols):
        # unit Frobenius norm: F F^dag is a density matrix
        a = rng.standard_normal((rows, cols))
        a = a + 1j * rng.standard_normal((rows, cols)) if dtype is complex else a
        return a / np.linalg.norm(a)

    qr_calls = []
    qr = np.linalg.qr

    def counted_qr(*args, **kwargs):
        qr_calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    h = core(40, 6)
    pairs = [
        (core(50, 33), core(50, 33), False),  # wide, equal rows
        (core(20, 4), core(9, 30), False),  # wide, unequal rows
        (core(34, 33), core(12, 1), False),  # wide, columns = rows
        (core(40, 17), core(31, 17), False),  # rows within the ratio of the columns
        (core(40, 7), core(35, 7), True),  # tall, unequal rows
        (core(12, 2), core(30, 5), True),  # tall, the shorter core first
        (h, h @ core(6, 3), True),  # tall and rank deficient: G = F c
    ]
    for f, g, tall in pairs:
        rows = max(f.shape[0], g.shape[0])
        dense = np.zeros((rows, rows), dtype=dtype)
        dense[: f.shape[0], : f.shape[0]] += f @ f.conj().T
        dense[: g.shape[0], : g.shape[0]] -= g @ g.conj().T
        want = np.linalg.eigvalsh(dense)
        before = len(qr_calls)
        got = factor_difference_eigvals(f, g)
        assert len(qr_calls) - before == int(tall)
        assert len(got) == (f.shape[1] + g.shape[1] if tall else rows)
        padded = np.sort(np.concatenate([got, np.zeros(rows - len(got))]))
        np.testing.assert_allclose(padded, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [256, 4096])
def test_factor_difference_branches_agree_on_ensemble_pairs(n, monkeypatch):
    # the pairs a convergence point diagonalizes: each block against the
    # inverse channel's block, and against the limit core; every pair once
    # on its rows and once on the R of its QR
    from spingauss import numerics
    from spingauss.channels import inverse_channel
    from spingauss.oscillator import displaced_thermal
    from spingauss.qubit_model import ModelParams
    from spingauss.reference import ensemble

    def spectrum(f, g, ratio):
        monkeypatch.setattr(numerics, "QR_ROW_RATIO", ratio)
        return factor_difference_eigvals(f, g)

    for mu in (0.75, 1.0):
        params = ModelParams(n, mu)
        for u in (LocalParam(0.0, 0.0), LocalParam(1.0, -1.0), LocalParam(0.3, 0.2)):
            ens = ensemble(params, u)
            phi = displaced_thermal(u, mu)
            for b in ens.blocks:
                for f, g in ((b.core, inverse_channel(phi, b.j)), (b.core, phi.core)):
                    # both padded with zeros to one length
                    on_rows, on_r = spectrum(f, g, math.inf), spectrum(f, g, 0.0)
                    size = max(len(on_rows), len(on_r))
                    on_rows, on_r = (np.sort(np.pad(e, (0, size - len(e)))) for e in (on_rows, on_r))
                    assert np.abs(on_rows - on_r).max() <= 1e-13


def test_mirror_rows_flips_odd_rows():
    core = np.arange(12.0).reshape(4, 3)
    want = core * np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    np.testing.assert_array_equal(mirror_rows(core), want)


@pytest.mark.parametrize("n", [64, 4096])
def test_mirror_trace_norm_matches_generic_kernel(n):
    # a core against its mirror S F is a pair for the generic kernel too
    from spingauss.qubit_model import ModelParams
    from spingauss.reference import ensemble

    for u in (LocalParam(0.0, 0.0), LocalParam(1.0, -1.0), LocalParam(0.3, 0.2)):
        for b in ensemble(ModelParams(n, 0.75), u).blocks:
            want = np.abs(factor_difference_eigvals(b.core, mirror_rows(b.core))).sum()
            assert abs(mirror_trace_norm(b.core) - want) <= 1e-13


@pytest.mark.parametrize("u", [LocalParam(3.0, 2.0), LocalParam(1.0, -1.0)])
def test_mirror_trace_norm_matches_mpmath_on_limit_cores(u):
    # the same float core, its F_e F_o^T formed and decomposed at 40 digits
    mpmath = pytest.importorskip("mpmath")
    from spingauss.oscillator import displaced_thermal

    f = displaced_thermal(u, 0.75).core
    with mpmath.workdps(40):
        b = mpmath.matrix(f[0::2].tolist()) * mpmath.matrix(f[1::2].tolist()).T
        want = 4 * mpmath.fsum(mpmath.svd_r(b, compute_uv=False))
        assert abs(mirror_trace_norm(f) - want) <= 1e-15


def test_psd_factor_reconstructs_state():
    rng = np.random.default_rng(67)
    rho = random_density(rng, 6)
    f = psd_factor(rho)
    np.testing.assert_allclose(f @ f.conj().T, rho, atol=1e-14)
    with pytest.raises(ValidationError):
        psd_factor(np.diag([1.1, -0.1]).astype(complex))


def loop_trim_rows(core):
    """``trim_rows`` one trailing row at a time, as it was first written."""
    keep = core.shape[0]
    while keep > 1 and np.abs(core[keep - 1]).max() < WALK_TRIM:
        keep -= 1
    return core[:keep], float(np.sum(core[keep:] ** 2))


def test_trim_rows_matches_the_row_loop():
    # rows scaled from 1 down to 1e-25, so tails of every length get cut,
    # interior rows below the cut stay, and an all-small core keeps one row
    rng = np.random.default_rng(7)
    cores = [np.full((5, 3), 1e-20), np.zeros((1, 2))]
    for _ in range(500):
        rows, cols = rng.integers(1, 40), rng.integers(1, 8)
        cores.append(rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-25, 0, size=(rows, 1)))
    for core in cores:
        (got, got_mass), (want, want_mass) = trim_rows(core), loop_trim_rows(core)
        assert got.shape == want.shape and got_mass == want_mass
        assert np.array_equal(got, want)

