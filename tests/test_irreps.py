import math

import numpy as np
import pytest

from spingauss.errors import DomainError
import spingauss.irreps as irreps
from spingauss.irreps import HalfInteger, LocalParam, rotation_columns, rotation_walk, spin_coherent_coords
from spingauss.numerics import trim_rows
from spingauss.qubit_model import (
    NEGLIGIBLE_WEIGHT,
    ModelParams,
    block_weight,
    effective_rank,
    occurring_range,
    valid_spins,
)
from spingauss.reference import (
    _spin_coherent_rows,
    half_step_walk,
    lab_frame,
    ladder_ops,
    rotation_generator,
    rotation_unitary,
    tridiagonal_propagator,
)


def test_half_integer_basics():
    j = HalfInteger(3)
    assert j.value == 1.5 and j.dim == 4 and str(j) == "3/2"
    with pytest.raises(DomainError):
        HalfInteger(-1)


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
        cols = lab_frame(rotation_columns(j, u.norm, cols=j.dim), u.angle)
        np.testing.assert_allclose(cols, full, atol=1e-11)
        part = lab_frame(rotation_columns(j, u.norm, cols=3)[:5], u.angle)
        np.testing.assert_allclose(part, full[: min(5, j.dim), : min(3, j.dim)], atol=1e-11)


def test_rotation_columns_support():
    # the columns reach only a few rows past ``cols``; past them the dense
    # unitary is at rounding level
    j, u = HalfInteger(200), LocalParam(0.05, -0.04)
    support = lab_frame(rotation_columns(j, u.norm, cols=4), u.angle)
    rows = support.shape[0]
    assert rows < j.dim
    full = rotation_unitary(j, u)[:, :4]
    np.testing.assert_allclose(support, full[:rows], atol=1e-12)
    np.testing.assert_allclose(full[rows:], 0.0, atol=1e-12)


def test_rotation_columns_real_core_in_gauge_u_angle():
    # the real core in u's frame, with the frame phase put back, rebuilds
    # the dense unitary, over 2j <= 100 and |u| up to 2.1
    rng = np.random.default_rng(41)
    for twoj in (0, 1, 2, 9, 40, 100):
        j = HalfInteger(twoj)
        for _ in range(3):
            u = LocalParam(*rng.uniform(-1.5, 1.5, size=2))
            core = rotation_columns(j, u.norm, cols=j.dim)
            assert core.dtype == np.float64
            full = rotation_unitary(j, u)
            np.testing.assert_allclose(lab_frame(core, u.angle), full[: core.shape[0]], atol=1e-12)


def padded(core, rows):
    """``core`` with zero rows appended up to ``rows``."""
    return np.pad(core, ((0, rows - core.shape[0]), (0, 0)))


def unit_columns(core):
    """Largest distance of a column norm of ``core`` from 1."""
    return float(np.abs(np.sqrt(np.einsum("ij,ij->j", core, core)) - 1.0).max())


@pytest.mark.parametrize("twoj", [1, 2, 64, 1024, 16384, 65536])
def test_rotation_columns_match_the_propagator(twoj):
    # the Krawtchouk recurrence against the Chebyshev propagator oracle, at
    # w = |u| / sqrt(2 * 2j) with the rank of mu = 0.75; at 2j = 1 and 2 the
    # large |u| take w past pi/4, pi/2 and pi, through every reduction
    j = HalfInteger(twoj)
    cols = min(33, j.dim)
    for radius in (0.01, 0.05, 0.3, 1.41, 5.0, 25.0):
        w = radius / math.sqrt(2 * twoj)
        got = rotation_columns(j, w, cols)
        want = tridiagonal_propagator(lambda i: np.sqrt(i * (twoj + 1.0 - i)), w, cols, size=j.dim)
        rows = max(got.shape[0], want.shape[0])
        np.testing.assert_allclose(padded(got, rows), padded(want, rows), rtol=0, atol=1e-13)
        assert unit_columns(got) <= 1e-14


def test_rotation_columns_match_dense_past_pi_over_four():
    # above sin^2 w = 1/2 the recurrence runs at pi/2 - w and the rows are
    # reversed; past pi/2 and pi the mirror and the sign come in too
    for twoj in (1, 2, 5, 64):
        j = HalfInteger(twoj)
        for w in (1.2, 2.0, 3.0, 4.0):
            u = LocalParam(w, 0.0)
            core = rotation_columns(j, w, j.dim)
            assert core.shape == (j.dim, j.dim)
            np.testing.assert_allclose(lab_frame(core, u.angle), rotation_unitary(j, u), rtol=0, atol=1e-12)
            assert unit_columns(core) <= 1e-14


def test_rotation_columns_where_the_start_column_underflows():
    # at w = 1e-4 the spin coherent vector falls below the smallest double
    # by row 95, yet the diagonal of every column is O(1): each row carries
    # its own binary exponent through the recurrence
    j, w = HalfInteger(1024), 1e-4
    got = rotation_columns(j, w, 200)
    want = tridiagonal_propagator(lambda i: np.sqrt(i * (1025.0 - i)), w, 200, size=j.dim)
    rows = max(got.shape[0], want.shape[0])
    np.testing.assert_allclose(padded(got, rows), padded(want, rows), rtol=0, atol=1e-13)
    assert np.diag(got).min() > 0.99


# radii down to the least subnormal double; from about 1e-306 on the
# recurrence would divide by a subnormal coupling and overflow
VANISHING_RADII = [10.0 ** -k for k in range(290, 324)] + [5e-324]


@pytest.mark.parametrize("radius", VANISHING_RADII)
def test_rotation_columns_at_a_vanishing_radius_are_the_identity(radius):
    for twoj, cols in ((1, 2), (16, 17), (256, 33), (1024, 200)):
        core = rotation_columns(HalfInteger(twoj), radius, cols)
        np.testing.assert_allclose(core, np.eye(cols), rtol=0, atol=1e-280)


@pytest.mark.parametrize("radius", [1e-300, 1e-200, 1e-20])
def test_rotation_columns_at_a_tiny_radius_still_run_the_recurrence(radius):
    # the identity takes over only below the radii the recurrence can run:
    # at 1e-300 column 0 is still sqrt(2j) sin w cos^(2j-1) w on row 1
    core = rotation_columns(HalfInteger(16), radius, 17)
    assert core[1, 0] == pytest.approx(4.0 * radius, rel=1e-14)
    assert core[0, 1] == -core[1, 0]


def walk(lo, hi, radius, cols):
    """Every core ``rotation_walk`` yields, as one list, and the mass trimmed
    over the whole walk."""
    steps = list(rotation_walk(lo, hi, radius, cols))
    return [core for core, _ in steps], steps[-1][1]


def test_rotation_walk_matches_dense_rotation():
    # every 2j <= 12 from starts 2j = 0 .. 5, with as many columns as the
    # blocks have, fewer, and more (the walk caps them at 2j + 1)
    rng = np.random.default_rng(59)
    for lo in range(6):
        hi = 12 - (12 - lo) % 2
        for cols in (1, 4, 20):
            u = LocalParam(*rng.uniform(-1.5, 1.5, size=2))
            cores, trimmed = walk(lo, hi, u.norm, cols)
            assert len(cores) == (hi - lo) // 2 + 1
            assert trimmed < 1e-30
            for twoj, core in zip(range(lo, hi + 1, 2), cores):
                j = HalfInteger(twoj)
                assert core.dtype == np.float64
                assert core.shape[0] <= j.dim and core.shape[1] == min(cols, j.dim)
                full = rotation_unitary(j, u)[:, : core.shape[1]]
                np.testing.assert_allclose(lab_frame(padded(core, j.dim), u.angle), full, rtol=0, atol=1e-13)


def test_rotation_walk_of_one_block_is_the_propagator():
    u = LocalParam(0.7, -0.2)
    cores, trimmed = walk(9, 9, u.norm, 4)
    np.testing.assert_array_equal(cores[0], rotation_columns(HalfInteger(9), u.norm, cols=4))
    assert trimmed == 0.0
    with pytest.raises(DomainError):
        rotation_walk(4, 7, u.norm, 4)


@pytest.mark.parametrize("n", [1024, 16384])
@pytest.mark.parametrize("radius", [0.3, 1.41, 25.0])
def test_rotation_walk_matches_propagator_over_included_blocks(n, radius):
    # the walk over the blocks an ensemble rotates at mu = 0.75 (weight above
    # NEGLIGIBLE_WEIGHT), against each sampled block's own kernel call; the
    # walk's rounding gathers with the steps, so the last block is sampled
    params = ModelParams(n, 0.75)
    included = [j for j in valid_spins(n) if block_weight(params, j) > NEGLIGIBLE_WEIGHT]
    w = radius / math.sqrt(n)
    cols = effective_rank(params.p)
    cores, trimmed = walk(included[0].twoj, included[-1].twoj, w, cols)
    assert len(cores) == len(included)
    assert trimmed < 1e-30
    for k in (0, len(included) // 3, 2 * len(included) // 3, len(included) - 1):
        want = rotation_columns(included[k], w, cols)
        rows = max(want.shape[0], cores[k].shape[0])
        np.testing.assert_allclose(padded(cores[k], rows), padded(want, rows), rtol=0, atol=1e-13)


def assert_cores_agree(got, want):
    rows = max(got.shape[0], want.shape[0])
    assert got.shape[1] == want.shape[1]
    np.testing.assert_allclose(padded(got, rows), padded(want, rows), rtol=0, atol=1e-13)


@pytest.mark.parametrize("lo", [0, 1, 6, 9])
@pytest.mark.parametrize("w", [1e-6, 0.05, 0.7, 1.2, 1.5])
def test_rotation_walk_matches_each_block_and_the_half_step_walk(lo, w):
    # 20 columns > 2 lo + 1, so the width grows during the walk; the
    # half-step oracle starts from the same core, and at lo = 0 also from
    # the bare 1 x 1 core of spin 0, with no kernel call at all
    hi, cols = lo + 40, 20
    cores, trimmed = walk(lo, hi, w, cols)
    start = rotation_columns(HalfInteger(lo), w, cols)
    oracle, oracle_trimmed = half_step_walk(start, lo, hi, w, cols)
    assert len(cores) == len(oracle) == (hi - lo) // 2 + 1
    assert trimmed < 1e-30 and oracle_trimmed < 1e-30
    for twoj, core, old in zip(range(lo, hi + 1, 2), cores, oracle):
        assert core.shape[1] == min(cols, twoj + 1)
        assert_cores_agree(core, rotation_columns(HalfInteger(twoj), w, cols))
        assert_cores_agree(core, old)
    if lo == 0:
        bare, _ = half_step_walk(np.ones((1, 1)), 0, hi, w, cols)
        for core, old in zip(cores, bare):
            assert_cores_agree(core, old)


def test_rotation_walk_matches_each_block_at_n_65536():
    # the range an ensemble rotates at n = 65536, mu = 0.75: 1616 whole
    # steps, checked where the rounding has gathered most
    params = ModelParams(65536, 0.75)
    lo, hi, _ = occurring_range(params)
    w, cols = 1.41 / 256, effective_rank(params.p)
    cores, trimmed = walk(lo, hi, w, cols)
    oracle, _ = half_step_walk(rotation_columns(HalfInteger(lo), w, cols), lo, hi, w, cols)
    assert len(cores) == len(oracle) == (hi - lo) // 2 + 1
    assert trimmed < 1e-30
    for k in (len(cores) // 2, len(cores) - 1):
        assert_cores_agree(cores[k], rotation_columns(HalfInteger(lo + 2 * k), w, cols))
        assert_cores_agree(cores[k], oracle[k])


@pytest.mark.parametrize("lo, hi", [(0, 0), (7, 7), (0, 12), (5, 17), (296, 712)])
def test_rotation_walk_takes_one_step_per_kept_spin(monkeypatch, lo, hi):
    steps = []
    step = irreps._whole_step

    def spy(prev, twoj, *args):
        steps.append(twoj)
        return step(prev, twoj, *args)

    monkeypatch.setattr(irreps, "_whole_step", spy)
    stream = rotation_walk(lo, hi, 0.02, 33)
    assert steps == []
    next(stream)
    assert steps == []
    for k, _ in enumerate(stream, 1):
        # one step per core, taken when that core is asked for
        assert steps == list(range(lo + 2, lo + 2 * k + 1, 2))
    assert steps == list(range(lo + 2, hi + 1, 2))


def per_step_walk(lo, hi, radius, cols):
    """The cores and trimmed masses of ``rotation_walk``, with each step
    forming its own coupling factors alpha, as every step did before a
    stretch of steps shared one table."""
    c, s = math.cos(radius), math.sin(radius)
    cs = math.sqrt(2.0) * c * s
    d1 = np.array([[c * c, -cs, s * s], [cs, c * c - s * s, -cs], [s * s, cs, c * c]])
    core, trimmed = rotation_columns(HalfInteger(lo), radius, cols), 0.0
    steps = [(core, trimmed)]
    for twoj in range(lo + 2, hi + 1, 2):
        x = np.arange(max(core.shape[0] + 2, min(cols, twoj + 1)))
        tx = twoj - x
        alpha = np.sqrt(np.array([tx * (tx - 1), 2 * x * tx, x * (x - 1)]) / (twoj * (twoj - 1.0)))
        core, mass = trim_rows(irreps._whole_step(core, twoj, d1, cols, alpha))
        core = core / np.sqrt(np.einsum("ij,ij->j", core, core))
        trimmed += mass
        steps.append((core, trimmed))
    return steps


@pytest.mark.parametrize(
    "lo, hi, radius, cols",
    [
        (7, 7, 0.3, 4),  # lo = hi: the kernel call alone
        (0, 2, 0.3, 3),  # one step, from the 1 x 1 core of spin 0
        (0, 130, 0.05, 20),  # several stretches; the first core is narrower than cols
        (0, 14, 0.3, 6),  # the first stretch alone: lo's core and 7 steps
        (0, 16, 0.3, 6),  # the first stretch and one step more
        (3, 33, 0.4, 12),  # two whole stretches
        (1, 101, 1.2, 40),
        (0, 200, 0.7, 1),  # one column
        (296, 712, 0.02, 33),  # 208 steps, the last stretch partial
        (1628, 2454, 25.0 / 64, 33),  # n = 4096, |u| = 25: steps that trim rows
    ],
)
def test_rotation_walk_is_the_per_step_walk_bit_for_bit(lo, hi, radius, cols):
    got = list(rotation_walk(lo, hi, radius, cols))
    want = per_step_walk(lo, hi, radius, cols)
    assert len(got) == len(want) == (hi - lo) // 2 + 1
    for (core, trimmed), (old, old_trimmed) in zip(got, want):
        assert core.shape == old.shape and np.array_equal(core, old) and trimmed == old_trimmed


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


@pytest.mark.parametrize("twoj", [1, 17, 100, 4000, 65536])
def test_spin_coherent_matches_closed_form(twoj):
    # the rotation column against the binomial closed form, which shares no
    # code with the column kernel
    w = LocalParam(0.4, 0.3)
    got = spin_coherent_coords(HalfInteger(twoj), w)
    want = _spin_coherent_rows(twoj, np.array([w.ux]), np.array([w.uy]), twoj + 1)[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
