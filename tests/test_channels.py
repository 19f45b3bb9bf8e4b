import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom

from spingauss import channels, oscillator, qubit_model
from spingauss.channels import (
    coherent_vector_distance,
    composition_defect,
    convergence_point,
    inverse_channel,
)
from spingauss.errors import DomainError
from spingauss.measurements import finite_n_discrimination
from spingauss.irreps import HalfInteger, LocalParam
from spingauss.numerics import factor_difference_eigvals, mirror_rows, trace_norm
from spingauss.oscillator import FockTruncation, displaced_thermal
from spingauss.qubit_model import (
    NEGLIGIBLE_WEIGHT,
    ModelParams,
    block_weight,
    block_weights,
    concentration_set,
    effective_rank,
    occurring_range,
    rotated_blocks,
    valid_spins,
)
from spingauss.reference import (
    EmbeddingMap,
    TruncationError,
    block_matrix,
    block_state,
    block_state_zero,
    displacement_amplitude,
    displacement_operator,
    embed_block,
    ensemble,
    ensemble_distance,
    fock_matrix,
    forward_channel,
    inverse_channel_block,
    inverse_ensemble,
    lab_frame,
    rotation_unitary,
    thermal_state,
)


def random_block(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_embed_block_single_qubit():
    emb = EmbeddingMap(HalfInteger(1), FockTruncation(6))
    out = embed_block(np.diag([0.75, 0.25]).astype(complex), emb)
    want = np.zeros((6, 6), dtype=complex)
    want[0, 0], want[1, 1] = 0.75, 0.25
    np.testing.assert_array_equal(out, want)


def test_embed_rejects_small_truncation():
    with pytest.raises(TruncationError):
        EmbeddingMap(HalfInteger(6), FockTruncation(6))


def test_embedded_zero_block_vs_thermal_diagonal_oracle():
    # both matrices are diagonal, so the trace distance is the sum of
    # |diagonal differences|: exactly 2 p^(2j+1) - p^N; the classic estimate
    # p^(2j+1) (1 + 1/(1 - p^(2j+1))) stays an upper bound
    mu, dim = 0.75, 48
    p = (1 - mu) / mu
    params = ModelParams(30, mu)
    th = thermal_state(p, FockTruncation(dim)).matrix
    for twoj in (2, 6, 12):
        emb = embed_block(
            block_state_zero(params, HalfInteger(twoj)),
            EmbeddingMap(HalfInteger(twoj), FockTruncation(dim)),
        )
        got = trace_norm(emb - th)
        oracle = float(np.abs(np.diag(emb - th)).sum())
        assert got == pytest.approx(oracle, abs=1e-13)
        assert got == pytest.approx(2 * p ** (twoj + 1) - p ** dim, abs=1e-13)
        bound = p ** (twoj + 1) * (1 + 1 / (1 - p ** (twoj + 1)))
        assert got <= bound + 1e-13


def test_forward_channel_single_qubit():
    params = ModelParams(1, 0.7)
    out = forward_channel(ensemble(params, LocalParam(0, 0)))
    want = np.zeros((5, 5), dtype=complex)
    want[0, 0], want[1, 1] = 0.7, 0.3
    np.testing.assert_allclose(fock_matrix(out, FockTruncation(5)), want, atol=1e-15)


def test_forward_channel_trace_is_included_weight():
    params = ModelParams(12, 0.8)
    ens = ensemble(params, LocalParam(0.4, -0.1))
    full = forward_channel(ens)
    assert np.trace(fock_matrix(full, FockTruncation(13))).real == pytest.approx(1.0, abs=1e-12)


def test_inverse_block_round_trip_machine_precision():
    rng = np.random.default_rng(5)
    for twoj in (0, 3, 20, 100):
        emb = EmbeddingMap(HalfInteger(twoj), FockTruncation(twoj + 17))
        rho = random_block(rng, twoj + 1)
        back = inverse_channel_block(embed_block(rho, emb), emb)
        np.testing.assert_array_equal(back, rho)


def test_inverse_block_vacuum_and_leftover_routing():
    emb = EmbeddingMap(HalfInteger(2), FockTruncation(8))
    vac = np.zeros((8, 8), dtype=complex)
    vac[0, 0] = 1.0
    out = inverse_channel_block(vac, emb)
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = 1.0
    np.testing.assert_array_equal(out, want)
    # all mass at level 2j+1 sits outside the block image and lands on |j,j>
    high = np.zeros((8, 8), dtype=complex)
    high[3, 3] = 1.0
    out = inverse_channel_block(high, emb)
    np.testing.assert_array_equal(out, want)


def test_inverse_channel_single_qubit_thermal():
    # diagonal oracle: the block keeps the first two thermal entries and the
    # tail mass beyond level 1 is routed to index 0, so the result is
    # diag(1 - p + p^2 - p^N, (1 - p) p); it tends to diag(mu, 1 - mu) only
    # in the pure limit p -> 0
    mu, dim = 0.75, 32
    p = (1 - mu) / mu
    phi = thermal_state(p, FockTruncation(dim))
    core = inverse_channel(phi, HalfInteger(1))
    got = core @ core.conj().T
    assert got[1, 1].real == pytest.approx((1 - p) * p, abs=1e-15)
    assert got[0, 0].real == pytest.approx(1 - p + p ** 2 - p ** dim, abs=1e-15)
    assert np.trace(got).real == pytest.approx(np.trace(phi.matrix).real, abs=1e-14)


@pytest.mark.parametrize("n", [128, 65536])
def test_inverse_channel_builds_the_occurring_blocks(n, monkeypatch):
    # the oracle's inverse ensemble holds the blocks ``rotated_blocks``
    # yields over ``occurring_range``, with their weights, and the same
    # skipped weight lies outside; the per-block map gives block j phi's
    # core cut to 2j + 1 rows, plus sqrt(leftover) e_0, and a block of at
    # least the core's rows the core itself.  At n = 65536 that is 1617 of
    # the 32769 spins, 2j in [31144, 34376]
    params = ModelParams(n, 0.75)
    u = LocalParam(0.6, -0.4)
    ens = ensemble(params, u)
    phi = displaced_thermal(u, params.mu)
    back = inverse_ensemble(phi, params)
    lo, hi, skipped = occurring_range(params)
    assert [(b.j, b.weight) for b in back.blocks] == [(b.j, b.weight) for b in ens.blocks]
    assert [b.j.twoj for b in back.blocks] == list(range(lo, hi + 1, 2))
    assert back.skipped == ens.skipped == skipped > 0.0
    weights = block_weights(params)
    others = [w for j, w in zip(valid_spins(n), weights) if not lo <= j.twoj <= hi]
    assert max(others) <= NEGLIGIBLE_WEIGHT < min(b.weight for b in back.blocks)
    assert skipped == pytest.approx(math.fsum(others), rel=1e-14)
    rows, cols = phi.core.shape
    row_mass = np.sum(phi.core ** 2, axis=1)
    for b in back.blocks:
        assert (b.core is phi.core) == (b.j.dim >= rows)
        np.testing.assert_array_equal(b.core[:, :cols], phi.core[: b.j.dim])
        leftover = float(row_mass[b.j.dim :].sum())
        assert b.core.shape[1] == cols + (leftover > 0.0)
        if leftover > 0.0:
            assert b.core[0, cols] == math.sqrt(leftover) and not b.core[1:, cols].any()
    if n == 65536:
        assert (lo, hi, len(back.blocks), len(others)) == (31144, 34376, 1617, 31152)
        return
    # built over every spin instead, the reverse distance moves by at most
    # the 2 * skipped the occurring blocks charge for the rest
    reverse = ensemble_distance(ens, back)
    monkeypatch.setattr(qubit_model, "NEGLIGIBLE_WEIGHT", 0.0)
    every = ensemble_distance(ensemble(params, u), inverse_ensemble(phi, params))
    assert len(inverse_ensemble(phi, params).blocks) == len(valid_spins(n))
    assert reverse - 2.0 * skipped - 1e-15 <= every <= reverse + 1e-15
    assert every < reverse


def test_channels_preserve_trace():
    params = ModelParams(10, 0.75)
    u = LocalParam(0.6, 0.2)
    ens = ensemble(params, u)
    trunc = FockTruncation(24)
    fwd = forward_channel(ens)
    assert np.trace(fock_matrix(fwd, trunc)).real == pytest.approx(1.0, abs=1e-10)
    phi = displaced_thermal(u, 0.75)
    total = sum(b.weight * float(np.sum(inverse_channel(phi, b.j) ** 2)) for b in ens.blocks)
    assert total == pytest.approx(np.trace(phi.matrix).real, abs=1e-10)


def test_round_trip_through_both_channels():
    # one block feeds the next block's corner after the forward mixing, so the
    # composed round trip is controlled by the triangle inequality through the
    # thermal state (the inverse is a contraction blockwise)
    params = ModelParams(8, 0.75)
    u0 = LocalParam(0, 0)
    ens = ensemble(params, u0)
    trunc = FockTruncation(16)
    fwd = forward_channel(ens)
    back = inverse_ensemble(fwd, params)
    round_trip = ensemble_distance(ens, back)
    phi = thermal_state(params.p, trunc)
    leg_forward = trace_norm(fock_matrix(fwd, trunc) - phi.matrix)
    leg_reverse = ensemble_distance(ens, inverse_ensemble(phi, params))
    assert round_trip <= leg_forward + leg_reverse + 1e-12
    assert round_trip < 0.1


def test_convergence_point_reads_one_block_selection(monkeypatch):
    # one ``occurring_range`` and one walk per point, wherever the names are
    # bound: the inverse channel selects no second range
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for module in (channels, qubit_model):
        spy(module, "occurring_range")
    spy(qubit_model, "rotation_walk")
    convergence_point(ModelParams(64, 0.75), LocalParam(1.0, -1.0))
    assert sorted(calls) == ["occurring_range", "rotation_walk"]


@pytest.mark.parametrize("mu, n, u", [(0.51, 64, LocalParam(0.5, 0.3)), (0.75, 64, LocalParam(3.0, 0.0)),
                                      (1.0, 16, LocalParam(3.0, 0.0)), (0.75, 64, LocalParam(0.0, 0.0)),
                                      (0.75, 64, LocalParam(1e-320, 0.0))])
def test_inverse_channel_matches_the_dense_map(mu, n, u):
    # a block of fewer rows than phi's core gets the dense block projection
    # with the leftover, always positive, at |j, j>, and keeps phi's trace;
    # a block of at least the core's rows gets the core itself; at |u| = 0
    # and 1e-320 the core is the scaled identity
    params = ModelParams(n, mu)
    phi = displaced_thermal(u, mu)
    rows = phi.core.shape[0]
    lo, hi, _ = occurring_range(params)
    short = [HalfInteger(twoj) for twoj in range(lo, hi + 1, 2) if twoj + 1 < rows]
    assert short
    dense = phi.matrix
    trace = float(np.sum(phi.core ** 2))
    for j in short:
        core = inverse_channel(phi, j)
        want = inverse_channel_block(dense, EmbeddingMap(j, phi.trunc))
        np.testing.assert_allclose(core @ core.T, want, rtol=0, atol=1e-14)
        assert float(np.sum(core ** 2)) == pytest.approx(trace, abs=1e-14)
        assert core.shape[1] == phi.core.shape[1] + 1 and core[0, -1] > 0.0
    for twoj in (rows - 1, rows, 2 * rows):
        assert inverse_channel(phi, HalfInteger(twoj)) is phi.core


def test_coherent_vector_distance_zero_u():
    d = coherent_vector_distance(HalfInteger(10), LocalParam(0, 0), 20)
    assert d == 0.0


def test_coherent_vector_distance_outside_the_coordinate_branch():
    # |u|/sqrt(n) = 2 >= pi/2: a domain error of the spin coherent
    # coordinates, not a truncation failure
    with pytest.raises(DomainError):
        coherent_vector_distance(HalfInteger(4), LocalParam(4.0, 0.0), 4)


def test_coherent_vector_distance_decreases():
    mu, u = 0.75, LocalParam(1.0, 0.0)
    vals = []
    for n in (64, 256, 1024):
        twoj = 2 * round(n * (mu - 0.5))
        if (twoj - n) % 2:
            twoj += 1
        vals.append(
            coherent_vector_distance(HalfInteger(twoj), u, n)
        )
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < vals[0] / 2


def test_composition_defect_trivial_cases():
    j = HalfInteger(16)
    assert composition_defect(j, LocalParam(0.5, 0), LocalParam(0, 0), 64) == pytest.approx(0.0, abs=1e-12)
    # parallel rotations commute exactly
    d = composition_defect(j, LocalParam(0.5, 0), LocalParam(0.8, 0), 64)
    assert d <= 1e-8


def test_composition_defect_matches_trace_norm_oracle():
    # oracle: build both projectors with full rotation matrices
    j, n = HalfInteger(9), 36
    u, v = LocalParam(0.5, 0.0), LocalParam(0.0, 0.5)
    s = 1 / math.sqrt(n)
    e0 = np.zeros(j.dim)
    e0[0] = 1.0
    ua = rotation_unitary(j, u.scaled(s))
    ub = rotation_unitary(j, v.scaled(s))
    uc = rotation_unitary(j, (u + v).scaled(s))
    psi = ua @ (ub @ e0)
    chi = uc @ e0
    want = trace_norm(np.outer(psi, psi.conj()) - np.outer(chi, chi.conj()))
    got = composition_defect(j, u, v, n)
    assert got == pytest.approx(want, abs=1e-10)


def test_composition_defect_decreases_along_n():
    mu = 0.75
    vals = []
    for n in (64, 256, 1024):
        twoj = 2 * round(n * (mu - 0.5))
        vals.append(composition_defect(HalfInteger(twoj), LocalParam(0.5, 0), LocalParam(0, 0.5), n))
    assert vals[0] > vals[1] > vals[2]


def dense_composition_defect(j, u, v, n):
    """Oracle: both pure states from dense rotations, 1 - |overlap| through
    the phase-aligned difference."""
    s = 1 / math.sqrt(n)
    e0 = np.zeros(j.dim)
    e0[0] = 1.0
    psi = rotation_unitary(j, u.scaled(s)) @ (rotation_unitary(j, v.scaled(s)) @ e0)
    chi = rotation_unitary(j, (u + v).scaled(s)) @ e0
    inner = np.vdot(chi, psi)
    one_minus = 0.5 * np.linalg.norm(psi - chi * inner / abs(inner)) ** 2
    return 2 * math.sqrt(one_minus * (1 + abs(inner)))


def test_composition_defect_matches_dense_rotations():
    rng = np.random.default_rng(11)
    for twoj in (1, 2, 5, 12, 30):
        for n in (16, 64):
            u, v = (LocalParam(*rng.uniform(-2, 2, size=2)) for _ in range(2))
            j = HalfInteger(twoj)
            got = composition_defect(j, u, v, n)
            assert got == pytest.approx(dense_composition_defect(j, u, v, n), abs=1e-13)


def grid_points(mu, n, grid):
    """``convergence_point`` at every u of ``grid``, as the command line runs it."""
    return [convergence_point(ModelParams(n, mu), u) for u in grid]


def test_sweep_smoke_and_structure():
    grid = (LocalParam(0, 0), LocalParam(1, 1))
    sups = []
    for n in (4, 16):
        points = grid_points(0.75, n, grid)
        for pt in points:
            assert 0 <= pt.forward <= 2 + 1e-9
            assert 0 <= pt.reverse <= 2 + 1e-9
        sups.append(max(pt.forward for pt in points))
    assert sups[1] < sups[0]


def test_sweep_forward_block_reverse_triangle_consistency():
    # per block: ||V rho V* - phi|| <= ||rho - S(phi)|| + 2 sqrt(t) + 2 t
    # with t the mass of phi outside the block image (gentle projection bound)
    params = ModelParams(16, 0.75)
    u = LocalParam(1.0, -1.0)
    ens = ensemble(params, u)
    phi = displaced_thermal(u, params.mu)
    dense = phi.matrix
    for ba in ens.blocks:
        if ba.j not in set(concentration_set(params)):
            continue
        emb = embed_block(block_matrix(ba), EmbeddingMap(ba.j, phi.trunc))
        fwd = trace_norm(emb - dense)
        rev = trace_norm(block_matrix(ba) - block_matrix(replace(ba, core=inverse_channel(phi, ba.j))))
        t = max(0.0, np.trace(dense).real - np.trace(dense[: ba.j.dim, : ba.j.dim]).real)
        assert fwd <= rev + 2 * math.sqrt(t) + 2 * t + 1e-10


def test_sweep_pure_case_zero_distance_at_origin():
    pt = convergence_point(ModelParams(64, 1.0), LocalParam(0, 0))
    # single symmetric block, exact embedding of the highest weight vector
    assert pt.forward <= 1e-10


def test_sweep_weak_uniformity_over_nonzero_grid():
    # the argmax moves with |u| but the spread over the nonzero grid points
    # stays within a factor 10; u = 0 sits at the numerical floor and is
    # excluded (its distance is ~1e-13, not a scale for a ratio test)
    grid = tuple(LocalParam(float(x), float(y)) for x in (-1, 0, 1) for y in (-1, 0, 1))
    nonzero = [pt.forward for u, pt in zip(grid, grid_points(0.75, 256, grid)) if u.norm > 0]
    assert max(nonzero) / min(nonzero) < 10


def test_ensemble_distance_zero_and_symmetry():
    # states built at two different u sit in two frames, so their distance is
    # the dense oracle's, on blocks put back in the fixed frame; a state and
    # its mirror share one frame, and the factor path compares them
    params = ModelParams(6, 0.8)
    ua, ub = LocalParam(0.3, 0.1), LocalParam(-0.2, 0.5)
    a, b = ensemble(params, ua), ensemble(params, ub)
    assert ensemble_distance(a, a) == 0.0

    def dense(x, ux, y, uy):
        return sum(
            bx.weight * trace_norm(lab_frame(block_matrix(bx), ux.angle) - lab_frame(block_matrix(by), uy.angle))
            for bx, by in zip(x.blocks, y.blocks)
        )

    ab = dense(a, ua, b, ub)
    assert ab > 0.1 and ab == pytest.approx(dense(b, ub, a, ua), abs=1e-14)
    a_mirror = replace(a, blocks=tuple(replace(b, core=mirror_rows(b.core)) for b in a.blocks))
    mirror = ensemble_distance(a, a_mirror)
    assert mirror == pytest.approx(dense(a, ua, ensemble(params, -ua), -ua), abs=1e-13)
    assert ensemble_distance(a_mirror, a) == pytest.approx(mirror, abs=1e-14)


def dense_convergence_point(params, u):
    """Oracle: the three distances from dense blocks and a padded dense phi,
    on every level a block or the limit core reaches."""
    n = params.n
    dim = max(n + 1, displaced_thermal(u, params.mu).core.shape[0])
    pad = 48
    p = params.p
    d_op = displacement_operator(
        displacement_amplitude(u, params.mu), FockTruncation(dim + pad), pad=pad
    )
    thermal = (1 - p) * p ** np.arange(dim + pad)
    phi = ((d_op * thermal) @ d_op.conj().T)[:dim, :dim]
    trunc = FockTruncation(dim)
    jset = set(concentration_set(params))
    fwd = np.zeros((dim, dim), dtype=complex)
    block_max = 0.0
    reverse = 0.0
    for j in valid_spins(n):
        w = block_weight(params, j)
        rho = block_state(params, j, u)
        emb = embed_block(rho, EmbeddingMap(j, trunc))
        fwd += w * emb
        if j in jset and w > NEGLIGIBLE_WEIGHT:
            block_max = max(block_max, trace_norm(emb - phi))
        if w <= NEGLIGIBLE_WEIGHT:
            reverse += 2 * w
        else:
            back = inverse_channel_block(phi, EmbeddingMap(j, trunc))
            reverse += w * trace_norm(rho - back)
    return trace_norm(fwd - phi), block_max, reverse


@pytest.mark.parametrize("mu", [0.75, 1.0])
def test_sweep_point_matches_dense_recomputation(mu):
    n = 64
    for u in (LocalParam(0.0, 0.0), LocalParam(0.7, -0.4), LocalParam(-1.0, 1.0)):
        params = ModelParams(n, mu)
        pt = convergence_point(params, u)
        want = dense_convergence_point(params, u)
        got = (pt.forward, pt.block_max, pt.reverse)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert 0.0 <= pt.error_bound < 1e-12


@pytest.mark.parametrize("mu, u", [(0.51, LocalParam(1.0, -1.0)), (0.52, LocalParam(0.3, 0.2))])
def test_sweep_point_next_to_one_half_matches_dense_recomputation(mu, u):
    # phi's core is 883 to 904 rows here, past every concentration block, so
    # block_max runs on the bracket; the dense oracle diagonalizes every
    # block, and the two agree within the error bound and the oracle's
    # rounding
    params = ModelParams(256, mu)
    pt = convergence_point(params, u)
    want = dense_convergence_point(params, u)
    for got, value in zip((pt.forward, pt.block_max, pt.reverse), want):
        assert abs(got - value) <= pt.error_bound + 1e-13


def test_sweep_point_block_max_skips_weightless_blocks():
    # at mu = 1 only the block 2j = n carries weight; the weightless blocks of
    # the concentration set (0.224 from 2j = 202 here) must not count
    params, u = ModelParams(256, 1.0), LocalParam(1.0, 0.0)
    pt = convergence_point(params, u)
    want = dense_convergence_point(params, u)
    np.testing.assert_allclose((pt.forward, pt.block_max, pt.reverse), want, rtol=0, atol=1e-12)
    assert pt.block_max < 0.01


def test_forward_corner_grows_past_the_limit_rows():
    # at |u| = 3 the top blocks reach 109 rows, past the limit core's 105,
    # so the forward corner's buffer grows while the blocks stream past
    params, u = ModelParams(256, 0.75), LocalParam(3.0, 0.0)
    lo, hi, _ = occurring_range(params)
    rows = max(b.core.shape[0] for b in rotated_blocks(params, u, lo, hi))
    assert rows > displaced_thermal(u, params.mu).core.shape[0]
    pt = convergence_point(params, u)
    want = dense_convergence_point(params, u)
    np.testing.assert_allclose((pt.forward, pt.block_max, pt.reverse), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1024, 16384, 65536])
def test_pure_rows_match_closed_forms_at_paper_scale(n):
    # at mu = 1 each ensemble is the one block 2j = n, the product state of
    # n qubits, and the limit state is the coherent vector at |z| = |u|.  The
    # +-u product states overlap by cos(2|u|/sqrt(n))^n, and the block and
    # the coherent vector by the sum of positive terms
    # ov = sum_k sqrt(C(n, k)) sin^k t cos^(n-k) t e^{-|u|^2/2} |u|^k / sqrt(k!),
    # t = |u|/sqrt(n), in their common real frame; both are pure, so the
    # distance is 2 sqrt(1 - ov^2).  Both closed forms in 50 digits
    mpmath = pytest.importorskip("mpmath")
    u = LocalParam(1.0, -1.0)
    pt = convergence_point(ModelParams(n, 1.0), u)
    risk = finite_n_discrimination(ModelParams(n, 1.0), u).risk
    with mpmath.workdps(50):
        r = mpmath.sqrt(2)
        helstrom = (1 - mpmath.sqrt(1 - mpmath.cos(2 * r / mpmath.sqrt(n)) ** (2 * n))) / 2
        t = r / mpmath.sqrt(n)
        ov = mpmath.fsum(
            mpmath.sqrt(mpmath.binomial(n, k)) * mpmath.sin(t) ** k * mpmath.cos(t) ** (n - k)
            * mpmath.exp(-r ** 2 / 2) * r ** k / mpmath.sqrt(mpmath.factorial(k))
            for k in range(80)
        )
        distance = 2 * mpmath.sqrt(1 - ov ** 2)
    assert abs(risk - float(helstrom)) <= 1e-13
    assert abs(pt.forward - float(distance)) <= 1e-13
    assert abs(pt.block_max - float(distance)) <= 1e-13
    # the coherent core reaches fewer than n + 1 rows, so the inverse
    # channel's block is the coherent vector itself, with no leftover column
    assert abs(pt.reverse - float(distance)) <= 1e-13


def test_pure_reverse_with_leftover_matches_gram_closed_form():
    # at mu = 1, n = 16, u = (3, 0) the coherent vector c at |z| = 3 reaches
    # past the 17 rows of the block 2j = 16, so the inverse channel's block is
    # c cut to 17 rows plus sqrt(L) e_0, L = P(Poisson(9) > 16).  reverse is
    # the trace norm of psi psi^T - c' c'^T - L e_0 e_0^T, psi the product
    # state: a rank-3 combination V D V^T of V = [psi, c', e_0], whose nonzero
    # eigenvalues are those of R^T D R with V^T V = R R^T, in 50 digits
    mpmath = pytest.importorskip("mpmath")
    n, u = 16, LocalParam(3.0, 0.0)
    pt = convergence_point(ModelParams(n, 1.0), u)
    with mpmath.workdps(50):
        r, t = mpmath.mpf(3), mpmath.mpf(3) / mpmath.sqrt(n)
        psi = [mpmath.sqrt(mpmath.binomial(n, k)) * mpmath.sin(t) ** k * mpmath.cos(t) ** (n - k)
               for k in range(n + 1)]
        cut = [mpmath.exp(-r ** 2 / 2) * r ** k / mpmath.sqrt(mpmath.factorial(k)) for k in range(n + 1)]
        leftover = 1 - mpmath.fsum(c ** 2 for c in cut)
        e0 = [mpmath.mpf(1)] + [mpmath.mpf(0)] * n
        vecs = (psi, cut, e0)
        gram = mpmath.matrix([[mpmath.fdot(a, b) for b in vecs] for a in vecs])
        chol = mpmath.cholesky(gram)
        core = chol.T * mpmath.diag([1, -1, -leftover]) * chol
        reverse = mpmath.fsum(abs(x) for x in mpmath.eigsy(core, eigvals_only=True))
    assert 1e-3 < leftover < 1e-1
    assert abs(pt.reverse - float(reverse)) <= 1e-13


@pytest.mark.parametrize("n", [16, 65536])
def test_diagonal_rows_at_the_origin(n):
    # at u = 0 every state is diagonal, with no rotation: block 2j keeps
    # (1 - p) p^k / (1 - p^(2j+1)), k < min(r, 2j + 1), the limit state
    # (1 - p) p^k, k < r, and the inverse channel's block is the limit's
    # first 2j + 1 weights with the rest added at k = 0.  So forward,
    # block_max and reverse are sums of absolute differences of geometric
    # weights over the blocks above NEGLIGIBLE_WEIGHT, reverse with twice the
    # weight of the others, here with block weights
    # (C(n, k) - C(n, k - 1)) (1 - mu)^k mu^(n-k+1) (1 - p^(2j+1)) / (2 mu - 1),
    # k = n/2 - j, from scipy's binomial pmf
    mu = 0.75
    params = ModelParams(n, mu)
    p, r = params.p, effective_rank(params.p)
    phi = (1 - p) * p ** np.arange(r)
    twoj = np.arange(n % 2, n + 1, 2)
    k = (n - twoj) // 2
    weights = binom.pmf(k, n, 1 - mu) * (1 - k / (n - k + 1)) * mu * (1 - p ** (twoj + 1)) / (2 * mu - 1)
    occurs = weights > NEGLIGIBLE_WEIGHT
    kept = np.arange(r) < twoj[:, None] + 1
    blocks = np.where(kept, phi / (1 - p ** (twoj[:, None] + 1.0)), 0.0)
    forward = np.abs(weights[occurs] @ blocks[occurs] - phi).sum()
    spins = {j.twoj for j in concentration_set(params)}
    measured = [i for i in np.nonzero(occurs)[0] if twoj[i] in spins]
    block_max = max(np.abs(blocks[i] - phi).sum() for i in measured)
    reverse = 2 * weights[~occurs].sum()
    for i in np.nonzero(occurs)[0]:
        back = np.where(kept[i], phi, 0.0)
        back[0] += phi[~kept[i]].sum()
        reverse += weights[i] * np.abs(blocks[i] - back).sum()
    u = LocalParam(0.0, 0.0)
    pt = convergence_point(params, u)
    assert abs(pt.forward - forward) <= 1e-13
    assert abs(pt.block_max - block_max) <= 1e-13
    assert abs(pt.reverse - reverse) <= 1e-13


@pytest.mark.parametrize("n", [1024, 65536])
def test_origin_rows_lie_within_their_error_bound(n):
    # at u = 0 and these n every occurring block matches the limit state to
    # rounding, so each distance is the skipped weight and rounding: reverse
    # reads the worst case 2 * skipped that ensemble_difference counts
    u = LocalParam(0.0, 0.0)
    pt = convergence_point(ModelParams(n, 0.75), u)
    assert pt.reverse > pt.error_bound / 2
    for stat in ("forward", "block_max", "reverse"):
        assert getattr(pt, stat) <= pt.error_bound


def test_sweep_point_error_bound_covers_rank_cut(monkeypatch):
    # under-resolve on purpose: a coarse rank cut drops visible trace from
    # every block and from the limit state; the bound must cover the shift
    params, u = ModelParams(36, 0.75), LocalParam(0.8, -0.5)
    resolved = convergence_point(params, u)
    monkeypatch.setattr(qubit_model, "RANK_CUT", 1e-7)
    coarse = convergence_point(params, u)
    assert coarse.error_bound > 1e-8
    for stat in ("forward", "block_max", "reverse"):
        shift = abs(getattr(coarse, stat) - getattr(resolved, stat))
        assert shift <= coarse.error_bound
    assert max(
        abs(getattr(coarse, s) - getattr(resolved, s)) for s in ("forward", "block_max", "reverse")
    ) > 1e-9


def test_sweep_point_error_bound_covers_skipped_blocks(monkeypatch):
    # leave visible weight unrotated on purpose: the forward distance moves
    # by at most the skipped weight, which the bound carries
    params, u = ModelParams(256, 0.75), LocalParam(1.0, -1.0)
    monkeypatch.setattr(qubit_model, "NEGLIGIBLE_WEIGHT", 0.0)
    every = convergence_point(params, u)
    monkeypatch.setattr(qubit_model, "NEGLIGIBLE_WEIGHT", 1e-6)
    coarse = convergence_point(params, u)
    ens = ensemble(params, u)
    assert ens.skipped > 1e-6
    assert coarse.error_bound >= ens.skipped
    assert forward_channel(ens).deficit >= ens.skipped
    shift = abs(coarse.forward - every.forward)
    assert every.error_bound < shift <= coarse.error_bound


@functools.lru_cache(maxsize=None)
def concentration_brackets(mu, n, u):
    """(lower, upper, exact, short) of each concentration block at (mu, n, u),
    in stream order: a short block (fewer rows than phi's core) has the
    bracket of ``channels.distance_bracket``, from inputs taken here afresh,
    and exact = its distance to phi (phi's core core^T formed once, as the
    kernel does); a long block has its reverse term three times over."""
    params = ModelParams(n, mu)
    phi = displaced_thermal(u, mu)
    g = phi.core
    gram = g @ g.T
    jset = set(concentration_set(params))
    out = []
    for b in ensemble(params, u).blocks:
        if b.j not in jset:
            continue
        reverse = float(np.abs(factor_difference_eigvals(b.core, inverse_channel(phi, b.j))).sum())
        if b.j.dim >= g.shape[0]:
            out.append((reverse, reverse, reverse, False))
            continue
        leftover = float(np.sum(g[b.j.dim :] ** 2))
        lower, upper = channels.distance_bracket(reverse, leftover, float(np.sum(b.core**2) - np.sum(g**2)))
        exact = float(np.abs(factor_difference_eigvals(b.core, g, None, gram)).sum())
        out.append((lower, upper, exact, True))
    return tuple(out)


def bracketed_calls(brackets, margin):
    """The short blocks the bracket rule diagonalizes against phi: those whose
    upper bound reaches the running maximum of the distances and lower
    bounds before them, by ``margin``."""
    seen, calls = 0.0, 0
    for lower, upper, exact, short in brackets:
        if short:
            seen = max(seen, lower)
            if upper + margin < seen:
                continue
            calls += 1
        seen = max(seen, exact)
    return calls


def counted_convergence_point(params, u, monkeypatch):
    """``convergence_point`` at (params, u), and the pair diagonalizations it made."""
    calls = []

    def counted(*args):
        calls.append(1)
        return factor_difference_eigvals(*args)

    monkeypatch.setattr(channels, "factor_difference_eigvals", counted)
    return convergence_point(params, u), len(calls)


@pytest.mark.parametrize("n", [256, 4096])
def test_sweep_point_diagonalizes_each_pair_once(n, monkeypatch):
    # every block held is diagonalized once, against its inverse-channel
    # image; a block of at least the limit core's rows gets that core itself
    # back, so only the concentration blocks of fewer rows can be
    # diagonalized again against phi, and only those the bracket does not
    # rule out; block_max is the same per-block trace norm
    u = LocalParam(1.0, -1.0)
    params = ModelParams(n, 0.75)
    pt, calls = counted_convergence_point(params, u, monkeypatch)
    ens = ensemble(params, u)
    phi = displaced_thermal(u, 0.75)
    rows = phi.core.shape[0]
    jset = set(concentration_set(params))
    measured = [b for b in ens.blocks if b.j in jset]
    short = [b for b in measured if b.j.dim < rows]
    brackets = concentration_brackets(0.75, n, u)
    assert calls == len(ens.blocks) + bracketed_calls(brackets, channels.bracket_margin(phi))
    assert (len(short) > 0) == (n == 256)
    block_max = 0.0
    for b in measured:
        eigs = factor_difference_eigvals(b.core, phi.core)
        block_max = max(block_max, float(np.abs(eigs).sum()))
    assert pt.block_max == block_max


def test_block_max_next_to_one_half_diagonalizes_few_short_blocks(monkeypatch):
    # at mu = 0.51 phi's core has 904 rows and each of the 48 short
    # concentration blocks used to be diagonalized against all of it; the
    # 2j = 0 block holds block_max, and its lower bound 2 eps rules out
    # most blocks after it
    u, params = LocalParam(1.0, -1.0), ModelParams(512, 0.51)
    pt, calls = counted_convergence_point(params, u, monkeypatch)
    brackets = concentration_brackets(0.51, 512, u)
    short = sum(b[3] for b in brackets)
    against_phi = calls - len(ensemble(params, u).blocks)
    assert against_phi == bracketed_calls(brackets, channels.bracket_margin(displaced_thermal(u, 0.51)))
    assert against_phi <= 15 < short == 48
    assert pt.block_max == max(b[2] for b in brackets)


@pytest.mark.parametrize("mu", [0.51, 0.55, 0.75, 0.9])
@pytest.mark.parametrize("n", [16, 64, 256, 512])
@pytest.mark.parametrize("u", [LocalParam(1.0, -1.0), LocalParam(3.0, 0.0), LocalParam(0.2, 0.1)])
def test_block_max_bracket_holds_block_by_block(mu, n, u):
    # each short block's distance to phi lies in its bracket, to the
    # rounding the kernel's margin allows for: where phi's trace off the
    # block is below 1e-23 the bracket closes on the distance, and rounding
    # crosses it by up to 8e-16 (mu = 0.75, n = 256, u = (3, 0))
    margin = channels.bracket_margin(displaced_thermal(u, mu))
    for lower, upper, exact, short in concentration_brackets(mu, n, u):
        if short:
            assert lower - margin <= exact <= upper + margin


def longer_run(monkeypatch, u, mu):
    """The limit state at (u, mu) from a kernel run over twice the rows
    ``displaced_thermal`` gives it."""
    support = oscillator.coherent_row_support
    with monkeypatch.context() as m:
        m.setattr(oscillator, "coherent_row_support", lambda peak: 2 * support(peak))
        return displaced_thermal(u, mu)


@pytest.mark.parametrize("ux, uy", [((0.176704, -0.783814), -0.251648), ((0.91345, -0.160437), -0.310645)])
def test_default_truncation_holds_the_limit_core(ux, uy, monkeypatch):
    # the benchmark's `blocks` grids (seeds 1 and 2) at n = 16, mu = 0.75: the
    # limit core keeps every row it reaches (a kernel run over twice the rows
    # puts every row past it below the trim), so its trace misses only the
    # rank cut, and the bounds stay at rounding level
    grid = tuple(LocalParam(x, uy) for x in ux)
    for u in grid:
        phi = displaced_thermal(u, 0.75)
        longer = longer_run(monkeypatch, u, 0.75)
        assert longer.core.shape == phi.core.shape
        np.testing.assert_allclose(longer.core, phi.core, rtol=0, atol=1e-15)
        assert float(np.sum(phi.core ** 2)) == pytest.approx(1.0 - phi.deficit, abs=1e-14)
    assert max(pt.error_bound for pt in grid_points(0.75, 16, grid)) <= 1e-14


def test_limit_state_deficit_is_its_rank_cut(monkeypatch):
    # the rank cut drops p^r of the limit state's trace, (1/3)^33 at
    # mu = 0.75, and nothing from the pure state; 1 - sum(core^2) would read
    # only rounding (the benchmark's seed 1 and 2 points)
    u = LocalParam(0.176704, -0.251648)
    assert convergence_point(ModelParams(16, 0.75), u).error_bound >= (1 / 3) ** 33
    assert displaced_thermal(u, 0.75).deficit == (1 / 3) ** 33
    pure = displaced_thermal(LocalParam(-0.160437, -0.310645), 1.0)
    assert pure.deficit == 0.0
    assert convergence_point(ModelParams(16, 1.0), u).error_bound == 0.0
    # far out the core keeps every row it reaches: a kernel run over twice
    # the rows puts every row past it below the trim
    far = displaced_thermal(LocalParam(20.0, 0.0), 0.75)
    assert longer_run(monkeypatch, LocalParam(20.0, 0.0), 0.75).core.shape == far.core.shape
    assert float(np.sum(far.core ** 2)) == pytest.approx(1.0 - far.deficit, abs=1e-12)
    # the columns are unit vectors, so the trace misses p^r by rounding alone
    for mu, ux in ((0.9, 10.0), (0.75, 20.0), (0.9, 30.0)):
        phi = displaced_thermal(LocalParam(ux, 0.0), mu)
        assert float(np.sum(phi.core ** 2)) == pytest.approx(1.0 - phi.deficit, abs=1e-15)
