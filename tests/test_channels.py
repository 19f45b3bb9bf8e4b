import math

import numpy as np
import pytest

from spingauss import qubit_model
from spingauss.channels import (
    EmbeddingMap,
    SweepSettings,
    _sweep_point,
    _sweep_truncation,
    coherent_vector_distance,
    composition_defect,
    convergence_sweep,
    embed_block,
    ensemble_distance,
    forward_channel,
    inverse_channel,
    inverse_channel_block,
    project_block,
)
from spingauss.errors import TruncationError
from spingauss.irreps import HalfInteger, LocalParam, rotation_unitary
from spingauss.numerics import trace_norm
from spingauss.oscillator import (
    Displacement,
    FockTruncation,
    displaced_thermal,
    displacement_amplitude,
    displacement_operator,
    thermal_state,
)
from spingauss.qubit_model import (
    NEGLIGIBLE_WEIGHT,
    ModelParams,
    block_state,
    block_state_zero,
    block_weight,
    concentration_set,
    ensemble,
    valid_spins,
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
    np.testing.assert_array_equal(out.matrix, want)


def test_embed_then_project_is_identity():
    rng = np.random.default_rng(3)
    for twoj in (0, 1, 4, 13):
        emb = EmbeddingMap(HalfInteger(twoj), FockTruncation(twoj + 9))
        rho = random_block(rng, twoj + 1)
        back = project_block(embed_block(rho, emb).matrix, emb)
        np.testing.assert_array_equal(back, rho)


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
        ).matrix
        got = trace_norm(emb - th)
        oracle = float(np.abs(np.diag(emb - th)).sum())
        assert got == pytest.approx(oracle, abs=1e-13)
        assert got == pytest.approx(2 * p ** (twoj + 1) - p ** dim, abs=1e-13)
        bound = p ** (twoj + 1) * (1 + 1 / (1 - p ** (twoj + 1)))
        assert got <= bound + 1e-13


def test_forward_channel_single_qubit():
    params = ModelParams(1, 0.7)
    out = forward_channel(ensemble(params, LocalParam(0, 0)), FockTruncation(5))
    want = np.zeros((5, 5), dtype=complex)
    want[0, 0], want[1, 1] = 0.7, 0.3
    np.testing.assert_allclose(out.matrix, want, atol=1e-15)


def test_forward_channel_trace_is_included_weight():
    params = ModelParams(12, 0.8)
    ens = ensemble(params, LocalParam(0.4, -0.1))
    full = forward_channel(ens, FockTruncation(13))
    assert np.trace(full.matrix).real == pytest.approx(1.0, abs=1e-12)
    js = concentration_set(params)
    part = forward_channel(ens, FockTruncation(13), js=js)
    want = sum(b.weight for b in ens.blocks if b.j in set(js))
    assert np.trace(part.matrix).real == pytest.approx(want, abs=1e-12)


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
    ens = inverse_channel(phi, ModelParams(1, mu))
    got = ens.blocks[0].matrix
    assert got[1, 1].real == pytest.approx((1 - p) * p, abs=1e-15)
    assert got[0, 0].real == pytest.approx(1 - p + p ** 2 - p ** dim, abs=1e-15)
    assert np.trace(got).real == pytest.approx(np.trace(phi.matrix).real, abs=1e-14)


def test_channels_preserve_trace():
    params = ModelParams(10, 0.75)
    u = LocalParam(0.6, 0.2)
    ens = ensemble(params, u)
    trunc = FockTruncation(24)
    fwd = forward_channel(ens, trunc)
    assert np.trace(fwd.matrix).real == pytest.approx(1.0, abs=1e-10)
    phi = displaced_thermal(u, 0.75, trunc)
    back = inverse_channel(phi, params)
    total = sum(b.weight * np.trace(b.matrix).real for b in back.blocks)
    assert total == pytest.approx(np.trace(phi.matrix).real, abs=1e-10)


def test_round_trip_through_both_channels():
    # one block feeds the next block's corner after the forward mixing, so the
    # composed round trip is controlled by the triangle inequality through the
    # thermal state (the inverse is a contraction blockwise)
    params = ModelParams(8, 0.75)
    u0 = LocalParam(0, 0)
    ens = ensemble(params, u0)
    trunc = FockTruncation(16)
    fwd = forward_channel(ens, trunc)
    back = inverse_channel(fwd, params)
    round_trip = ensemble_distance(ens, back)
    phi = thermal_state(params.p, trunc)
    leg_forward = trace_norm(fwd.matrix - phi.matrix)
    leg_reverse = ensemble_distance(ens, inverse_channel(phi, params))
    assert round_trip <= leg_forward + leg_reverse + 1e-12
    assert round_trip < 0.1


def test_coherent_vector_distance_zero_u():
    d = coherent_vector_distance(HalfInteger(10), LocalParam(0, 0), 20, FockTruncation(16))
    assert d == 0.0


def test_coherent_vector_distance_decreases():
    mu, u = 0.75, LocalParam(1.0, 0.0)
    vals = []
    for n in (64, 256, 1024):
        twoj = 2 * round(n * (mu - 0.5))
        if (twoj - n) % 2:
            twoj += 1
        vals.append(
            coherent_vector_distance(HalfInteger(twoj), u, n, FockTruncation(twoj + 1))
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


def test_sweep_smoke_and_structure():
    settings = SweepSettings(
        mu=0.75,
        n_values=(4, 16),
        u_grid=(LocalParam(0, 0), LocalParam(1, 1)),
        epsilon=0.1,
    )
    recs = convergence_sweep(settings)
    assert [r.n for r in recs] == [4, 16]
    for r in recs:
        assert 0 <= r.forward_sup <= 2 + 1e-9
        assert 0 <= r.reverse_sup <= 2 + 1e-9
        assert r.excluded_weight == 0.0
        assert len(r.points) == 2
    assert recs[1].forward_sup < recs[0].forward_sup


def test_sweep_forward_block_reverse_triangle_consistency():
    # per block: ||V rho V* - phi|| <= ||rho - S(phi)|| + 2 sqrt(t) + 2 t
    # with t the mass of phi outside the block image (gentle projection bound)
    params = ModelParams(16, 0.75)
    u = LocalParam(1.0, -1.0)
    trunc = FockTruncation(24)
    ens = ensemble(params, u)
    phi = displaced_thermal(u, params.mu, trunc)
    back = inverse_channel(phi, params)
    for ba, bb in zip(ens.blocks, back.blocks):
        if ba.j not in set(concentration_set(params)):
            continue
        emb = embed_block(ba.matrix, EmbeddingMap(ba.j, trunc))
        fwd = trace_norm(emb.matrix - phi.matrix)
        rev = trace_norm(ba.matrix - bb.matrix)
        t = max(0.0, np.trace(phi.matrix).real - np.trace(phi.matrix[: ba.j.dim, : ba.j.dim]).real)
        assert fwd <= rev + 2 * math.sqrt(t) + 2 * t + 1e-10


def test_sweep_restricted_reports_excluded_weight():
    # n large enough that the concentration interval actually cuts spins away
    settings = SweepSettings(
        mu=0.75,
        n_values=(100,),
        u_grid=(LocalParam(0, 0),),
        restrict_to_concentration=True,
    )
    rec = convergence_sweep(settings)[0]
    assert rec.excluded_weight > 0
    params = ModelParams(100, 0.75)
    want = 1.0 - sum(
        b.weight for b in ensemble(params, LocalParam(0, 0)).blocks
        if b.j in set(concentration_set(params))
    )
    assert rec.excluded_weight == pytest.approx(want, abs=1e-12)


def test_sweep_parallel_workers_match_serial():
    settings = SweepSettings(
        mu=0.9, n_values=(4, 8), u_grid=(LocalParam(0, 0), LocalParam(0.5, 0.5))
    )
    serial = convergence_sweep(settings)
    parallel = convergence_sweep(
        SweepSettings(
            mu=0.9,
            n_values=(4, 8),
            u_grid=(LocalParam(0, 0), LocalParam(0.5, 0.5)),
            workers=2,
        )
    )
    for a, b in zip(serial, parallel):
        assert a.forward_sup == b.forward_sup
        assert a.reverse_sup == b.reverse_sup


def test_sweep_pure_case_zero_distance_at_origin():
    settings = SweepSettings(mu=1.0, n_values=(64,), u_grid=(LocalParam(0, 0),))
    rec = convergence_sweep(settings)[0]
    # single symmetric block, exact embedding of the highest weight vector
    assert rec.forward_sup <= 1e-10


def test_sweep_weak_uniformity_over_nonzero_grid():
    # the argmax moves with |u| but the spread over the nonzero grid points
    # stays within a factor 10; u = 0 sits at the numerical floor and is
    # excluded (its distance is ~1e-13, not a scale for a ratio test)
    grid = tuple(LocalParam(float(x), float(y)) for x in (-1, 0, 1) for y in (-1, 0, 1))
    rec = convergence_sweep(SweepSettings(mu=0.75, n_values=(256,), u_grid=grid))[0]
    nonzero = [p.forward for p in rec.points if p.u.norm > 0]
    assert max(nonzero) / min(nonzero) < 10


def test_ensemble_distance_zero_and_symmetry():
    params = ModelParams(6, 0.8)
    a = ensemble(params, LocalParam(0.3, 0.1))
    b = ensemble(params, LocalParam(-0.2, 0.5))
    assert ensemble_distance(a, a) == 0.0
    assert ensemble_distance(a, b) == pytest.approx(ensemble_distance(b, a), abs=1e-14)


def dense_sweep_point(settings, n, u):
    """Oracle: the three distances from dense blocks and a padded dense phi."""
    params = ModelParams(n, settings.mu, settings.epsilon)
    dim = _sweep_truncation(settings, params).dim
    pad = 48
    p = params.p
    d_op = displacement_operator(
        Displacement(displacement_amplitude(u, settings.mu)), FockTruncation(dim + pad), pad=pad
    ).matrix
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
        emb = embed_block(rho, EmbeddingMap(j, trunc)).matrix
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
        settings = SweepSettings(mu=mu, n_values=(n,), u_grid=(u,))
        pt = _sweep_point((settings, n, u))
        want = dense_sweep_point(settings, n, u)
        got = (pt.forward, pt.block_max, pt.reverse)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert 0.0 <= pt.error_bound < 1e-12


def test_sweep_point_block_max_skips_weightless_blocks():
    # at mu = 1 only the block 2j = n carries weight; the weightless blocks of
    # the concentration set (0.224 from 2j = 202 here) must not count
    n, u = 256, LocalParam(1.0, 0.0)
    settings = SweepSettings(mu=1.0, n_values=(n,), u_grid=(u,))
    pt = _sweep_point((settings, n, u))
    want = dense_sweep_point(settings, n, u)
    np.testing.assert_allclose((pt.forward, pt.block_max, pt.reverse), want, rtol=0, atol=1e-12)
    assert pt.block_max < 0.01


def test_sweep_point_error_bound_covers_rank_cut(monkeypatch):
    # under-resolve on purpose: a coarse rank cut drops visible trace from
    # every block and from the limit state; the bound must cover the shift
    n, u = 36, LocalParam(0.8, -0.5)
    settings = SweepSettings(mu=0.75, n_values=(n,), u_grid=(u,))
    resolved = _sweep_point((settings, n, u))
    monkeypatch.setattr(qubit_model, "RANK_CUT", 1e-7)
    coarse = _sweep_point((settings, n, u))
    assert coarse.error_bound > 1e-8
    for stat in ("forward", "block_max", "reverse"):
        shift = abs(getattr(coarse, stat) - getattr(resolved, stat))
        assert shift <= coarse.error_bound
    assert max(
        abs(getattr(coarse, s) - getattr(resolved, s)) for s in ("forward", "block_max", "reverse")
    ) > 1e-9


@pytest.mark.parametrize("mu", [0.75, 1.0])
def test_sweep_point_error_bound_covers_cropped_limit_state(mu):
    # under-resolve on purpose: at --trunc 19 the limit state's factor rows
    # reach past the truncation, and cropping them moves a distance by up to
    # eps + 2 sqrt(eps) (gentle measurement), far more than the cropped trace
    # eps itself; the bound must cover the shift against --trunc 80
    n, u = 16, LocalParam(1.0, 1.0)
    coarse, fine = (
        _sweep_point((SweepSettings(mu=mu, n_values=(n,), u_grid=(u,), trunc_dim=t), n, u))
        for t in (19, 80)
    )
    for stat in ("forward", "block_max", "reverse"):
        shift = abs(getattr(coarse, stat) - getattr(fine, stat))
        assert shift <= coarse.error_bound
    assert abs(coarse.forward - fine.forward) > 1e-11
