import math
from dataclasses import replace

import numpy as np
import pytest

from spingauss.errors import DomainError
from spingauss.numerics import mirror_rows
from spingauss import irreps
from spingauss.irreps import HalfInteger, LocalParam
from spingauss import qubit_model
from spingauss.qubit_model import (
    ModelParams,
    block_weight,
    block_weights,
    concentration_range,
    concentration_set,
    concentration_weight,
    discarded_weight,
    effective_rank,
    log_block_weight,
    log_multiplicity,
    multiplicity,
    occurring_range,
    rotated_blocks,
    spin_center,
    valid_spins,
)
from spingauss.numerics import trim_rows
from spingauss.reference import (
    binomial_factor,
    binomial_factor_closed_form,
    block_matrix,
    block_state,
    block_state_zero,
    ensemble,
    lab_frame,
    ladder_ops,
    rotation_unitary,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def brute_force_spectrum(n, mu):
    """Oracle: eigenvalues of the n-fold tensor power, mu^k (1-mu)^(n-k)."""
    eigs = []
    for k in range(n + 1):
        eigs.extend([mu ** k * (1 - mu) ** (n - k)] * math.comb(n, k))
    return np.sort(eigs)


def block_spectrum(n, mu):
    """Eigenvalues reassembled from (j, multiplicity, weight, block spectrum)."""
    params = ModelParams(n, mu)
    eigs = []
    for j in valid_spins(n):
        w = block_weight(params, j)
        nj = multiplicity(n, j)
        diag = np.diag(block_state_zero(params, j)).real
        for lam in diag:
            eigs.extend([w * lam / nj] * nj)
    return np.sort(eigs)


def test_multiplicity_small_cases():
    assert multiplicity(2, HalfInteger(2)) == 1
    assert multiplicity(2, HalfInteger(0)) == 1
    assert multiplicity(1, HalfInteger(1)) == 1
    # C(4,2) - C(4,1) = 6 - 4
    assert multiplicity(4, HalfInteger(0)) == 2


def test_multiplicity_path_counting_oracle():
    # oracle: count lattice paths from (0) with steps +-1 staying nonnegative,
    # ending at 2j, which is the standard multiplicity construction
    def paths(n, target):
        state = {0: 1}
        for _ in range(n):
            nxt = {}
            for pos, cnt in state.items():
                for step in (1, -1):
                    q = pos + step
                    if q >= 0:
                        nxt[q] = nxt.get(q, 0) + cnt
            state = nxt
        return state.get(target, 0)

    for n in range(1, 11):
        for j in valid_spins(n):
            assert multiplicity(n, j) == paths(n, j.twoj)


def test_multiplicity_parity_mismatch_rejected():
    with pytest.raises(DomainError):
        multiplicity(4, HalfInteger(1))
    with pytest.raises(DomainError):
        multiplicity(4, HalfInteger(6))


def test_log_multiplicity_matches_exact():
    for n in (10, 61, 200, 1000):
        for j in list(valid_spins(n))[:: max(1, n // 7)]:
            exact = multiplicity(n, j)
            rel = abs(log_multiplicity(n, j) - math.log(exact)) / max(1.0, abs(math.log(exact)))
            assert rel < 1e-12


def test_single_qubit_block_carries_all_weight():
    for mu in (0.6, 0.75, 0.9, 1.0):
        assert block_weight(ModelParams(1, mu), HalfInteger(1)) == pytest.approx(1.0, abs=1e-15)


def test_two_qubit_weights_triplet_singlet_oracle():
    # oracle: diagonalize rho0 x rho0 and project onto the singlet
    mu = 0.75
    params = ModelParams(2, mu)
    rho = np.diag([mu, 1 - mu]).astype(complex)
    joint = np.kron(rho, rho)
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    p_singlet = float((singlet @ joint @ singlet).real)
    assert block_weight(params, HalfInteger(0)) == pytest.approx(p_singlet, abs=1e-12)
    assert block_weight(params, HalfInteger(2)) == pytest.approx(1 - p_singlet, abs=1e-12)
    assert block_weight(params, HalfInteger(2)) == pytest.approx(0.8125, abs=1e-12)


def test_pure_case_single_block():
    params = ModelParams(6, 1.0)
    assert block_weight(params, HalfInteger(6)) == 1.0
    for j in valid_spins(6)[:-1]:
        assert block_weight(params, j) == 0.0


def test_weights_sum_to_one_log_space():
    for mu in (0.6, 0.75, 0.9, 1.0):
        for n in (3, 10, 100, 1000):
            total = sum(block_weight(ModelParams(n, mu), j) for j in valid_spins(n))
            assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("n", [1024, 16384, 65536])
def test_log_block_weight_matches_mpmath_at_paper_scale(n):
    # oracle: the closed form (C(n,k) - C(n,k-1)) (1-mu)^k mu^(n-k+1)
    # (1 - p^(2j+1)) / (2 mu - 1), k = n/2 - j, in 50-digit arithmetic, on
    # every block with log w > -40 (a window of 20 sqrt(n) around the centre
    # holds them all) at evenly spaced spins
    mpmath = pytest.importorskip("mpmath")
    mu = 0.75
    params = ModelParams(n, mu)
    centre, half = n * (2 * mu - 1), 20 * math.sqrt(n)
    window = [j for j in valid_spins(n) if abs(j.twoj - centre) <= half]
    logs = [log_block_weight(params, j) for j in window]
    assert window[0].twoj == n % 2 or logs[0] < -40.0
    assert window[-1].twoj == n or logs[-1] < -40.0
    heavy = [(j, lw) for j, lw in zip(window, logs) if lw > -40.0]
    m = mpmath.mpf(mu)
    p = (1 - m) / m
    with mpmath.workdps(50):
        for j, lw in heavy[:: max(1, len(heavy) // 40)] + heavy[-1:]:
            k = (n - j.twoj) // 2
            mult = mpmath.binomial(n, k) - mpmath.binomial(n, k - 1)
            w = mult * (1 - m) ** k * m ** (n - k + 1) * (1 - p ** (j.twoj + 1)) / (2 * m - 1)
            assert abs(lw - float(mpmath.log(w))) < 1e-13, j


def test_deviance_matches_mpmath_across_the_series_switch():
    # bd0(x, m) = x log(x/m) + m - x, summed as a fixed-length series below
    # |d| = 0.1 (d = (m - x)/x) and in closed form above it; both sides of
    # the switch hold a few ulps (at most 1.4e-15 measured, at d = 0.1)
    mpmath = pytest.importorskip("mpmath")
    x = np.array([1000.0, 37.0, 1.0])
    for d in (0.0, 1e-9, -1e-4, 0.05, -0.0999999, 0.0999999, 0.1, -0.1, 0.1000001, 0.5, -0.9):
        m = x * (1.0 + d)
        got = qubit_model._deviance(x, m)
        with mpmath.workdps(50):
            for xi, mi, gi in zip(x, m, got):
                xm, mm = mpmath.mpf(xi), mpmath.mpf(mi)
                want = float(xm * mpmath.log(xm / mm) + mm - xm)
                assert abs(gi - want) <= 2e-15 * abs(want), (xi, d)


def test_block_weights_table_matches_each_spin():
    # the one-pass table against the same form evaluated one spin at a time
    for n in (1, 2, 255, 1024):
        for mu in (0.6, 0.75, 1.0):
            params = ModelParams(n, mu)
            want = [min(float(np.exp(log_block_weight(params, j))), 1.0) for j in valid_spins(n)]
            assert list(qubit_model.block_weights(params)) == want


def test_binomial_factor_identity_self_consistency():
    params = ModelParams(20, 0.75)
    for j in valid_spins(20):
        got = binomial_factor(params, j)
        want = binomial_factor_closed_form(params, j)
        assert got == pytest.approx(want, abs=1e-9)


def test_binomial_factor_tends_to_one_at_center():
    for n in (100, 1000, 10000):
        params = ModelParams(n, 0.75)
        jn = spin_center(params)
        twoj = 2 * round(jn)
        if (twoj - n) % 2 != 0:
            twoj += 1
        val = binomial_factor_closed_form(params, HalfInteger(twoj))
        assert abs(val - 1.0) < 5.0 / math.sqrt(n)


def test_binomial_factor_finite_at_top_spin():
    val = binomial_factor_closed_form(ModelParams(12, 0.9), HalfInteger(12))
    assert math.isfinite(val) and val > 0


def test_concentration_set_interval_oracle():
    params = ModelParams(100, 0.75, 0.1)
    width = 100 ** 0.6
    lo, hi = 25 - width, 25 + width
    want = [HalfInteger(2 * jj) for jj in range(0, 51) if lo <= jj <= hi]
    assert list(concentration_set(params)) == want


def test_concentration_set_pure_case_contains_top():
    assert HalfInteger(40) in concentration_set(ModelParams(40, 1.0))


@pytest.mark.parametrize("mu", [0.51, 0.6, 0.75, 0.9, 1.0])
@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.25, 0.49])
def test_concentration_range_is_the_ends_of_the_set(mu, epsilon):
    # from the window's two ends alone, with the parity rounding in
    # integers, against the filter of every valid spin by the float window;
    # every n up to 300, both parities, and a few large ones
    for n in [*range(1, 301), 1023, 4096, 65537]:
        params = ModelParams(n, mu, epsilon)
        jn, width = spin_center(params), n ** (0.5 + epsilon)
        spins = [j for j in valid_spins(n) if 2.0 * (jn - width) <= j.twoj <= 2.0 * (jn + width)]
        assert concentration_range(params) == (spins[0].twoj, spins[-1].twoj)
        assert list(concentration_set(params)) == spins


def test_concentration_range_of_an_empty_set_raises():
    # the window is 4 n^(1/2+epsilon) >= 4 wide in 2j, so no valid epsilon
    # empties it; epsilon = -1, past the domain, leaves 2j in
    # [50.48, 50.52] at n = 101, which holds no integer
    params = object.__new__(ModelParams)
    for name, value in (("n", 101), ("mu", 0.75), ("epsilon", -1.0)):
        object.__setattr__(params, name, value)
    with pytest.raises(DomainError):
        concentration_set(params)
    with pytest.raises(DomainError):
        concentration_range(params)


def test_concentration_weight_grows_and_captures_mass():
    weights = [concentration_weight(ModelParams(n, 0.75, 0.1)) for n in (50, 100, 200, 400)]
    assert all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
    assert weights[-1] > 0.99
    assert weights[-1] > 1 - 10 * 400 ** -0.25


def test_block_state_zero_values():
    params = ModelParams(1, 0.75)
    np.testing.assert_allclose(
        block_state_zero(params, HalfInteger(1)), np.diag([0.75, 0.25]), atol=1e-15
    )
    pure = block_state_zero(ModelParams(4, 1.0), HalfInteger(4))
    assert pure[0, 0] == 1.0 and np.abs(pure).sum() == 1.0


def test_block_state_zero_trace_one_geometric_oracle():
    params = ModelParams(400, 0.75)
    for twoj in (0, 2, 100, 400):
        tr = np.trace(block_state_zero(params, HalfInteger(twoj))).real
        assert abs(tr - 1.0) < 1e-12


def test_block_state_rotation_preserves_spectrum():
    params = ModelParams(9, 0.8)
    j = HalfInteger(5)
    base = np.linalg.eigvalsh(block_state_zero(params, j))
    rotated = np.linalg.eigvalsh(block_state(params, j, LocalParam(0.9, -0.4)))
    np.testing.assert_allclose(base, rotated, atol=1e-10)


def test_block_state_single_qubit_closed_form_oracle():
    # oracle: conjugate diag(mu, 1-mu) by the explicit 2x2 rotation
    mu, u = 0.75, LocalParam(0.2, 0.0)
    got = block_state(ModelParams(1, mu), HalfInteger(1), u)
    r, phi = 0.2, math.atan2(0.2, 0.0)
    um = np.array(
        [
            [math.cos(r), -np.exp(-1j * phi) * math.sin(r)],
            [np.exp(1j * phi) * math.sin(r), math.cos(r)],
        ]
    )
    want = um @ np.diag([mu, 1 - mu]) @ um.conj().T
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_ensemble_single_copy_is_rotated_qubit():
    mu, u = 0.8, LocalParam(0.5, -0.3)
    ens = ensemble(ModelParams(1, mu), u)
    assert len(ens.blocks) == 1
    um = rotation_unitary(HalfInteger(1), u)
    want = um @ np.diag([mu, 1 - mu]).astype(complex) @ um.conj().T
    np.testing.assert_allclose(lab_frame(block_matrix(ens.blocks[0]), u.angle), want, atol=1e-13)


def test_rotated_block_factor_matches_dense_block_state(monkeypatch):
    # oracle: the dense conjugation; the factor drops exactly the trace it
    # reports as discarded.  With no block negligible, the walk starts at
    # 2j = 0 and reaches every block.
    monkeypatch.setattr(qubit_model, "NEGLIGIBLE_WEIGHT", 0.0)
    params = ModelParams(300, 0.75)
    u = LocalParam(0.8, -0.6)
    blocks = {b.j.twoj: b for b in ensemble(params, u).blocks}
    for twoj in (0, 10, 40, 150, 300):
        j = HalfInteger(twoj)
        b = blocks[twoj]
        assert b.weight == block_weight(params, j)
        if twoj >= 150:
            assert b.core.shape[0] < j.dim / 2
        np.testing.assert_allclose(lab_frame(block_matrix(b), u.angle), block_state(params, j, u), atol=1e-14)
        assert b.discarded == pytest.approx(1.0 - np.trace(block_matrix(b)).real, abs=1e-15)


def test_ensemble_rotates_only_occurring_blocks(monkeypatch):
    # one propagator start per (n, u), at the lowest block above
    # NEGLIGIBLE_WEIGHT; the ensemble holds exactly the blocks of that
    # contiguous range, every one with a core, and ``skipped`` is the weight
    # of every other spin.  At mu = 1 only 2j = n carries weight.
    starts = []
    original = irreps.rotation_columns

    def counting(j, radius, cols):
        starts.append(j)
        return original(j, radius, cols=cols)

    monkeypatch.setattr(irreps, "rotation_columns", counting)
    for n in (5, 16, 64):
        starts.clear()
        ens = ensemble(ModelParams(n, 1.0), LocalParam(0.6, -0.3))
        assert starts == [HalfInteger(n)]
        assert [b.j for b in ens.blocks] == [HalfInteger(n)]
        assert ens.blocks[0].weight == 1.0 and ens.skipped == 0.0
    starts.clear()
    ens = ensemble(ModelParams(16, 0.75), LocalParam(0.6, -0.3))
    assert starts == [HalfInteger(0)]
    assert [b.j for b in ens.blocks] == list(valid_spins(16)) and ens.skipped == 0.0
    # at n = 256 the lowest blocks weigh less than NEGLIGIBLE_WEIGHT, and at
    # n = 65536 all but 1617 of the 32769 spins do
    for n, lo, hi in ((256, None, None), (65536, 31144, 34376)):
        starts.clear()
        params = ModelParams(n, 0.75)
        ens = ensemble(params, LocalParam(0.6, -0.3))
        weights = dict(zip(valid_spins(n), block_weights(params)))
        held = [j for j, w in weights.items() if w > qubit_model.NEGLIGIBLE_WEIGHT]
        negligible = [w for j, w in weights.items() if w <= qubit_model.NEGLIGIBLE_WEIGHT]
        assert [b.j for b in ens.blocks] == held
        assert [b.j.twoj for b in ens.blocks] == list(range(held[0].twoj, held[-1].twoj + 1, 2))
        assert starts == [held[0]]
        assert all(b.weight == weights[b.j] and b.core.shape[1] > 0 for b in ens.blocks)
        assert ens.skipped == pytest.approx(sum(negligible), rel=1e-15)
        assert 0.0 < ens.skipped <= len(negligible) * qubit_model.NEGLIGIBLE_WEIGHT
        if lo is not None:
            assert (held[0].twoj, held[-1].twoj, len(held), len(negligible)) == (lo, hi, 1617, 31152)


def walk_trims(lo, hi, radius, cols):
    """The mass each whole step of the walk trims, from 2j = lo + 2 up: the
    steps run as a walk that returns every core at once runs them."""
    c, s = math.cos(radius), math.sin(radius)
    cs = math.sqrt(2.0) * c * s
    d1 = np.array([[c * c, -cs, s * s], [cs, c * c - s * s, -cs], [s * s, cs, c * c]])
    core = irreps.rotation_columns(HalfInteger(lo), radius, cols)
    masses = []
    for twoj in range(lo + 2, hi + 1, 2):
        core, mass = trim_rows(irreps._whole_step(core, twoj, d1, cols))
        core = core / np.sqrt(np.einsum("ij,ij->j", core, core))
        masses.append(mass)
    return masses


@pytest.mark.parametrize("n", [4096, 16384])
def test_streamed_blocks_carry_the_mass_trimmed_up_to_their_step(n):
    # at |u| = 25 the walk trims rows on some of its steps; each block's
    # ``discarded`` is its rank cut plus the mass trimmed up to its own step,
    # so it never decreases, and the last block carries the walk's total
    params, u = ModelParams(n, 0.75), LocalParam(25.0, 0.0)
    lo, hi, _ = occurring_range(params)
    masses = walk_trims(lo, hi, u.norm / math.sqrt(n), effective_rank(params.p))
    assert sum(m > 0.0 for m in masses) > 10
    running = [0.0]
    for mass in masses:
        running.append(running[-1] + mass)
    blocks = rotated_blocks(params, u, lo, hi)
    discarded = []
    for b, trimmed in zip(blocks, running, strict=True):
        assert b.discarded == discarded_weight(params.p, b.j.dim) + trimmed
        discarded.append(b.discarded)
    assert discarded == sorted(discarded)
    assert running[-1] > running[len(running) // 2] > 0.0
    assert discarded[-1] == discarded_weight(params.p, hi + 1) + running[-1]


def test_block_matrix_is_the_state_in_the_frame_of_u():
    # the stored block is exp(i psi J_z) rho_j exp(-i psi J_z), psi = u.angle,
    # and ``lab_frame`` undoes exactly that turn
    params = ModelParams(9, 0.75)
    u = LocalParam(-0.7, 0.4)
    for b in ensemble(params, u).blocks:
        turn = np.diag(np.exp(1j * u.angle * np.diag(ladder_ops(b.j)[2]).real))
        rho = block_state(params, b.j, u)
        assert b.core.dtype == np.float64
        np.testing.assert_allclose(block_matrix(b), turn @ rho @ turn.conj().T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(lab_frame(block_matrix(b), u.angle), rho, rtol=0, atol=1e-14)


def test_mirrored_ensemble_is_minus_u():
    # U_j(-w) = S U_j(w) S: the mirror is the ensemble at -u in u's frame;
    # built at -u, in its own frame, every block has the very core of u's
    params = ModelParams(12, 0.8)
    u = LocalParam(0.9, 0.5)
    plus = ensemble(params, u)
    for bp, bd in zip(plus.blocks, ensemble(params, -u).blocks):
        np.testing.assert_array_equal(bd.core, bp.core)
        bm = replace(bp, core=mirror_rows(bp.core))
        lab = lab_frame(block_matrix(bm), u.angle)
        np.testing.assert_allclose(lab, lab_frame(block_matrix(bd), (-u).angle), atol=1e-14)
        np.testing.assert_allclose(lab, block_state(params, bm.j, -u), atol=1e-14)


def test_ensemble_weights_and_traces_normalized():
    for n in (2, 7, 50, 200):
        ens = ensemble(ModelParams(n, 0.75), LocalParam(0.3, 0.3))
        total = sum(b.weight * np.trace(block_matrix(b)).real for b in ens.blocks)
        assert abs(total - 1.0) < 1e-10


def test_blocks_reproduce_tensor_spectrum_brute_force():
    for mu in (0.6, 0.75, 0.9):
        for n in (2, 3, 6):
            got = block_spectrum(n, mu)
            want = brute_force_spectrum(n, mu)
            assert len(got) == 2 ** n
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(0, 0.75)
    with pytest.raises(DomainError):
        ModelParams(4, 0.5)
    with pytest.raises(DomainError):
        ModelParams(4, 0.75, 0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_bool_is_not_a_qubit_count_or_a_spin(flag):
    # bool is an int subclass: True would build a 1-qubit model, or spin 1/2
    with pytest.raises(DomainError):
        ModelParams(flag, 0.75)
    with pytest.raises(DomainError):
        HalfInteger(flag)
    assert ModelParams(np.int64(1), 0.75).n == 1 and HalfInteger(np.int64(1)).twoj == 1
