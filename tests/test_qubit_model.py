import math

import numpy as np
import pytest

from spingauss.errors import DomainError
from spingauss.irreps import HalfInteger, LocalParam, rotation_unitary
from spingauss import qubit_model
from spingauss.qubit_model import (
    ModelParams,
    binomial_factor,
    binomial_factor_closed_form,
    block_state,
    block_state_zero,
    block_weight,
    concentration_set,
    concentration_weight,
    ensemble,
    log_multiplicity,
    multiplicity,
    rotated_block,
    spin_center,
    valid_spins,
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
    np.testing.assert_allclose(ens.blocks[0].matrix, want, atol=1e-13)


def test_rotated_block_factor_matches_dense_block_state():
    # oracle: the dense conjugation; the factor drops exactly the trace it
    # reports as discarded
    params = ModelParams(300, 0.75)
    u = LocalParam(0.8, -0.6)
    for twoj in (0, 10, 40, 150, 300):
        j = HalfInteger(twoj)
        b = rotated_block(params, j, u)
        assert b.weight == block_weight(params, j)
        if twoj >= 150:
            assert b.factor.shape[0] < j.dim / 2
        np.testing.assert_allclose(b.matrix, block_state(params, j, u), atol=1e-14)
        assert b.discarded == pytest.approx(1.0 - np.trace(b.matrix).real, abs=1e-15)


def test_ensemble_rotates_only_occurring_blocks(monkeypatch):
    # at mu = 1 only 2j = n carries weight: one rotation per (n, u), and the
    # weightless blocks keep a zero matrix of their dimension
    calls = []
    original = qubit_model.rotation_columns

    def counting(j, u, cols):
        calls.append(j)
        return original(j, u, cols=cols)

    monkeypatch.setattr(qubit_model, "rotation_columns", counting)
    for n in (5, 16, 64):
        calls.clear()
        ens = ensemble(ModelParams(n, 1.0), LocalParam(0.6, -0.3))
        assert calls == [HalfInteger(n)]
        for b in ens.blocks[:-1]:
            assert b.weight == 0.0
            np.testing.assert_array_equal(b.matrix, np.zeros((b.j.dim, b.j.dim)))
    calls.clear()
    ensemble(ModelParams(16, 0.75), LocalParam(0.6, -0.3))
    assert len(calls) == len(valid_spins(16))


def test_mirrored_ensemble_is_minus_u():
    # U_j(-w) = S U_j(w) S: the mirror shares the gauge and equals ensemble(-u)
    params = ModelParams(12, 0.8)
    u = LocalParam(0.9, 0.5)
    plus = ensemble(params, u)
    minus = plus.mirrored()
    assert minus.u == -u and minus.psi == plus.psi
    for bm, bd in zip(minus.blocks, ensemble(params, -u).blocks):
        np.testing.assert_allclose(bm.matrix, bd.matrix, atol=1e-14)
        np.testing.assert_allclose(bm.matrix, block_state(params, bm.j, -u), atol=1e-14)


def test_ensemble_weights_and_traces_normalized():
    for n in (2, 7, 50, 200):
        ens = ensemble(ModelParams(n, 0.75), LocalParam(0.3, 0.3))
        total = sum(b.weight * np.trace(b.matrix).real for b in ens.blocks)
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
