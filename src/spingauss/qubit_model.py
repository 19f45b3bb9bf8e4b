"""The n-qubit statistical family in its Schur-Weyl block form.

An ensemble of n qubits, each in the rotated state U(u/sqrt(n)) diag(mu, 1-mu)
U(u/sqrt(n))^dag, is permutation invariant and block-diagonalizes over total
spin j.  This module provides the block weights, multiplicities, block density
matrices and the concentration set of spins that carries asymptotically all of
the weight.

Rotated blocks are stored as low-rank factors: the unrotated block has
spectrum proportional to p^k, so the eigenvalues below RANK_CUT are dropped
and rho_j ~ F F^dag with F the rotated leading columns scaled by the square
roots of the kept eigenvalues.  The dropped trace is recorded per block.
F is kept as a real core under the diagonal phase e^{ik psi} with psi =
u.angle, shared by every block of an ensemble (``irreps.rotation_columns``).

All weights are computed in log space and exponentiated only at the end;
multiplicities and mu-powers overflow or underflow for n beyond a few hundred
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from scipy.special import gammaln

import numpy as np

from .errors import DomainError, ValidationError
from .irreps import HalfInteger, LocalParam, rotation_columns, rotation_unitary
from .numerics import factor_difference_eigvals, gauge_phases, mirror_rows

# Eigenvalues of a geometric spectrum below this fraction are dropped from the
# low-rank factors; for p = 1/3 that keeps 33 of them.
RANK_CUT = 1e-15
# Blocks whose weight is below this cannot move any reported distance above
# the 1e-10 test tolerances; they are skipped and bounded by the worst case.
NEGLIGIBLE_WEIGHT = 1e-14


@dataclass(frozen=True)
class ModelParams:
    """Ensemble size n, larger eigenvalue mu, concentration exponent epsilon."""

    n: int
    mu: float
    epsilon: float = 0.1

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not 0.5 < self.mu <= 1.0:
            raise DomainError(f"mu must lie in (1/2, 1], got {self.mu!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise DomainError(f"epsilon must lie in (0, 1/2), got {self.epsilon!r}")

    @property
    def p(self) -> float:
        """Eigenvalue ratio (1 - mu)/mu in [0, 1)."""
        return (1.0 - self.mu) / self.mu


@dataclass(frozen=True)
class BlockState:
    """One spin-j summand: its weight and a factor of its density matrix.

    The factor is F = diag(e^{ik psi}) core with rho_j = F F^dag up to the
    trace ``discarded`` that the rank cut dropped; ``core`` holds only the
    leading rows, which are the nonzero ones, of the (2j+1)-dimensional
    block.  A block that does not occur in the state (weight exactly 0) is
    not rotated: its core has no columns.
    """

    j: HalfInteger
    weight: float
    core: np.ndarray
    psi: float = 0.0
    discarded: float = 0.0

    @property
    def factor(self) -> np.ndarray:
        """The complex factor F, rebuilt on every access."""
        return gauge_phases(self.psi, self.core.shape[0])[:, None] * self.core

    @property
    def matrix(self) -> np.ndarray:
        """The dense (2j+1)-dimensional F F^dag, rebuilt on every access."""
        d = self.j.dim
        rows = self.core.shape[0]
        out = np.zeros((d, d), dtype=complex)
        f = self.factor
        out[:rows, :rows] = f @ f.conj().T
        return out

    def mirrored(self) -> "BlockState":
        """The block at -u: U_j(-w) = S U_j(w) S with S = diag((-1)^k)."""
        return replace(self, core=mirror_rows(self.core))


@dataclass(frozen=True)
class EnsembleState:
    """Full block-diagonal ensemble state: parameters plus all spin blocks.

    Every block carries the same gauge angle ``psi``.
    """

    params: ModelParams
    u: LocalParam
    blocks: tuple[BlockState, ...]

    def __post_init__(self):
        if any(b.psi != self.blocks[0].psi for b in self.blocks):
            raise ValidationError("the blocks of an ensemble must share one gauge angle")

    @property
    def psi(self) -> float:
        return self.blocks[0].psi

    def weights(self) -> np.ndarray:
        return np.array([b.weight for b in self.blocks])

    def spins(self) -> tuple[HalfInteger, ...]:
        return tuple(b.j for b in self.blocks)

    def mirrored(self) -> "EnsembleState":
        """The ensemble at -u, as the row sign flip of every block's core."""
        return EnsembleState(self.params, -self.u, tuple(b.mirrored() for b in self.blocks))


def valid_spins(n: int) -> tuple[HalfInteger, ...]:
    """All total spins compatible with n qubits, ascending (2j runs n mod 2 .. n)."""
    return tuple(HalfInteger(tj) for tj in range(n % 2, n + 1, 2))


def _check_spin(n: int, j: HalfInteger) -> None:
    if j.twoj > n:
        raise DomainError(f"spin {j} exceeds n/2 = {n / 2}")
    if (n - j.twoj) % 2 != 0:
        raise DomainError(f"spin {j} has wrong parity for n = {n}")


def spin_center(params: ModelParams) -> float:
    """Center n(mu - 1/2) of the block-weight distribution."""
    return params.n * (params.mu - 0.5)


def multiplicity(n: int, j: HalfInteger) -> int:
    """Multiplicity of the spin-j block, C(n, n/2-j) - C(n, n/2-j-1), exactly.

    Python integers make the binomial difference exact for any n; the log-space
    companion below is what the weight computation actually uses.
    """
    _check_spin(n, j)
    k = (n - j.twoj) // 2
    second = math.comb(n, k - 1) if k >= 1 else 0
    return math.comb(n, k) - second


def log_multiplicity(n: int, j: HalfInteger) -> float:
    """log of the multiplicity, via the cancellation-free product form.

    The binomial difference equals C(n, n/2-j) * (2j+1)/(n/2+j+1), so no
    log-space subtraction is needed.
    """
    _check_spin(n, j)
    k = (n - j.twoj) // 2
    logbin = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return logbin + math.log(j.twoj + 1) - math.log(n / 2.0 + j.value + 1)


def log_block_weight(params: ModelParams, j: HalfInteger) -> float:
    """log of the block weight; -inf where the weight vanishes (mu = 1, j < n/2)."""
    _check_spin(params.n, j)
    n, mu = params.n, params.mu
    if mu == 1.0:
        # pure product state lives entirely in the symmetric block
        return 0.0 if j.twoj == n else -math.inf
    p = params.p
    half_minus = (n - j.twoj) / 2.0
    half_plus = (n + j.twoj) / 2.0
    logw = (
        log_multiplicity(n, j)
        - math.log(2.0 * mu - 1.0)
        + half_minus * math.log(1.0 - mu)
        + (half_plus + 1.0) * math.log(mu)
    )
    t = (j.twoj + 1) * math.log(p)
    if t > -700.0:
        logw += math.log1p(-math.exp(t))
    return logw


def block_weight(params: ModelParams, j: HalfInteger) -> float:
    """Probability weight of the spin-j block, in [0, 1]."""
    logw = log_block_weight(params, j)
    if logw == -math.inf:
        return 0.0
    return min(math.exp(logw), 1.0)


def binomial_factor(params: ModelParams, j: HalfInteger) -> float:
    """Ratio of the block weight to the binomial mass B_{n,mu}(n/2+j).

    Recomputed from the two log-space quantities; the closed form below is the
    independent route the tests compare against.
    """
    if params.mu == 1.0:
        raise DomainError("binomial factor needs mu < 1")
    n, mu = params.n, params.mu
    half_plus = (n + j.twoj) / 2.0
    logbin = gammaln(n + 1) - gammaln(half_plus + 1) - gammaln(n - half_plus + 1)
    log_b = logbin + half_plus * math.log(mu) + (n - half_plus) * math.log(1.0 - mu)
    return math.exp(log_block_weight(params, j) - log_b)


def binomial_factor_closed_form(params: ModelParams, j: HalfInteger) -> float:
    """The correction factor in closed form, finite and positive for valid (n, j)."""
    if params.mu == 1.0:
        raise DomainError("binomial factor needs mu < 1")
    n, mu, p = params.n, params.mu, params.p
    jn = spin_center(params)
    t = (j.twoj + 1) * math.log(p) if p > 0 else -math.inf
    tail = -math.expm1(t) if t > -700.0 else 1.0
    num = n + (2.0 * (j.value - jn) + 1.0) / (2.0 * mu - 1.0)
    den = n + (j.value - jn + 1.0) / mu
    return tail * num / den


def concentration_set(params: ModelParams) -> tuple[HalfInteger, ...]:
    """Parity-valid spins within n^(1/2+epsilon) of the center n(mu - 1/2)."""
    jn = spin_center(params)
    width = params.n ** (0.5 + params.epsilon)
    lo, hi = 2.0 * (jn - width), 2.0 * (jn + width)
    spins = tuple(j for j in valid_spins(params.n) if lo <= j.twoj <= hi)
    if not spins:
        raise DomainError("empty concentration set; epsilon too small for this n")
    return spins


def concentration_weight(params: ModelParams) -> float:
    """Total block weight carried by the concentration set."""
    return float(sum(block_weight(params, j) for j in concentration_set(params)))


def effective_rank(p: float, dim: int | None = None) -> int:
    """Number of eigenvalues p^k kept above RANK_CUT, at most ``dim``."""
    rank = 1 if p == 0.0 else math.ceil(math.log(RANK_CUT) / math.log(p)) + 1
    return rank if dim is None else min(dim, rank)


def block_spectrum(p: float, dim: int, count: int | None = None) -> np.ndarray:
    """Leading ``count`` eigenvalues (1-p) p^k / (1 - p^dim) of an unrotated block."""
    count = dim if count is None else count
    if p == 0.0:
        out = np.zeros(count)
        out[0] = 1.0
        return out
    c = (1.0 - p) / (1.0 - p ** dim)
    return c * p ** np.arange(count)


def discarded_weight(p: float, dim: int) -> float:
    """Trace the rank cut drops from a block: (p^r - p^dim) / (1 - p^dim)."""
    r = effective_rank(p, dim)
    if r == dim:
        return 0.0
    return (p ** r - p ** dim) / (1.0 - p ** dim)


def block_state_zero(params: ModelParams, j: HalfInteger) -> np.ndarray:
    """Unrotated spin-j block: diagonal entries proportional to p^k, descending m."""
    _check_spin(params.n, j)
    return np.diag(block_spectrum(params.p, j.dim)).astype(complex)


def block_state(params: ModelParams, j: HalfInteger, u: LocalParam) -> np.ndarray:
    """Rotated spin-j block U_j(u/sqrt(n)) rho0_j U_j(u/sqrt(n))^dag.

    Dense reference for ``rotated_block``: one eigendecomposition and two
    (2j+1)^3 products.
    """
    rho0 = block_state_zero(params, j)
    if u.norm == 0.0:
        return rho0
    um = rotation_unitary(j, u.scaled(1.0 / math.sqrt(params.n)))
    return um @ rho0 @ um.conj().T


def rotated_block(params: ModelParams, j: HalfInteger, u: LocalParam) -> BlockState:
    """The rotated spin-j block in factor form, with its weight."""
    weight = block_weight(params, j)
    p, d = params.p, j.dim
    r = effective_rank(p, d)
    cols = rotation_columns(j, u.scaled(1.0 / math.sqrt(params.n)), cols=r)
    core = cols * np.sqrt(block_spectrum(p, d, r))[None, :]
    return BlockState(j, weight, core, u.angle, discarded_weight(p, d))


def ensemble(params: ModelParams, u: LocalParam) -> EnsembleState:
    """The full block-diagonal ensemble state for local parameter u.

    Blocks of weight exactly 0 (at mu = 1, every block but 2j = n) do not
    occur in the state and are not rotated: their core is empty, so their
    matrix is zero.
    """
    empty = np.zeros((0, 0))
    blocks = tuple(
        rotated_block(params, j, u)
        if block_weight(params, j) > 0.0
        else BlockState(j, 0.0, empty, u.angle)
        for j in valid_spins(params.n)
    )
    return EnsembleState(params, u, blocks)


@dataclass(frozen=True)
class EnsembleDifference:
    """Blockwise spectrum summary of the difference of two ensembles."""

    trace_norm: float    # includes the worst case 2 * skipped
    positive_rank: int   # positive eigenvalues over the diagonalized blocks
    skipped: float       # weight of the blocks at or below NEGLIGIBLE_WEIGHT
    discarded: float     # sum of weight * (discarded_a + discarded_b)


def ensemble_difference(a: EnsembleState, b: EnsembleState) -> EnsembleDifference:
    """Weighted sum of block trace norms of a - b.

    Both states must carry the same (n, mu), hence the same weights, and the
    multiplicity spaces cancel.  Each block is diagonalized on the span of its
    two factors; blocks of negligible weight are skipped and counted at the
    worst case 2 * weight.  ``discarded`` bounds how far the rank cuts can
    move the trace norm.
    """
    if a.params.n != b.params.n or a.params.mu != b.params.mu:
        raise ValidationError("ensembles must share block structure (same n, mu)")
    total = 0.0
    rank = 0
    skipped = 0.0
    discarded = 0.0
    for ba, bb in zip(a.blocks, b.blocks):
        if ba.weight <= NEGLIGIBLE_WEIGHT:
            skipped += ba.weight
            continue
        eigs = factor_difference_eigvals(ba.core, bb.core, ba.psi, bb.psi)
        total += ba.weight * float(np.abs(eigs).sum())
        rank += int(np.sum(eigs > 0))
        discarded += ba.weight * (ba.discarded + bb.discarded)
    return EnsembleDifference(total + 2.0 * skipped, rank, skipped, discarded)
