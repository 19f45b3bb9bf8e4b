"""The n-qubit statistical family in its Schur-Weyl block form.

An ensemble of n qubits, each in the rotated state U(u/sqrt(n)) diag(mu, 1-mu)
U(u/sqrt(n))^dag, is permutation invariant and block-diagonalizes over total
spin j.  This module provides the block weights, multiplicities, block density
matrices and the concentration set of spins that carries asymptotically all of
the weight.

The blocks of weight above NEGLIGIBLE_WEIGHT are one contiguous range of
2j (``occurring_range``); a state is those blocks only, and the summed
weight of the rest, its ``skipped``, which every distance counts at the
worst case.  This module alone makes that selection and rotates blocks
(``rotated_blocks``): one ``irreps.rotation_walk`` per range and u, at
|u|/sqrt(n), gives every core.  It compares no blocks: each experiment
takes its own distance of the block in hand.  The blocks of one range
differ in 2j by 2, so the walk climbs from one to the next in whole steps
of j, coupling two more qubits at a time, and builds no core it does not
keep.  The blocks are a stream: every experiment reads each block once,
in ascending 2j, so ``rotated_blocks`` yields them one at a time, and no
list of cores or tuple of blocks is held on the run path: the TV grid
takes a chunk at a time (the materialized state is the oracle
``spingauss.reference.ensemble``).

Every state has one spectrum.  An unrotated block and the thermal state,
its 2j -> infinity limit, have eigenvalues proportional to p^k,
p = (1 - mu)/mu (``eigenvalue_ratio``, the one check of mu's domain), and
``geometric_spectrum`` gives both: the eigenvalues above RANK_CUT, and the
trace of the rest.  A rotated block is stored as a low-rank factor,
rho_j ~ F F^dag with F the rotated leading columns scaled by the square
roots of the kept eigenvalues, and the dropped trace is recorded per
block; the oscillator's displaced thermal state takes the same pair.
The run path takes spins as 2j integers
(``occurring_range``, ``concentration_range``); ``valid_spins`` and
``concentration_set``, the ``HalfInteger`` view of ``concentration_range``,
build one per spin for the lemma API.

The frame.  rho^0 is diagonal, so turning u in the plane by an angle a
conjugates each block by exp(-i a J_z) (the oscillator state by
exp(i a N)), and every distance between states at one u depends on |u|
alone.  A state built at u is therefore stored in u's frame: with
psi = u.angle, its core F is the real factor of exp(i psi J_z) rho
exp(-i psi J_z) (on the oscillator, of exp(-i psi N) phi exp(i psi N)),
and the state itself is D F F^dag D^dag with D = diag(e^{ik psi}).  No
state carries its angle.  The package compares only states built at one
u, or a state and its mirror S F, S = diag((-1)^k), which is the state at
-u in the same frame (U_j(-w) = S U_j(w) S; ``numerics.mirror_trace_norm``
compares the two from F alone); ``spingauss.reference.lab_frame`` puts the
phase back for the dense oracles.

All weights are computed in log space and exponentiated only at the end;
multiplicities and mu-powers overflow or underflow for n beyond a few hundred
otherwise.  A weight is a binomial pmf times a slowly varying factor, and
the pmf is taken in Loader's saddle-point form (``_log_binomial_pmf``):
Stirling remainders and deviance terms, each small or accurate relative to
itself, so no large logs cancel.  The weights of one ``ModelParams`` are
computed once, in one numpy pass over every 2j (``block_weights``), and
shared by the block selection, the rotated blocks and the concentration
weights; the single-spin functions evaluate the same array form on one
spin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .errors import DomainError
from .irreps import HalfInteger, LocalParam, rotation_walk
from .numerics import stirling_remainder

# Eigenvalues of a geometric spectrum below this fraction are dropped from the
# low-rank factors; for p = 1/3 that keeps 33 of them.
RANK_CUT = 1e-15
# Blocks whose weight is at most this cannot move any reported distance above
# the 1e-10 test tolerances; no state holds them, and every distance bounds
# them by their weight.
NEGLIGIBLE_WEIGHT = 1e-14
# Terms of the deviance series below |d| = 0.1: the first one left out is
# 0.1^17 * 2/19 ~ 1e-18 of the sum.
DEVIANCE_TERMS = 17


@dataclass(frozen=True)
class ModelParams:
    """Ensemble size n, larger eigenvalue mu, concentration exponent epsilon."""

    n: int
    mu: float
    epsilon: float = 0.1

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        eigenvalue_ratio(self.mu)
        if not 0.0 < self.epsilon < 0.5:
            raise DomainError(f"epsilon must lie in (0, 1/2), got {self.epsilon!r}")

    @property
    def p(self) -> float:
        """Eigenvalue ratio (1 - mu)/mu in [0, 1)."""
        return eigenvalue_ratio(self.mu)


def eigenvalue_ratio(mu: float) -> float:
    """p = (1 - mu)/mu, the ratio of a qubit's two eigenvalues, in [0, 1).

    The one check of the domain mu in (1/2, 1]: anything else, a bool or
    nan included, raises ``DomainError``.
    """
    if isinstance(mu, (bool, np.bool_)) or not 0.5 < mu <= 1.0:
        raise DomainError(f"mu must lie in (1/2, 1], got {mu!r}")
    return (1.0 - mu) / mu


@dataclass(frozen=True)
class BlockState:
    """One spin-j summand: its weight and a factor of its density matrix.

    ``core`` is F with rho_j = F F^dag in the frame of the state's u, up to
    the trace ``discarded`` that the rank cut and the walk's row trimming
    dropped; it holds only the leading rows, which are the nonzero ones, of
    the (2j+1)-dimensional block.
    """

    j: HalfInteger
    weight: float
    core: np.ndarray
    discarded: float = 0.0


def valid_spins(n: int) -> tuple[HalfInteger, ...]:
    """All total spins compatible with n qubits, ascending (2j runs n mod 2 .. n).

    The run path takes its spins as 2j integers (``occurring_range``,
    ``concentration_range``) and makes a ``HalfInteger`` only for a block
    it holds.
    """
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


def _deviance(x, m) -> np.ndarray:
    """x log(x/m) + m - x at x > 0, Loader's bd0, without cancellation.

    It is x (d - log1p(d)) with d = (m - x)/x; below |d| = 0.1, where that
    difference cancels, it is summed as the series sum_{i>=2} (-d)^i / i,
    whose DEVIANCE_TERMS terms leave out less than 1e-17 of the sum there.
    ``x`` and ``m`` are scalars or arrays of one shape.
    """
    d = (m - x) / x
    small = np.abs(d) < 0.1
    ds = np.where(small, d, 0.0)
    total = np.zeros_like(ds)
    power = ds * ds
    for i in range(2, 2 + DEVIANCE_TERMS):
        total += power / i
        power *= -ds
    return x * np.where(small, total, d - np.log1p(d))


def _log_binomial_pmf(n: int, k, q) -> np.ndarray:
    """log C(n, k) q^k (1 - q)^(n - k), 0 <= k < n, 0 < q < 1, in Loader's form.

    stirlerr(n) - stirlerr(k) - stirlerr(n - k) - bd0(k, n q)
    - bd0(n - k, n (1 - q)) + log(n / (2 pi k (n - k)))/2 (C. Loader, "Fast
    and accurate computation of binomial probabilities", 2000), with
    ``stirling_remainder`` as stirlerr and ``_deviance`` as bd0; at k = 0 it
    is n log(1 - q).  ``k`` is an integer or an integer array, and ``q`` a
    float or an array that broadcasts against it.
    """
    k = np.asarray(k)
    kk = np.maximum(k, 1)  # k = 0 takes the closed form below
    rest = n - k
    saddle = (
        stirling_remainder(n)
        - stirling_remainder(kk)
        - stirling_remainder(rest)
        - _deviance(kk, n * q)
        - _deviance(rest, n * (1.0 - q))
        + 0.5 * np.log(n / (math.tau * kk * rest))
    )
    return np.where(k == 0, n * np.log1p(-q), saddle)


def log_multiplicity(n: int, j: HalfInteger) -> float:
    """log of the multiplicity, via the cancellation-free product form.

    The binomial difference equals C(n, n/2-j) * (2j+1)/(n/2+j+1), so no
    log-space subtraction is needed; log C(n, k) is the pmf at q = 1/2 plus
    n log 2.
    """
    _check_spin(n, j)
    k = (n - j.twoj) // 2
    logbin = float(_log_binomial_pmf(n, k, 0.5)) + n * math.log(2.0)
    return logbin + math.log(j.twoj + 1) - math.log(n / 2.0 + j.value + 1)


def _log_block_weights(params: ModelParams, twoj: np.ndarray) -> np.ndarray:
    """``log_block_weight`` over an array of valid 2j."""
    n, mu = params.n, params.mu
    if mu == 1.0:
        # pure product state lives entirely in the symmetric block
        return np.where(twoj == n, 0.0, -np.inf)
    return (
        _log_binomial_pmf(n, (n - twoj) // 2, 1.0 - mu)
        + np.log(twoj + 1.0)
        - np.log(n / 2.0 + twoj / 2.0 + 1)
        + math.log(mu)
        - math.log(2.0 * mu - 1.0)
        + np.log1p(-(params.p ** (twoj + 1.0)))
    )


def log_block_weight(params: ModelParams, j: HalfInteger) -> float:
    """log of the block weight; -inf where the weight vanishes (mu = 1, j < n/2).

    With k = n/2 - j the weight is the binomial pmf B_{n,1-mu}(k) times
    (2j+1)/(n/2+j+1) mu/(2mu-1) (1 - p^(2j+1)).
    """
    _check_spin(params.n, j)
    return float(_log_block_weights(params, np.array(j.twoj)))


def block_weight(params: ModelParams, j: HalfInteger) -> float:
    """Probability weight of the spin-j block, in [0, 1]: its entry of ``block_weights``."""
    _check_spin(params.n, j)
    return block_weights(params)[j.twoj // 2]


@lru_cache(maxsize=4)
def block_weights(params: ModelParams) -> tuple[float, ...]:
    """exp(``log_block_weight``), capped at 1, of every spin of
    ``valid_spins(params.n)``, in order: the spin 2j sits at index 2j // 2.

    One numpy pass over every 2j, cached per ``params``, so the block
    selection, the rotated blocks and the concentration weights of one
    (n, mu) share one table.
    """
    twoj = np.arange(params.n % 2, params.n + 1, 2)
    return tuple(np.minimum(np.exp(_log_block_weights(params, twoj)), 1.0).tolist())


def concentration_set(params: ModelParams) -> tuple[HalfInteger, ...]:
    """The spins of ``concentration_range``, ascending."""
    lo, hi = concentration_range(params)
    return tuple(HalfInteger(twoj) for twoj in range(lo, hi + 1, 2))


def concentration_range(params: ModelParams) -> tuple[int, int]:
    """(lo, hi): the least and the greatest parity-valid 2j within
    2 n^(1/2+epsilon) of the center 2 n(mu - 1/2), the concentration set.

    Both come from the ends 2 (n(mu - 1/2) -+ n^(1/2+epsilon)) of the
    window alone: each is rounded inward to an integer, clipped to
    [n mod 2, n] and moved inward to the parity of n, so no spin between
    them is built.  An empty window raises ``DomainError``.
    """
    jn = spin_center(params)
    width = params.n ** (0.5 + params.epsilon)
    parity = params.n % 2
    lo = max(math.ceil(2.0 * (jn - width)), parity)
    hi = min(math.floor(2.0 * (jn + width)), params.n)
    lo += (lo - parity) % 2
    hi -= (hi - parity) % 2
    if lo > hi:
        raise DomainError("empty concentration set; epsilon too small for this n")
    return lo, hi


def concentration_weight(params: ModelParams) -> float:
    """Total block weight carried by the concentration set."""
    weights = block_weights(params)
    return float(sum(weights[j.twoj // 2] for j in concentration_set(params)))


def effective_rank(p: float, dim: int | None = None) -> int:
    """Number of eigenvalues p^k kept above RANK_CUT, at most ``dim``."""
    rank = 1 if p == 0.0 else math.ceil(math.log(RANK_CUT) / math.log(p)) + 1
    return rank if dim is None else min(dim, rank)


def geometric_spectrum(p: float, dim: int | None = None) -> tuple[np.ndarray, float]:
    """(kept, cut): the eigenvalues (1 - p) p^k / (1 - p^dim) of a state of
    ``dim`` levels for k below ``effective_rank(p, dim)``, and the trace
    (p^r - p^dim) / (1 - p^dim) the rank cut r drops, 0 where it drops none.

    Every state of the package has this spectrum: an unrotated block of
    2j + 1 levels and, at ``dim=None``, the thermal state, its 2j -> infinity
    limit, where p^dim is 0.
    """
    r = effective_rank(p, dim)
    tail = 0.0 if dim is None else p ** dim
    norm = 1.0 - tail
    kept = (1.0 - p) / norm * p ** np.arange(r)
    return kept, 0.0 if r == dim else (p ** r - tail) / norm


def occurring_range(params: ModelParams) -> tuple[int, int, float]:
    """(lo, hi, skipped): the 2j range of the blocks of weight above
    NEGLIGIBLE_WEIGHT, and the summed weight of every spin outside it.

    The weights are unimodal in 2j, so the blocks that occur are one
    contiguous range; every state of one (n, mu) holds exactly those, and
    every distance bounds the rest by ``skipped``.
    """
    weights = block_weights(params)
    occurring = [i for i, w in enumerate(weights) if w > NEGLIGIBLE_WEIGHT]
    first, last = occurring[0], occurring[-1]
    # the weights outside, in order, with no copy of either tail
    skipped = sum(chain(islice(weights, first), islice(weights, last + 1, None)))
    return params.n % 2 + 2 * first, params.n % 2 + 2 * last, skipped


def rotated_blocks(params: ModelParams, u: LocalParam, lo: int, hi: int) -> Iterator[BlockState]:
    """The blocks 2j = lo, lo + 2, ..., hi of the ensemble at u, in u's frame,
    yielded in ascending 2j from one ``rotation_walk``.

    Each core is the walk's, scaled by the square roots of the kept
    eigenvalues, so rho_j ~ core core^T; its ``discarded`` is its rank cut
    plus the mass the walk trimmed up to its step, so it never decreases
    along the range.  Only the block in hand and the core the walk steps
    from are held.  A point's ensemble is the range of
    ``occurring_range``, with its ``skipped`` weight beside the stream.
    """
    p = params.p
    weights = block_weights(params)
    walk = rotation_walk(lo, hi, u.norm / math.sqrt(params.n), effective_rank(p))
    for twoj, (core, trimmed) in zip(range(lo, hi + 1, 2), walk):
        j = HalfInteger(twoj)
        kept, cut = geometric_spectrum(p, j.dim)
        # out of place: the walk steps on from its own core
        yield BlockState(j, weights[twoj // 2], core * np.sqrt(kept), cut + trimmed)

