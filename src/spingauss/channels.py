"""Transfer channels between the qubit ensemble and the oscillator.

The forward channel embeds every spin block into the oscillator's number
basis (|j, m> -> |j - m>, the identity on array indices in this package's
conventions) and mixes the embedded blocks with their weights.  A
convergence point takes its output as one summed corner on the rows the
blocks reach (``_forward_corner``); the same matrix as a factor, the cores
side by side, is the test oracle ``spingauss.reference.forward_channel``.
The inverse channel block-projects an oscillator state back onto each spin
block and routes whatever mass lies outside the block's image to the
highest weight vector |j, j>, which keeps it trace preserving and
deterministic.  The distance between two ensembles is
``qubit_model.ensemble_difference``.

The convergence experiment is one kernel, ``convergence_point(params, u)``:
the trace-norm distances at one (n, u).  The command line runs it over a
finite grid of local parameters and reports the largest value on the grid;
a true supremum is never computed, and the grid is recorded in every
report.  Blocks and the limit state enter in factor form, so every distance
is diagonalized on the few leading rows the factors reach, or on the span
of two factors.  The blocks and the limit state at one u are stored in u's
frame (``qubit_model``), where all of them are real, and both channels are
the identity on indices, so they carry the frame along and every distance
is taken in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .irreps import HalfInteger, LocalParam, spin_coherent_coords
from .numerics import coherent_row_support, factor_difference_eigvals, trace_norm
from .oscillator import (
    FockOperator,
    coherent_coefficients,
    displaced_thermal,
)
from .qubit_model import (
    BlockState,
    EnsembleState,
    ModelParams,
    block_weights,
    concentration_set,
    ensemble,
    ensemble_difference,
    occurring_range,
)


def _forward_corner(ens: EnsembleState) -> np.ndarray:
    """Weighted sum of the blocks' core core^dag on the rows they reach.

    This is the forward channel's output, in the ensemble's frame.
    """
    rows = max(b.core.shape[0] for b in ens.blocks)
    out = np.zeros((rows, rows), dtype=np.result_type(float, *(b.core for b in ens.blocks)))
    for b in ens.blocks:
        r = b.core.shape[0]
        out[:r, :r] += b.weight * (b.core @ b.core.conj().T)
    return out


def inverse_channel(phi: FockOperator, params: ModelParams) -> EnsembleState:
    """Map an oscillator state to a block-diagonal ensemble with the model weights.

    Works on the factor G of phi, its core (the blocks keep its frame).
    Block j gets the corner G[:2j+1] plus the column sqrt(leftover) e_0,
    where the leftover is the trace of phi outside the block image: the
    block projection with the leftover mass routed to |j, j> (e_0 is
    unchanged by any frame), which keeps the map trace preserving.  It
    builds the blocks ``ensemble`` builds (``occurring_range``), with the
    same weights and the same skipped weight.
    """
    g = phi.core
    row_mass = np.sum((g * g.conj()).real, axis=1)
    weights = block_weights(params)
    lo, hi, skipped = occurring_range(params)
    blocks = []
    for twoj in range(lo, hi + 1, 2):
        j = HalfInteger(twoj)
        core = g[: j.dim]
        leftover = float(row_mass[j.dim :].sum())
        if leftover > 0.0:
            column = np.zeros((core.shape[0], 1), dtype=g.dtype)
            column[0, 0] = math.sqrt(leftover)
            core = np.hstack([core, column])
        blocks.append(BlockState(j, weights[twoj // 2], core))
    return EnsembleState(params, tuple(blocks), skipped)


def coherent_vector_distance(j: HalfInteger, u: LocalParam, n: int) -> float:
    """Distance between the embedded spin coherent vector and its coherent target.

    The target amplitude scales with the block actually used: sqrt(2j/n) plays
    the role of sqrt(2 mu - 1) so the comparison stays meaningful across the
    whole concentration set.  The vectors are compared over the block's
    2j + 1 rows, or over the rows that hold the target to rounding
    (``coherent_row_support``) if there are more.
    """
    spin_vec = spin_coherent_coords(j, u.scaled(1.0 / math.sqrt(n)))
    z = math.sqrt(j.twoj / n) * u.alpha
    dim = max(j.dim, coherent_row_support(abs(z) ** 2))
    target = coherent_coefficients(z, dim)
    padded = np.zeros(dim, dtype=complex)
    padded[: j.dim] = spin_vec
    return float(np.linalg.norm(padded - target))


def _qubit_rotation(u: LocalParam) -> np.ndarray:
    """U_1/2(u) from the closed form in the ``irreps`` docstring."""
    c, s = math.cos(u.norm), math.sin(u.norm)
    e = complex(math.cos(u.angle), math.sin(u.angle))
    return np.array([[c, -e.conjugate() * s], [e * s, c]])


def composition_defect(j: HalfInteger, u: LocalParam, v: LocalParam, n: int) -> float:
    """Trace distance between composing two scaled rotations and rotating once.

    Both states are pure, so the distance is 2 sqrt(1 - |overlap|^2) with the
    overlap of U_j(u/sqrt(n)) |j, v/sqrt(n)> against |j, (u+v)/sqrt(n)>.  Both
    are product states of 2j qubits, so the overlap is g_00^(2j) with
    g = U_1/2(u+v)^dag U_1/2(u) U_1/2(v), and 1 - |overlap|^2 =
    1 - (1 - |g_10|^2)^(2j), which stays accurate when g is near diagonal.
    """
    s = 1.0 / math.sqrt(n)
    g = (
        _qubit_rotation((u + v).scaled(s)).conj().T
        @ _qubit_rotation(u.scaled(s))
        @ _qubit_rotation(v.scaled(s))
    )
    # capped at the largest double below 1, so log1p stays finite where
    # |g_10| rounds to 1
    g10_sq = min(abs(g[1, 0]) ** 2, 1.0 - 2.0 ** -53)
    return 2.0 * math.sqrt(-math.expm1(j.twoj * math.log1p(-g10_sq)))


@dataclass(frozen=True)
class PointStats:
    """Distances for one (n, u) grid point."""

    forward: float
    block_max: float
    reverse: float
    error_bound: float  # limit-state rank cut + largest block rank cut + 2 * skipped weight


def convergence_point(params: ModelParams, u: LocalParam) -> PointStats:
    """Forward, largest concentration-block and reverse distances at one (n, u).

    ``block_max`` reads the blocks whose 2j lies in the interval the
    concentration set spans, the test ``measurements._tv_grid`` makes.
    """
    ens = ensemble(params, u)
    phi = displaced_thermal(u, params.mu)
    # blocks and phi are in u's frame, so the real corners compare
    corner = _forward_corner(ens)
    # everything past the rows the factors reach is zero on both sides
    rows = max(corner.shape[0], phi.core.shape[0])
    diff = np.zeros((rows, rows))
    diff[: corner.shape[0], : corner.shape[0]] = corner
    r = phi.core.shape[0]
    diff[:r, :r] -= phi.core @ phi.core.T
    forward = trace_norm(diff)
    back = ensemble_difference(ens, inverse_channel(phi, params))
    # a block of at least r rows gets phi's core itself back from the inverse
    # channel, with no leftover column, so its reverse term is its distance
    # to phi; only the blocks of fewer rows are diagonalized again
    spins = concentration_set(params)
    block_max = 0.0
    for b, norm in zip(ens.blocks, back.block_norms):
        if not spins[0].twoj <= b.j.twoj <= spins[-1].twoj:
            continue
        if b.j.dim < r:
            norm = float(np.abs(factor_difference_eigvals(b.core, phi.core)).sum())
        block_max = max(block_max, norm)
    # the inverse channel is trace-norm contractive, so the rank cuts of phi and
    # of the largest block, and the skipped weight at its worst case, bound all three
    bound = phi.deficit + max(b.discarded for b in ens.blocks) + 2.0 * ens.skipped
    return PointStats(forward=forward, block_max=block_max, reverse=back.trace_norm, error_bound=bound)
