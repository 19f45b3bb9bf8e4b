"""Transfer channels between the qubit ensemble and the oscillator.

The forward channel embeds every spin block into the oscillator's number
basis (|j, m> -> |j - m>, the identity on array indices in this package's
conventions) and mixes the embedded blocks with their weights.  A
convergence point takes its output as one corner on the rows the blocks
reach, summed as the blocks stream past; the same matrix as a factor, the
cores side by side, is the test oracle
``spingauss.reference.forward_channel``.  The inverse channel
block-projects an oscillator state back onto each spin block and routes
whatever mass lies outside the block's image to the highest weight vector
|j, j>, which keeps it trace preserving and deterministic; it is a
per-block map of the state's core and 2j, so a convergence point meets
each block it streams with that block's image.

The convergence experiment is one kernel, ``convergence_point(params, u)``:
the trace-norm distances at one (n, u).  The command line runs it over a
finite grid of local parameters and reports the largest value on the grid;
a true supremum is never computed, and the grid is recorded in every
report.  It reads each block once, as the walk yields it, and holds no
list of cores and no tuple of blocks.  Blocks and the limit state enter
in factor form, so every distance
is diagonalized on the few leading rows the factors reach, or on the span
of two factors.  The blocks and the limit state at one u are stored in u's
frame (``qubit_model``), where all of them are real, and both channels are
the identity on indices, so they carry the frame along and every distance
is taken in real arithmetic.  Each core core^T is formed once and read by
every difference taken on that core's rows.  The largest block distance
diagonalizes a block of fewer rows than the limit state only if a bracket
from its reverse term (``distance_bracket``) leaves it a chance to hold the
maximum, up to a rounding margin (``bracket_margin``); near mu = 1/2 that
skips most diagonalizations on the limit state's several hundred rows, and
the maximum is the one an every-block pass takes, to the bit.
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
from .qubit_model import ModelParams, concentration_range, occurring_range, rotated_blocks


def inverse_channel(phi: FockOperator, j: HalfInteger) -> np.ndarray:
    """The core of block j's image under the inverse channel, in phi's frame.

    Works on the real factor G of phi, its core.  Block j gets the corner
    G[:2j+1] plus the column sqrt(leftover) e_0, where the leftover is the
    trace of phi outside the block image: the block projection with the
    leftover mass routed to |j, j> (e_0 is unchanged by any frame), which
    keeps the map trace preserving.  A block of fewer rows than G always has
    a leftover, as G's last row is nonzero; a block of at least G's rows has
    none and gets G itself.
    """
    g = phi.core
    if j.dim >= g.shape[0]:
        return g
    core = g[: j.dim]
    # each row's mass, then their sum: the order every reported value rests on
    leftover = float(np.sum(g[j.dim :] * g[j.dim :], axis=1).sum())
    column = np.zeros((core.shape[0], 1), dtype=g.dtype)
    column[0, 0] = math.sqrt(leftover)
    return np.hstack([core, column])


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


def distance_bracket(reverse: float, leftover: float, trace_gap: float) -> tuple[float, float]:
    """Lower and upper bounds on ||rho_j - phi||_1 for a block of fewer rows
    than phi's core, from what its reverse term has already read.

    ``reverse`` is ||rho_j - T_j phi||_1, ``leftover`` is eps_j, phi's trace
    off the block's rows, and ``trace_gap`` is tr rho_j - tr phi.  With P the
    projection on the block's rows, T_j phi = P phi P + eps_j |0><0|, and
    for phi of trace t <= 1 the gentle-measurement lemma gives
    ||phi - P phi P||_1 <= 2 sqrt(t eps_j) <= 2 sqrt(eps_j), so
    ||phi - T_j phi||_1 <= 2 sqrt(eps_j) + eps_j, and the triangle inequality
    puts the distance within that of ``reverse``.  The test 2P - 1, of norm
    1, gives the second lower bound tr rho_j - tr phi + 2 eps_j (rho_j lies
    on the block's rows).  The bounds hold for the cores as stored, up to
    the rounding of their inputs.
    """
    spread = 2.0 * math.sqrt(leftover) + leftover
    return max(reverse - spread, trace_gap + 2.0 * leftover), reverse + spread


def bracket_margin(phi: FockOperator) -> float:
    """The rounding allowance of a ``block_max`` bracket at the limit state phi.

    Every distance the bracket reads is a sum of |eigenvalues| of a
    difference of two states of trace at most 1, on at most d = rows +
    columns of phi's core, so each is good to a few d^2 double epsilons;
    16 d^2 of them cover the computed distance, the computed bounds and
    the computed maximum together.
    """
    d = sum(phi.core.shape)
    return 16.0 * d * d * np.finfo(float).eps


def convergence_point(params: ModelParams, u: LocalParam) -> PointStats:
    """Forward, largest concentration-block and reverse distances at one (n, u).

    One pass over the stream of the occurring blocks reads all three.  The
    forward channel's output, in the blocks' frame, is the weighted sum of
    their core core^T, kept as a running sum in a buffer that starts at
    phi's rows, doubles (up to the top block's 2j + 1) when a block reaches
    past it, and is cut to the rows reached.  Each block meets its image
    under the inverse channel for the reverse distance.  Each block's
    core core^T is formed once, for the forward sum, and phi's once per
    point.  ``factor_difference_eigvals``, which alone picks rows or QR,
    reads a given product wherever it takes a difference on that core's
    own rows: the block's for most reverse terms, phi's for every distance
    against phi.  On other rows it forms the product afresh, since its
    rounding depends on the row count.

    ``block_max`` reads the blocks whose 2j lies in ``concentration_range``,
    the test ``measurements.measurement_tv`` makes.  A block of at least phi's
    rows gets phi's core itself back from the inverse channel, so its
    reverse term is its distance to phi.  A block of fewer rows is first
    bracketed (``distance_bracket``) from its reverse term, phi's trace off
    its rows and the two traces; a running maximum holds the distances and
    lower bounds seen so far, and a block whose upper bound lies below it
    by more than ``bracket_margin`` cannot hold the maximum, so it is not
    diagonalized against phi.  The block that holds the maximum always is,
    so ``block_max`` is the maximum of the very values an every-block pass
    would take.  The stream order is unchanged and nothing is buffered.
    """
    phi = displaced_thermal(u, params.mu)
    g = phi.core
    r = g.shape[0]
    gram = g @ g.T
    # phi's trace on the rows from d on, for every d < r
    tail = np.cumsum(np.einsum("ij,ij->i", g, g)[::-1])[::-1]
    margin = bracket_margin(phi)
    lo, hi, skipped = occurring_range(params)
    first, last = concentration_range(params)
    corner = np.zeros((r, r))
    reach = 0
    reverse = 0.0
    block_max = 0.0
    # the largest block distance or lower bound read so far
    seen = 0.0
    discarded = 0.0
    for b in rotated_blocks(params, u, lo, hi):
        block_gram = b.core @ b.core.T
        # a block of at least r rows gets phi's core itself back
        back_gram = gram if b.j.dim >= r else None
        norm = float(np.abs(factor_difference_eigvals(b.core, inverse_channel(phi, b.j), block_gram, back_gram)).sum())
        k = b.core.shape[0]
        if k > corner.shape[0]:
            grown = np.zeros((min(max(k, 2 * corner.shape[0]), hi + 1),) * 2)
            grown[:reach, :reach] = corner[:reach, :reach]
            corner = grown
        corner[:k, :k] += b.weight * block_gram
        trace_gap = float(np.trace(block_gram)) - float(tail[0])
        # released before the diagonalization against phi below
        del block_gram
        reach = max(reach, k)
        reverse += b.weight * norm
        discarded = max(discarded, b.discarded)
        if not first <= b.j.twoj <= last:
            continue
        if b.j.dim < r:
            lower, upper = distance_bracket(norm, float(tail[b.j.dim]), trace_gap)
            seen = max(seen, lower)
            if upper + margin < seen:
                continue
            norm = float(np.abs(factor_difference_eigvals(b.core, g, None, gram)).sum())
        seen = max(seen, norm)
        block_max = max(block_max, norm)
    # blocks and phi are in u's frame, so the real corners compare, and
    # everything past the rows the factors reach is zero on both sides
    rows = max(reach, r)
    diff = corner[:rows, :rows]
    diff[:r, :r] -= gram
    forward = trace_norm(diff)
    # the inverse channel is trace-norm contractive, so the rank cuts of phi and
    # of the largest block, and the skipped weight at its worst case, bound all three
    bound = phi.deficit + discarded + 2.0 * skipped
    return PointStats(forward=forward, block_max=block_max, reverse=reverse + 2.0 * skipped, error_bound=bound)
