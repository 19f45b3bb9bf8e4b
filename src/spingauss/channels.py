"""Transfer channels between the qubit ensemble and the oscillator.

The forward channel embeds every spin block into the oscillator's number
basis (|j, m> -> |j - m>, the identity on array indices in this package's
conventions) and mixes the embedded blocks with their weights.  The sweep
takes its output as one summed corner on the rows the blocks reach
(``_forward_corner``); the same matrix as a factor, the cores side by side,
is the test oracle ``spingauss.reference.forward_channel``.  The inverse
channel block-projects an oscillator state back onto each spin block and
routes whatever mass lies outside the block's image to the highest weight
vector |j, j>, which keeps it trace preserving and deterministic.  The
distance between two ensembles is ``qubit_model.ensemble_difference``.

The convergence experiments evaluate trace-norm distances on a finite grid of
local parameters; a true supremum is never computed and the grid is recorded
in every sweep record.  Blocks and the limit state enter in factor form, so
every distance is diagonalized on the few leading rows the factors reach, or
on the span of two factors.  The blocks and the limit state at one u are
stored in u's frame (``qubit_model``), where all of them are real, and both
channels are the identity on indices, so they carry the frame along and
every sweep distance is taken in real arithmetic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
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

    n: int
    u: LocalParam
    forward: float
    block_max: float
    reverse: float
    error_bound: float  # limit-state rank cut + largest block rank cut + 2 * skipped weight


@dataclass(frozen=True)
class ConvergenceRecord:
    """Per-n summary of a convergence sweep plus the per-point detail."""

    n: int
    mu: float
    epsilon: float
    grid: tuple[LocalParam, ...]
    forward_sup: float
    forward_argmax: LocalParam
    block_sup: float
    block_argmax: LocalParam
    reverse_sup: float
    reverse_argmax: LocalParam
    error_bound: float  # largest point error bound, which also bounds each sup
    points: tuple[PointStats, ...] = field(repr=False)


@dataclass(frozen=True)
class SweepSettings:
    """Configuration of a convergence sweep: at least one n and one u, and an
    integer number of workers >= 1."""

    mu: float
    n_values: tuple[int, ...]
    u_grid: tuple[LocalParam, ...]
    epsilon: float = 0.1
    workers: int = 1

    def __post_init__(self):
        w = self.workers
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w < 1:
            raise ValidationError(f"sweep workers must be an integer >= 1, got {w!r}")
        for name in ("n_values", "u_grid"):
            if not getattr(self, name):
                raise ValidationError(f"sweep {name} must not be empty")


def _sweep_point(args) -> PointStats:
    settings, n, u = args
    params = ModelParams(n, settings.mu, settings.epsilon)
    ens = ensemble(params, u)
    phi = displaced_thermal(u, settings.mu)
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
    reverse = back.trace_norm
    # a block of at least r rows gets phi's core itself back from the inverse
    # channel, with no leftover column, so its reverse term is its distance
    # to phi; only the blocks of fewer rows are diagonalized again
    jset = set(concentration_set(params))
    block_max = 0.0
    for b, norm in zip(ens.blocks, back.block_norms):
        if b.j not in jset:
            continue
        if b.j.dim < r:
            norm = float(np.abs(factor_difference_eigvals(b.core, phi.core)).sum())
        block_max = max(block_max, norm)
    # the inverse channel is trace-norm contractive, so the rank cuts of phi and
    # of the largest block, and the skipped weight at its worst case, bound all three
    bound = phi.deficit + max(b.discarded for b in ens.blocks) + 2.0 * ens.skipped
    return PointStats(
        n=n, u=u, forward=forward, block_max=block_max, reverse=reverse, error_bound=bound
    )


def convergence_sweep(settings: SweepSettings) -> list[ConvergenceRecord]:
    """Run the forward/reverse distance experiment over the (n, u) grid."""
    tasks = [(settings, n, u) for n in settings.n_values for u in settings.u_grid]
    if settings.workers > 1:
        # imported here, so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(settings.workers, os.cpu_count() or 1)) as pool:
            stats = list(pool.map(_sweep_point, tasks, chunksize=1))
    else:
        stats = [_sweep_point(t) for t in tasks]
    records = []
    for n in settings.n_values:
        pts = tuple(s for s in stats if s.n == n)
        fwd = max(pts, key=lambda s: s.forward)
        blk = max(pts, key=lambda s: s.block_max)
        rev = max(pts, key=lambda s: s.reverse)
        records.append(
            ConvergenceRecord(
                n=n,
                mu=settings.mu,
                epsilon=settings.epsilon,
                grid=settings.u_grid,
                forward_sup=fwd.forward,
                forward_argmax=fwd.u,
                block_sup=blk.block_max,
                block_argmax=blk.u,
                reverse_sup=rev.reverse,
                reverse_argmax=rev.u,
                error_bound=max(s.error_bound for s in pts),
                points=pts,
            )
        )
    return records
