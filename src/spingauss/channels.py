"""Transfer channels between the qubit ensemble and the oscillator.

The forward channel embeds every spin block into the oscillator's number
basis (|j, m> -> |j - m>, the identity on array indices in this package's
conventions) and mixes the embedded blocks with their weights.  The inverse
channel block-projects an oscillator state back onto each spin block and
routes whatever mass lies outside the block's image to the highest weight
vector |j, j>, which keeps it trace preserving and deterministic.

The convergence experiments evaluate trace-norm distances on a finite grid of
local parameters; a true supremum is never computed and the grid is recorded
in every sweep record.  Blocks and the limit state enter in factor form, so
every distance is diagonalized on the few leading rows the factors reach, or
on the span of two factors.  At one u they share the gauge angle psi =
u.angle, under which all of them are real, so every sweep distance is taken
in real arithmetic.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import TruncationError, ValidationError
from .irreps import HalfInteger, LocalParam, spin_coherent_coords
from .numerics import factor_difference_eigvals, gauge_phases, psd_factor, trace_norm
from .oscillator import (
    FockOperator,
    FockTruncation,
    coherent_coefficients,
    default_truncation,
    displaced_thermal,
)
from .qubit_model import (
    NEGLIGIBLE_WEIGHT,
    BlockState,
    EnsembleState,
    ModelParams,
    block_weight,
    concentration_set,
    ensemble,
    ensemble_difference,
    valid_spins,
)


@dataclass(frozen=True)
class EmbeddingMap:
    """Isometric embedding of the spin-j block into a truncated Fock space."""

    j: HalfInteger
    trunc: FockTruncation

    def __post_init__(self):
        if self.trunc.dim < self.j.dim:
            raise TruncationError(
                f"truncation dim {self.trunc.dim} below block dim {self.j.dim}"
            )


def embed_block(rho_j: np.ndarray, emb: EmbeddingMap) -> FockOperator:
    """V_j rho V_j^dag: the block becomes the top-left corner, zeros elsewhere."""
    d = emb.j.dim
    rho_j = np.asarray(rho_j, dtype=complex)
    if rho_j.shape != (d, d):
        raise ValidationError(f"block shape {rho_j.shape} does not match spin {emb.j}")
    out = np.zeros((emb.trunc.dim, emb.trunc.dim), dtype=complex)
    out[:d, :d] = rho_j
    return FockOperator(FockTruncation(emb.trunc.dim), out)


def project_block(phi: np.ndarray, emb: EmbeddingMap) -> np.ndarray:
    """V_j^dag phi V_j, without the leftover-mass completion."""
    d = emb.j.dim
    return np.asarray(phi, dtype=complex)[:d, :d].copy()


def inverse_channel_block(phi: np.ndarray | FockOperator, emb: EmbeddingMap) -> np.ndarray:
    """Left inverse of embed_block, extended to all oscillator states.

    The block-diagonal part inside the image comes back unchanged; the trace
    sitting outside the image is routed to |j, j> (index 0), which keeps the
    map trace preserving.
    """
    m = phi.matrix if isinstance(phi, FockOperator) else np.asarray(phi, dtype=complex)
    d = min(emb.j.dim, m.shape[0])
    out = np.zeros((emb.j.dim, emb.j.dim), dtype=complex)
    out[:d, :d] = m[:d, :d]
    leftover = float(np.trace(m[d:, d:]).real)
    out[0, 0] += leftover
    return out


def _forward_corner(
    ens: EnsembleState, trunc: FockTruncation, js: tuple[HalfInteger, ...] | None
) -> np.ndarray:
    """Weighted sum of the included blocks' core core^dag on the rows they reach.

    This is the forward channel's output in the ensemble's gauge ``ens.psi``.
    """
    include = None if js is None else set(js)
    blocks = []
    for b in ens.blocks:
        if include is not None and b.j not in include:
            continue
        if b.weight == 0.0:
            continue
        if b.j.dim > trunc.dim:
            raise TruncationError(
                f"truncation dim {trunc.dim} below block dim {b.j.dim} (spin {b.j})"
            )
        blocks.append(b)
    rows = max((b.core.shape[0] for b in blocks), default=0)
    out = np.zeros((rows, rows), dtype=np.result_type(float, *(b.core for b in blocks)))
    for b in blocks:
        r = b.core.shape[0]
        out[:r, :r] += b.weight * (b.core @ b.core.conj().T)
    return out


def forward_channel(
    ens: EnsembleState,
    trunc: FockTruncation,
    js: tuple[HalfInteger, ...] | None = None,
) -> FockOperator:
    """Weighted sum of embedded blocks; restricting ``js`` drops the rest.

    The trace of the result equals the total weight of the included blocks,
    so an excluded-weight report is one subtraction away.
    """
    corner = _forward_corner(ens, trunc, js)
    rows = corner.shape[0]
    phases = gauge_phases(ens.psi, rows)
    out = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    out[:rows, :rows] = phases[:, None] * corner * phases.conj()[None, :]
    return FockOperator(FockTruncation(trunc.dim), out)


def inverse_channel(phi: np.ndarray | FockOperator, params: ModelParams) -> EnsembleState:
    """Map an oscillator state to a block-diagonal ensemble with the model weights.

    Works on a factor G of phi: the core it carries (the blocks keep its
    gauge), or else one from its eigendecomposition (phi must then be
    positive semidefinite).  Block j gets the corner G[:2j+1] plus the column
    sqrt(leftover) e_0, where the leftover is the trace of phi outside the
    block image; that is ``inverse_channel_block`` in factor form (e_0 is
    unchanged by any gauge).
    """
    if isinstance(phi, FockOperator) and phi.core is not None:
        g, psi = phi.core, phi.psi
    else:
        m = phi.matrix if isinstance(phi, FockOperator) else np.asarray(phi, dtype=complex)
        g, psi = psd_factor(m), 0.0
    row_mass = np.sum((g * g.conj()).real, axis=1)
    blocks = []
    for j in valid_spins(params.n):
        core = g[: j.dim]
        leftover = float(row_mass[j.dim :].sum())
        if leftover > 0.0:
            column = np.zeros((core.shape[0], 1), dtype=g.dtype)
            column[0, 0] = math.sqrt(leftover)
            core = np.hstack([core, column])
        blocks.append(BlockState(j, block_weight(params, j), core, psi))
    return EnsembleState(params, LocalParam(0.0, 0.0), tuple(blocks))


def ensemble_distance(a: EnsembleState, b: EnsembleState) -> float:
    """Trace-norm distance between two ensembles sharing block structure.

    The weighted sum of block trace norms (``ensemble_difference``); blocks
    of negligible weight count at the worst case 2 * weight instead of being
    diagonalized.
    """
    return ensemble_difference(a, b).trace_norm


def coherent_vector_distance(
    j: HalfInteger, u: LocalParam, n: int, trunc: FockTruncation
) -> float:
    """Distance between the embedded spin coherent vector and its coherent target.

    The target amplitude scales with the block actually used: sqrt(2j/n) plays
    the role of sqrt(2 mu - 1) so the comparison stays meaningful across the
    whole concentration set.
    """
    w = u.scaled(1.0 / math.sqrt(n))
    if w.norm >= math.pi / 2:
        raise TruncationError(f"|u|/sqrt(n) = {w.norm:.4f} outside the coordinate branch")
    spin_vec = spin_coherent_coords(j, w)
    z = math.sqrt(j.twoj / n) * u.alpha
    dim = max(trunc.dim, j.dim)
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
    error_bound: float  # truncation tail + limit-state distance bound + block rank cut


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
    excluded_weight: float
    trunc_dim: int
    tail_bound: float
    error_bound: float  # largest point error bound, which also bounds each sup
    points: tuple[PointStats, ...] = field(repr=False)


@dataclass(frozen=True)
class SweepSettings:
    """Configuration of a convergence sweep."""

    mu: float
    n_values: tuple[int, ...]
    u_grid: tuple[LocalParam, ...]
    epsilon: float = 0.1
    restrict_to_concentration: bool = False
    trunc_dim: int | None = None
    workers: int = 1


def _sweep_truncation(settings: SweepSettings, params: ModelParams) -> FockTruncation:
    if settings.trunc_dim:
        return FockTruncation(settings.trunc_dim, params.p ** settings.trunc_dim)
    u_max = max(pt.norm for pt in settings.u_grid)
    trunc = default_truncation(params, u_max)
    if not settings.restrict_to_concentration:
        # every block up to j = n/2 enters the channel sum
        dim_needed = params.n + 1
        if trunc.dim < dim_needed:
            trunc = FockTruncation(dim_needed, trunc.tail_bound)
    return trunc


def _sweep_point(args) -> PointStats:
    settings, n, u = args
    params = ModelParams(n, settings.mu, settings.epsilon)
    trunc = _sweep_truncation(settings, params)
    ens = ensemble(params, u)
    phi = displaced_thermal(u, settings.mu, trunc)
    js = concentration_set(params)
    included = js if settings.restrict_to_concentration else None
    # blocks and phi share the gauge u.angle, so the real corners compare
    corner = _forward_corner(ens, trunc, included)
    # everything past the rows the factors reach is zero on both sides
    rows = max(corner.shape[0], phi.core.shape[0])
    diff = np.zeros((rows, rows))
    diff[: corner.shape[0], : corner.shape[0]] = corner
    r = phi.core.shape[0]
    diff[:r, :r] -= phi.core @ phi.core.T
    forward = trace_norm(diff)
    jset = set(js)
    block_max = 0.0
    for b in ens.blocks:
        # blocks that carry no weight do not occur in the state
        if b.j not in jset or b.weight <= NEGLIGIBLE_WEIGHT:
            continue
        EmbeddingMap(b.j, trunc)  # raises if the block does not fit
        eigs = factor_difference_eigvals(b.core, phi.core, b.psi, phi.psi)
        block_max = max(block_max, float(np.abs(eigs).sum()))
    s_out = inverse_channel(phi, params)
    reverse = ensemble_distance(ens, s_out)
    # the inverse channel is trace-norm contractive, so the distance bound of
    # phi's truncation and the largest block rank cut bound all three
    bound = trunc.tail_bound + phi.distance_bound + max(b.discarded for b in ens.blocks)
    return PointStats(
        n=n, u=u, forward=forward, block_max=block_max, reverse=reverse, error_bound=bound
    )


def convergence_sweep(settings: SweepSettings) -> list[ConvergenceRecord]:
    """Run the forward/reverse distance experiment over the (n, u) grid."""
    tasks = [(settings, n, u) for n in settings.n_values for u in settings.u_grid]
    workers = settings.workers or 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            stats = list(pool.map(_sweep_point, tasks, chunksize=1))
    else:
        stats = [_sweep_point(t) for t in tasks]
    records = []
    for n in settings.n_values:
        pts = tuple(s for s in stats if s.n == n)
        params = ModelParams(n, settings.mu, settings.epsilon)
        trunc = _sweep_truncation(settings, params)
        excluded = 0.0
        if settings.restrict_to_concentration:
            jset = set(concentration_set(params))
            excluded = sum(
                block_weight(params, j) for j in valid_spins(n) if j not in jset
            )
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
                excluded_weight=excluded,
                trunc_dim=trunc.dim,
                tail_bound=trunc.tail_bound,
                error_bound=max(s.error_bound for s in pts),
                points=pts,
            )
        )
    return records
