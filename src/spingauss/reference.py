"""Dense reference implementations, kept as oracles for the tests.

Every statistic the package reports is computed on low-rank real cores,
each state stored in the frame of the u it was built at (``qubit_model``,
``oscillator``, ``channels``, ``measurements``).  This module holds the dense
routes those cores replaced: eigendecomposition-based unitaries, full
rotation and displacement matrices, dense block states, the block embedding
and its inverse, the closed-form spin coherent amplitudes, and the outcome
densities as quadratic forms of a dense block.  All of them are in the
plane's fixed frame, and ``lab_frame`` takes a core or matrix of the factor
path there.  The tests compare the factor path against them.  The Chebyshev
propagator (``tridiagonal_propagator``, with its Bessel coefficients) that
``numerics.three_term_columns`` replaced is here too, as the oracle for the
real rotation and displacement cores at sizes the dense routes cannot
reach, and so is the walk that ``irreps.rotation_walk`` replaced
(``half_step_walk``), which climbs in half-steps of j, one qubit at a
time, where the walk takes whole steps of two.  So are the forward channel
as one factor (``forward_channel``), which the round-trip tests feed to
the inverse channel, and the binomial factor of a block weight
(``binomial_factor``).  The package streams a point's blocks; the
materialized state (``EnsembleState``, built by ``ensemble`` and
``inverse_ensemble``), its distance ``ensemble_distance`` and the dense
block ``block_matrix`` are here, as the oracles of the one-pass sums.  No
other module of the package imports this one, so the command line never
loads it.

States built here are factor-form ``FockOperator`` objects, so their
``matrix`` is rebuilt on access like every other state's: a thermal state
is a diagonal core, a coherent state or a heterodyne POVM element one
column, and a Glauber mixture one column per quadrature node.  Operators
(displacements, quadratures, embedded blocks) are plain arrays.  A state of
the factor path spans the rows its core reaches; ``fock_matrix`` pads or
crops it to the levels of a given truncation for a dense comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, SpinGaussError, ValidationError
from .irreps import HalfInteger, LocalParam
from .measurements import BinaryTestResult, injectivity_radius, plane_jacobian
from .numerics import HERMITICITY_RTOL, as_square_matrix, factor_difference_eigvals, trim_rows
from .oscillator import (
    FockOperator,
    FockTruncation,
    PolarGrid,
    _coherent_rows,
    coherent_coefficients,
)
from .channels import inverse_channel
from .qubit_model import (
    BlockState,
    ModelParams,
    _check_spin,
    _log_binomial_pmf,
    block_weight,
    log_block_weight,
    occurring_range,
    rotated_blocks,
    spin_center,
)

# Negative eigenvalues of nominally PSD matrices down to this are clamped to
# zero; anything below is treated as a genuinely invalid state.
PSD_REJECT = -1e-8
# Chebyshev terms with |J_k(t s)| at or below this are dropped: far below the
# rounding of the O(1) entries the propagator returns.
CHEBYSHEV_TOL = 1e-18
# The propagator sums its Chebyshev terms in chunks of at most this many
# bytes, so its memory does not grow with the series degree.
PROPAGATOR_CHUNK_BYTES = 16 * 2**20


class TruncationError(SpinGaussError):
    """A dense oracle's Fock cutoff is too small for the requested accuracy."""


def lab_frame(a, angle: float) -> np.ndarray:
    """A core or matrix stored in the frame of ``angle``, in the fixed frame.

    Entry [r, c] gets the phase e^{i(r - c) angle}: D a D^dag with
    D = diag(e^{ik angle}), sized to each side.  For a matrix in the frame
    that is the state exp(-i angle J_z) a exp(i angle J_z) (on the
    oscillator exp(i angle N) a exp(-i angle N)); for rotation columns it is
    the columns of the unitary; for a factor F it is D F up to a phase per
    column, so F F^dag becomes the fixed-frame state either way.
    """
    r, c = np.indices(np.shape(a))
    return np.exp(1j * angle * (r - c)) * a


def bessel_j(count: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_{count-1}(x) at x >= 0, by Miller's backward recurrence.

    J_{k-1} = (2k/x) J_k - J_{k+1} runs down from J_{top+1} = 0, J_top = 1,
    top the even order at or past m + 20 + sqrt(40 m), m = max(count, x).
    That far out J_k is the minimal solution of the recurrence, so going
    down it forgets the start; the running values are rescaled whenever
    they pass 1e250, and the result is normalized by
    J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Rev. 9, 24, 1967).  Each step's
    factor 2k/x is rounded once: a rounded 2/x shared by every step would
    act as a rounded x, an error that grows with the order.  At x = 0 the
    result is e_0.  ``count`` is at least 1.
    """
    if x == 0.0:
        out = np.zeros(count)
        out[0] = 1.0
        return out
    m = max(count, x)
    top = 2 * math.ceil(0.5 * (m + 20.0 + math.sqrt(40.0 * m)))
    kept = [0.0] * count  # J_k for k < count, in the running scale
    nxt, cur = 0.0, 1.0  # J_{k+1}, J_k
    norm = 2.0  # J_0 + 2 sum_k J_2k, in the running scale; top is even
    for k in range(top, 0, -1):
        if k < count:
            kept[k] = cur
        nxt, cur = cur, (2.0 * k / x) * cur - nxt
        if k % 2:  # cur is J_{k-1}, of even order
            norm += cur if k == 1 else 2.0 * cur
        if abs(cur) > 1e250:
            nxt *= 1e-250
            cur *= 1e-250
            norm *= 1e-250
            for i in range(k, count):
                kept[i] *= 1e-250
    kept[0] = cur
    return np.array(kept) / norm


def _chebyshev_degree(a: float) -> int:
    """Smallest K with |J_k(a)| <= CHEBYSHEV_TOL for every k >= K.

    Past k ~ a the Bessel coefficients decay super-exponentially; the
    evaluated range reaches 20 transition widths a^(1/3) beyond a.
    """
    if a == 0.0:
        return 0
    coef = bessel_j(math.ceil(a + 20.0 * a ** (1.0 / 3.0) + 40.0), a)
    return int(np.nonzero(np.abs(coef) > CHEBYSHEV_TOL)[0][-1]) + 1


def propagator_degree(
    off: Callable[[np.ndarray], np.ndarray],
    t: float,
    cols: int,
    size: int | None = None,
) -> tuple[int, float]:
    """Chebyshev degree K and scale s of ``tridiagonal_propagator``.

    Its columns reach the leading min(size, cols + K) rows.
    """
    cap = math.inf if size is None else size
    cols = min(cols, cap)
    degree = 0
    while True:
        rows = min(cap, cols + degree + 1)
        b = off(np.arange(1, rows + (rows < cap)))
        radius = np.zeros(rows)
        radius[1:] += b[: rows - 1]
        radius[: len(b)] += b[:rows]
        scale = float(radius.max())
        need = _chebyshev_degree(t * scale)
        if need <= degree:
            return degree, scale
        degree = need


def tridiagonal_propagator(
    off: Callable[[np.ndarray], np.ndarray],
    t: float,
    cols: int,
    size: int | None = None,
) -> np.ndarray:
    """Leading columns of the real propagator exp(t A), the gauge of exp(i t T).

    T is the real symmetric tridiagonal matrix of order ``size`` (None:
    unbounded) with zero diagonal and T[i-1, i] = T[i, i-1] = off(i), where
    ``off`` maps an index array i = 1, 2, ... to the couplings.  T is
    bipartite, so with G = diag(i^k) the gauge A = G^-1 (i T) G is real and
    antisymmetric, A[i, i-1] = -A[i-1, i] = off(i), and

        exp(i t T)[r, c] = i^(r-c) exp(t A)[r, c].

    A further phase gauge diag(e^{ik phi}) exp(i t T) diag(e^{-ik phi}) is
    therefore e^{i(r-c) angle} exp(t A)[r, c] with angle = phi + pi/2:
    every phase-gauged propagator is this real matrix in the frame of its
    angle.

    The action on the first ``cols`` unit vectors is the Chebyshev series
    (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 1984) of exp(i t T) carried
    through the gauge: with Q_k = i^k G^-1 T_k(T / s) G, which obeys the real
    recurrence Q_{k+1} = (2 A / s) Q_k + Q_{k-1}, exp(t A) = sum_k eps_k
    J_k(t s) Q_k.  A degree-K polynomial of a tridiagonal matrix moves e_c
    by at most K rows, so the series only touches the leading cols + K rows,
    and s is the Gershgorin bound of the leading cols + K + 1 rows (coupling
    to the next row included), found together with K by fixed-point
    iteration (``propagator_degree``).  Only those cols + K rows are
    returned; every row past them is zero to the series accuracy.  The
    terms are summed ``PROPAGATOR_CHUNK_BYTES`` at a time; a series that
    fits one chunk is summed by a single product.
    """
    cap = math.inf if size is None else size
    cols = min(cols, cap)
    degree, scale = propagator_degree(off, t, cols, size)
    rows = min(cap, cols + degree)
    coef = bessel_j(degree + 1, t * scale)
    coef[1:] *= 2.0
    slots = min(degree + 1, max(3, PROPAGATOR_CHUNK_BYTES // (8 * rows * cols)))
    basis = np.zeros((slots, rows, cols))
    basis[0, :cols] = np.eye(cols)
    total = None
    first = 0  # the term basis[0] holds
    if degree:
        b = (off(np.arange(1, rows)) / scale)[:, None]
        basis[1, 1:] = b * basis[0, :-1]
        basis[1, :-1] -= b * basis[0, 1:]
        b2 = 2.0 * b
        for m in range(2, degree + 1):
            if m - first == slots:
                # sum all but the two terms the recurrence still needs; a
                # reused slot is zero past the rows its old term reached
                part = np.tensordot(coef[first : m - 2], basis[: slots - 2], axes=1)
                total = part if total is None else total + part
                basis[:2] = basis[slots - 2 :]
                first = m - 2
            i = m - first
            h = min(rows, cols + m)  # Q_m e_c reaches row c + m at most
            cur, nxt = basis[i - 1], basis[i]
            nxt[:h] = basis[i - 2, :h]
            nxt[1:h] += b2[: h - 1] * cur[: h - 1]
            nxt[: h - 1] -= b2[: h - 1] * cur[1:h]
    part = np.tensordot(coef[first:], basis[: degree + 1 - first], axes=1)
    return part if total is None else total + part


class EigenSystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def validate_hermitian(h, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Return ``h`` as an array (``as_square_matrix``), or raise naming the worst entry."""
    h = as_square_matrix(h, "hermitian matrix")
    asym = np.abs(h - h.conj().T)
    scale = max(np.abs(h).max(), 1.0)
    worst = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[worst] > rtol * scale:
        row, col = int(worst[0]), int(worst[1])
        raise ValidationError(
            f"matrix is not Hermitian: |H - H^dag| = {asym[worst]:.3e} at entry "
            f"({row}, {col}) exceeds {rtol:.1e} * max|H| = {rtol * scale:.3e}"
        )
    return h


def hermitian_eig(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted ascending."""
    h = validate_hermitian(h)
    w, v = np.linalg.eigh(h)
    return EigenSystem(w, v)


def unitary_exp(h) -> np.ndarray:
    """exp(i*h) for Hermitian h, via eigendecomposition.

    The eigendecomposition route keeps the result unitary up to eigensolver
    accuracy, which a truncated series would not.
    """
    w, v = hermitian_eig(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _psd_eig(rho) -> EigenSystem:
    """Eigensystem of a PSD matrix with small negative eigenvalues clamped."""
    w, v = hermitian_eig(rho)
    if w[0] < PSD_REJECT:
        raise ValidationError(
            f"matrix is not positive semidefinite: eigenvalue {w[0]:.3e} below {PSD_REJECT:.1e}"
        )
    return EigenSystem(np.clip(w, 0.0, None), v)


def psd_factor(rho) -> np.ndarray:
    """F with F F^dag = rho, one column per positive eigenvalue."""
    w, v = _psd_eig(rho)
    keep = w > 0.0
    return v[:, keep] * np.sqrt(w[keep])


def ladder_ops(j: HalfInteger) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin matrices (J+, J-, Jz) of dimension 2j + 1 in the descending-m basis.

    J+|j,m> = sqrt(j - m) sqrt(j + m + 1) |j,m+1>, J- is its adjoint and
    Jz|j,m> = m |j,m>.
    """
    tj = j.twoj
    d = tj + 1
    i = np.arange(1, d)
    # raising entry <m+1|J+|m> lands on the superdiagonal in descending-m order
    amp = np.sqrt(i * (tj + 1.0 - i))
    jp = np.zeros((d, d), dtype=complex)
    jp[np.arange(d - 1), np.arange(1, d)] = amp
    jm = jp.conj().T
    jz = np.diag((tj - 2.0 * np.arange(d)) / 2.0).astype(complex)
    return jp, jm, jz


def rotation_generator(j: HalfInteger, u: LocalParam) -> np.ndarray:
    """Hermitian generator of the collective x-y rotation on the spin-j block.

    Equals u_x X_j + u_y Y_j with X_j = J+ + J-, Y_j = (J+ - J-)/i, the
    restrictions of the collective Pauli sums (twice the spin matrices).
    """
    jp, jm, _ = ladder_ops(j)
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return 2.0 * (u.ux * jx + u.uy * jy)


def rotation_unitary(j: HalfInteger, u: LocalParam) -> np.ndarray:
    """U_j(u): unitary exp of the collective rotation generator.

    Dense route through an eigendecomposition of the (2j+1)-dimensional
    generator, the reference for ``irreps.rotation_columns`` and the whole
    steps of ``irreps.rotation_walk``.
    """
    return unitary_exp(rotation_generator(j, u))


def _half_step(prev: np.ndarray, twoj: int, c: float, s: float, cols: int) -> np.ndarray:
    """The core of spin j = twoj/2 from the core ``prev`` of spin j - 1/2.

    Coupling one more qubit, |j, j-k> = a_k |j-1/2, j-1/2-k>|up> +
    b_k |j-1/2, j+1/2-k>|down> with a_k = sqrt((2j-k)/2j), b_k = sqrt(k/2j),
    and the qubit's core [[c, -s], [s, c]] give

        M[l, k] = a_l (c a_k M'[l, k] - s b_k M'[l, k-1])
                  + b_l (s a_k M'[l-1, k] + c b_k M'[l-1, k-1]).

    ``prev`` holds the leading rows of M' (missing rows are zero), so the
    result reaches one row further; it keeps min(cols, 2j + 1) columns, and
    a column of M' past its last is zero through a_{2j} = 0.
    """
    rows, have = prev.shape
    width = min(cols, twoj + 1)
    k = np.arange(max(rows + 1, width))
    a = np.sqrt((twoj - k) / twoj)
    b = np.sqrt(k / twoj)
    if have < width:
        wide = np.zeros((rows, have + 1))
        wide[:, :have] = prev
        prev = wide
    up = prev * a[:width]
    down = np.zeros((rows, width))
    down[:, 1:] = prev[:, : width - 1] * b[1:width]
    out = np.zeros((rows + 1, width))
    out[:rows] = a[:rows, None] * (c * up - s * down)
    out[1:] += b[1 : rows + 1, None] * (s * up + c * down)
    return out


def half_step_walk(
    start: np.ndarray, lo: int, hi: int, radius: float, cols: int
) -> tuple[list[np.ndarray], float]:
    """The cores of U_j(w)[:, :min(cols, 2j + 1)] for 2j = lo, lo + 2, ..., hi
    at |w| = ``radius``, from ``start``, the core at 2j = lo.

    The walk that the whole steps of ``irreps.rotation_walk`` replaced,
    kept as its oracle: it climbs in half-steps of j by coupling one qubit
    at a time (``_half_step``, Risbo's recursion, J. Geodesy 70, 383,
    1996), keeps only the spins of lo's parity, and trims and rescales
    after every half-step.  ``start = np.ones((1, 1))`` at lo = 0 needs no kernel at
    all.  The second value is the mass trimmed over all half-steps.
    """
    c, s = math.cos(radius), math.sin(radius)
    core = start
    cores = [core]
    trimmed = 0.0
    for twoj in range(lo + 1, hi + 1):
        core, mass = trim_rows(_half_step(core, twoj, c, s, cols))
        core /= np.sqrt(np.einsum("ij,ij->j", core, core))
        trimmed += mass
        if (twoj - lo) % 2 == 0:
            cores.append(core)
    return cores, trimmed


def block_state_zero(params: ModelParams, j: HalfInteger) -> np.ndarray:
    """Unrotated spin-j block: diagonal entries proportional to p^k, descending m.

    The whole spectrum, normalized by its own sum: the oracle of the closed
    form ``qubit_model.geometric_spectrum`` and of its rank cut.
    """
    _check_spin(params.n, j)
    lam = params.p ** np.arange(j.dim)
    return np.diag(lam / lam.sum()).astype(complex)


def block_state(params: ModelParams, j: HalfInteger, u: LocalParam) -> np.ndarray:
    """Rotated spin-j block U_j(u/sqrt(n)) rho0_j U_j(u/sqrt(n))^dag.

    Dense reference for the blocks of ``ensemble``: one
    eigendecomposition and two (2j+1)^3 products.
    """
    rho0 = block_state_zero(params, j)
    if u.norm == 0.0:
        return rho0
    um = rotation_unitary(j, u.scaled(1.0 / math.sqrt(params.n)))
    return um @ rho0 @ um.conj().T


def binomial_factor(params: ModelParams, j: HalfInteger) -> float:
    """Ratio of the block weight to the binomial mass B_{n,mu}(n/2+j).

    Recomputed from the two log-space quantities; ``binomial_factor_closed_form``
    is the independent route the tests compare against.
    """
    if params.mu == 1.0:
        raise DomainError("binomial factor needs mu < 1")
    logw = log_block_weight(params, j)
    # B_{n,mu}(n/2 + j) = B_{n,1-mu}(n/2 - j)
    log_b = float(_log_binomial_pmf(params.n, (params.n - j.twoj) // 2, 1.0 - params.mu))
    return math.exp(logw - log_b)


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


@dataclass(frozen=True)
class EnsembleState:
    """Block-diagonal ensemble state, held whole: parameters, the occurring
    blocks (``qubit_model.occurring_range``) in ascending 2j, every one in
    the frame of the u the ensemble was built at, and ``skipped``, the
    weight of every other block, which the state omits.  The package
    streams these blocks instead; this form is the oracle its one-pass
    sums are checked against."""

    params: ModelParams
    blocks: tuple[BlockState, ...]
    skipped: float


def ensemble(params: ModelParams, u: LocalParam) -> EnsembleState:
    """The ensemble state at u, in u's frame: the stream
    ``qubit_model.rotated_blocks`` over ``occurring_range``, held as one tuple."""
    lo, hi, skipped = occurring_range(params)
    return EnsembleState(params, tuple(rotated_blocks(params, u, lo, hi)), skipped)


def inverse_ensemble(phi: FockOperator, params: ModelParams) -> EnsembleState:
    """The per-block map ``channels.inverse_channel`` of phi over
    ``occurring_range``, with the model weights, held as one tuple, and
    the skipped weight the ensemble at any u has."""
    lo, hi, skipped = occurring_range(params)
    spins = [HalfInteger(twoj) for twoj in range(lo, hi + 1, 2)]
    blocks = tuple(BlockState(j, block_weight(params, j), inverse_channel(phi, j)) for j in spins)
    return EnsembleState(params, blocks, skipped)


def ensemble_distance(a: EnsembleState, b: EnsembleState) -> float:
    """||a - b||_1 of two ensembles of one (n, mu) in one frame: the
    weighted trace norms of their block pairs, each diagonalized on the
    span of its two factors and summed in order, plus the skipped weight at
    its worst case 2 * skipped, as ``channels.convergence_point`` sums its
    ``reverse``.  The multiplicity spaces cancel.  Two ensembles of
    different spins or weights raise ``ValidationError``."""
    if (
        a.params.n != b.params.n
        or a.params.mu != b.params.mu
        or [(x.j, x.weight) for x in a.blocks] != [(y.j, y.weight) for y in b.blocks]
    ):
        raise ValidationError("ensembles must share block structure (same n, mu)")
    total = 0.0
    for x, y in zip(a.blocks, b.blocks):
        total += x.weight * float(np.abs(factor_difference_eigvals(x.core, y.core)).sum())
    return total + 2.0 * a.skipped


def block_matrix(block: BlockState) -> np.ndarray:
    """The dense (2j+1)-dimensional F F^dag of a block, in its frame."""
    rows = block.core.shape[0]
    out = np.zeros((block.j.dim, block.j.dim), dtype=np.result_type(block.core, float))
    out[:rows, :rows] = block.core @ block.core.conj().T
    return out


def forward_channel(ens: EnsembleState) -> FockOperator:
    """Weighted sum of every embedded block, as one factor.

    The block embedding is the identity on indices, so the result is the
    cores sqrt(w_j) core_j side by side, in the ensemble's frame, on the
    rows the largest core reaches: the factor form of what
    ``channels.convergence_point`` sums, which the inverse channel can take
    back.  Its deficit is the weighted trace the blocks' rank cuts dropped
    plus the ensemble's skipped weight, since ||sum_j w_j rho_j||_1 <= sum_j w_j.
    """
    rows = max(b.core.shape[0] for b in ens.blocks)
    core = np.hstack(
        [np.pad(math.sqrt(b.weight) * b.core, ((0, rows - b.core.shape[0]), (0, 0))) for b in ens.blocks]
    )
    deficit = sum(b.weight * b.discarded for b in ens.blocks) + ens.skipped
    return FockOperator(core, deficit=deficit)


def fock_matrix(op: FockOperator, trunc: FockTruncation) -> np.ndarray:
    """The dense matrix of ``op`` on the levels of ``trunc``: its core padded
    with zero rows, or cropped, to ``trunc.dim`` rows."""
    core = op.core[: trunc.dim]
    return replace(op, core=np.pad(core, ((0, trunc.dim - core.shape[0]), (0, 0)))).matrix


def number_basis_state(k: int, trunc: FockTruncation) -> FockOperator:
    """Rank-one projector |k><k|."""
    if not 0 <= k < trunc.dim:
        raise DomainError(f"level {k} outside truncation 0..{trunc.dim - 1}")
    core = np.zeros((trunc.dim, 1))
    core[k, 0] = 1.0
    return FockOperator(core, deficit=0.0)


def thermal_state(p: float, trunc: FockTruncation) -> FockOperator:
    """Thermal state diag((1-p) p^k); the trace deficit is exactly p^N."""
    if not 0.0 <= p < 1.0:
        raise DomainError(f"thermal parameter must lie in [0, 1), got {p!r}")
    core = np.diag(np.sqrt((1.0 - p) * p ** np.arange(trunc.dim)))
    return FockOperator(core, deficit=p ** trunc.dim)


def displacement_amplitude(u: LocalParam, mu: float) -> complex:
    """Displacement sqrt(2 mu - 1) * (-u_y + i u_x) carried by the limit state."""
    return math.sqrt(2.0 * mu - 1.0) * u.alpha


def coherent_leakage(z: complex, dim: int) -> float:
    """Probability mass of |z> above the cutoff (Poisson tail at |z|^2)."""
    c = coherent_coefficients(z, dim)
    return max(0.0, 1.0 - float(np.vdot(c, c).real))


def required_coherent_dim(z: complex, leakage_tol: float) -> int:
    """Smallest cutoff keeping the coherent leakage below tolerance."""
    dim = max(4, math.ceil(abs(z) ** 2) + 1)
    while coherent_leakage(z, dim) > leakage_tol:
        dim = math.ceil(dim * 1.5) + 4
    while dim > 1 and coherent_leakage(z, dim - 1) <= leakage_tol:
        dim -= 1
    return dim


def coherent_state(z: complex, trunc: FockTruncation, leakage_tol: float = 1e-8) -> FockOperator:
    """Rank-one coherent projector; leakage is reported, not renormalized away."""
    c = coherent_coefficients(z, trunc.dim)
    leakage = max(0.0, 1.0 - float(np.vdot(c, c).real))
    if leakage > leakage_tol:
        raise TruncationError(
            f"coherent state leakage {leakage:.3e} above {leakage_tol:.1e}; "
            f"need dim >= {required_coherent_dim(z, leakage_tol)}"
        )
    return FockOperator(c[:, None], deficit=leakage)


def _annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    ks = np.arange(1, dim)
    a[ks - 1, ks] = np.sqrt(ks)
    return a


def quadrature_operators(trunc: FockTruncation) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum Q = (a + a^dag)/sqrt(2), P = (a - a^dag)/(i sqrt(2))."""
    a = _annihilation(trunc.dim)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = (a - a.conj().T) / (1j * math.sqrt(2.0))
    return q, p


def displacement_operator(
    z: complex,
    trunc: FockTruncation,
    pad: int | None = None,
    unitarity_tol: float = 1e-3,
    column_tol: float = 1e-8,
) -> np.ndarray:
    """Displacement D(z) = exp(z a^dag - conj(z) a), built padded then cropped.

    Dense reference for the propagator columns in ``displaced_thermal``; the
    default pad is max(16, 8 |z|) levels.

    Two adequacy checks guard the result.  The unitarity deficit is the
    worst entry of D^dag D - 1 over the lower half of the cropped block: it
    measures the mass a column loses to the cropped rows, so it is the
    linear-scale truncation indicator (products of cropped displacements see
    roughly its square).  The column deficit compares D(z)|0> against the
    closed-form coherent coefficients, which catches an inadequate pad even
    though the exponential of the truncated generator is unitary on its own
    space.
    """
    if pad is None:
        pad = max(16, math.ceil(8.0 * abs(z)))
    a = _annihilation(trunc.dim + pad)
    gen = z * a.conj().T - np.conj(z) * a
    m = unitary_exp(-1j * gen)[: trunc.dim, : trunc.dim]
    keep = max(1, trunc.dim // 2)
    defect = m.conj().T @ m - np.eye(trunc.dim)
    unit_deficit = float(np.abs(defect[:keep, :keep]).max())
    col_deficit = float(np.abs(m[:, 0] - coherent_coefficients(z, trunc.dim)).max())
    if unit_deficit > unitarity_tol or col_deficit > column_tol:
        raise TruncationError(
            f"displacement truncation deficits (unitarity {unit_deficit:.3e}, "
            f"ground column {col_deficit:.3e}) above tolerances "
            f"({unitarity_tol:.1e}, {column_tol:.1e}); increase pad (pad={pad}) "
            f"or the truncation (dim={trunc.dim})"
        )
    return m


def _coherent_columns(z: np.ndarray, dim: int) -> np.ndarray:
    """Coherent coefficients of the complex amplitudes ``z`` as (dim, G): the
    real rows ``_coherent_rows`` at |z| times the frame phases e^{ik arg z},
    column by column as ``coherent_coefficients`` forms one."""
    return np.exp(1j * np.outer(np.arange(dim), np.angle(z))) * _coherent_rows(np.abs(z), dim)


def glauber_mixture(
    mu: float,
    trunc: FockTruncation,
    quad: PolarGrid | None = None,
    tail_tol: float = 1e-4,
) -> FockOperator:
    """Thermal state assembled as a Gaussian mixture of coherent projectors.

    The mixture has density e^{-|z|^2 / 2 s^2} / (2 pi s^2) over displacements
    with s^2 = p / (2 (1 - p)); the quadrature result should reproduce
    thermal_state(p) up to the reported Gaussian tail outside the grid radius.
    Its factor holds one column sqrt(w dens) c(z) per quadrature node.
    """
    if not 0.5 < mu < 1.0:
        raise DomainError(f"mixture form needs mu in (1/2, 1), got {mu!r}")
    p = (1.0 - mu) / mu
    s2 = p / (2.0 * (1.0 - p))
    if quad is None:
        quad = PolarGrid(radius=6.0 * math.sqrt(s2))
    tail = math.exp(-quad.radius ** 2 / (2.0 * s2))
    if tail > tail_tol:
        raise AccuracyError(
            f"quadrature radius {quad.radius:.3f} too small: Gaussian tail "
            f"{tail:.3e} above {tail_tol:.1e}"
        )
    pts, w = quad.nodes()
    z = pts[:, 0] + 1j * pts[:, 1]
    dens = np.exp(-np.abs(z) ** 2 / (2.0 * s2)) / (2.0 * math.pi * s2)
    core = _coherent_columns(z, trunc.dim) * np.sqrt(w * dens)
    return FockOperator(core, deficit=tail)


def heterodyne_density(u_hat: LocalParam, mu: float, trunc: FockTruncation) -> FockOperator:
    """POVM density (2 mu - 1)/pi |z><z| at z = sqrt(2 mu - 1) alpha_uhat.

    The 1/pi makes the plane integral of the density the identity (coherent
    state overcompleteness); the leakage of |z> above the cutoff is recorded
    in the tail bound rather than raised, because densities are routinely
    evaluated far in the tails where the overlap with any low-lying state is
    negligible anyway.
    """
    if not 0.5 < mu <= 1.0:
        raise DomainError(f"mu must lie in (1/2, 1], got {mu!r}")
    c = coherent_coefficients(displacement_amplitude(u_hat, mu), trunc.dim)
    leakage = max(0.0, 1.0 - float(np.vdot(c, c).real))
    scale = (2.0 * mu - 1.0) / math.pi
    return FockOperator(math.sqrt(scale) * c[:, None], deficit=leakage)


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


def embed_block(rho_j: np.ndarray, emb: EmbeddingMap) -> np.ndarray:
    """V_j rho V_j^dag: the block becomes the top-left corner, zeros elsewhere."""
    d = emb.j.dim
    rho_j = np.asarray(rho_j, dtype=complex)
    if rho_j.shape != (d, d):
        raise ValidationError(f"block shape {rho_j.shape} does not match spin {emb.j}")
    out = np.zeros((emb.trunc.dim, emb.trunc.dim), dtype=complex)
    out[:d, :d] = rho_j
    return out


def inverse_channel_block(phi: np.ndarray, emb: EmbeddingMap) -> np.ndarray:
    """Left inverse of embed_block, extended to all oscillator states.

    The block-diagonal part inside the image comes back unchanged; the trace
    sitting outside the image is routed to |j, j> (index 0), which keeps the
    map trace preserving.  ``channels.inverse_channel`` is this map on a
    factor of phi.
    """
    m = np.asarray(phi, dtype=complex)
    d = min(emb.j.dim, m.shape[0])
    out = np.zeros((emb.j.dim, emb.j.dim), dtype=complex)
    out[:d, :d] = m[:d, :d]
    leftover = float(np.trace(m[d:, d:]).real)
    out[0, 0] += leftover
    return out


def helstrom_risk(rho_plus, rho_minus) -> BinaryTestResult:
    """Minimal error probability 1/2 (1 - ||r+ - r-||_1 / 2) of two dense
    density matrices, from one eigendecomposition of their difference."""
    eigs = np.linalg.eigvalsh(
        np.asarray(rho_plus, dtype=complex) - np.asarray(rho_minus, dtype=complex)
    )
    tnorm = float(np.abs(eigs).sum())
    return BinaryTestResult(risk=0.5 * (1.0 - 0.5 * tnorm), error_bound=0.0)


def discrimination_limit(u: LocalParam) -> float:
    """Limit risk for the pure case: (1 - sqrt(1 - e^{-4|u|^2})) / 2, the
    closed form of ``measurements.limit_discrimination`` at mu = 1."""
    return 0.5 * (1.0 - math.sqrt(-math.expm1(-4.0 * u.norm ** 2)))


def _as_points(u_hat) -> tuple[np.ndarray, bool]:
    if isinstance(u_hat, LocalParam):
        return np.array([[u_hat.ux, u_hat.uy]]), True
    pts = np.asarray(u_hat, dtype=float)
    if pts.ndim == 1:
        return pts.reshape(1, 2), True
    return pts.reshape(-1, 2), False


def _spin_coherent_rows(twoj: int, wx: np.ndarray, wy: np.ndarray, num_rows: int) -> np.ndarray:
    """Spin coherent amplitudes |j, w> in closed form: shape (points, num_rows).

    Entry k is sqrt(C(2j, k)) zeta^k (1 - |zeta|^2)^{(2j-k)/2} with
    zeta = e^{i phi} sin|w|, phi = Arg(-w_y + i w_x), the oracle for
    ``irreps.spin_coherent_coords``.  The squared modulus is the binomial
    pmf at q = sin^2|w|, taken in Loader's saddle-point form
    (``qubit_model._log_binomial_pmf``, which shares no code with the column
    kernel): a sum of logs of sin and cos powers would cancel terms of size
    2j and lose 1e-12 of the bulk at 2j ~ 65536.  Rows beyond num_rows are
    dropped; callers choose num_rows so the dropped amplitudes are below
    their tolerance.
    """
    r = np.hypot(wx, wy)
    if np.any(r >= math.pi / 2):
        raise DomainError("spin coherent coordinates need |w| < pi/2")
    phi = np.arctan2(wx, -wy)
    k = np.arange(num_rows)
    out = np.zeros((len(r), num_rows), dtype=complex)
    pos = r > 0
    if np.any(pos):
        q = np.sin(r[pos])[:, None] ** 2
        # the saddle-point form holds below k = 2j; k = 2j is q^(2j)
        inside = np.minimum(k, max(twoj - 1, 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pmf = np.where(k == twoj, twoj * np.log(q), _log_binomial_pmf(twoj, inside, q))
        amp = np.where(k <= twoj, np.exp(0.5 * log_pmf), 0.0)
        # phases e^{i k phi} as a running product of the unit step e^{i phi};
        # a real exponential plus complex multiplies beats a complex exp per
        # entry, and the |q| = 1 drift stays orders below the amplitudes' own
        # rounding for any realistic row count
        phases = np.empty((int(pos.sum()), num_rows), dtype=complex)
        phases[:, 0] = 1.0
        if num_rows > 1:
            phases[:, 1:] = np.exp(1j * phi[pos])[:, None]
            np.cumprod(phases[:, 1:], axis=1, out=phases[:, 1:])
        out[pos] = amp * phases
    out[~pos, 0] = 1.0
    return out


def covariant_block_density(j: HalfInteger, n: int, rho_j: np.ndarray, u_hat):
    """Outcome density of the covariant block measurement on the plane.

    (2j+1)/(4 pi) <j, u/sqrt(n)| rho_j |j, u/sqrt(n)> times the plane Jacobian.
    Integrating over the disk |u| < pi sqrt(n)/2 against d^2 u resolves the
    identity, so a unit-trace block yields total mass one.
    """
    pts, scalar = _as_points(u_hat)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(radii >= injectivity_radius(n)):
        raise DomainError(
            f"|u_hat| must stay below pi sqrt(n)/2 = {injectivity_radius(n):.3f}"
        )
    sq = math.sqrt(n)
    rows = _spin_coherent_rows(j.twoj, pts[:, 0] / sq, pts[:, 1] / sq, j.dim)
    rho = np.asarray(rho_j, dtype=complex)
    vals = np.einsum("gi,ij,gj->g", rows.conj(), rho, rows).real
    dens = (j.dim / (4.0 * math.pi)) * vals * plane_jacobian(n, radii)
    return float(dens[0]) if scalar else dens


def heterodyne_pullback_density(j: HalfInteger, rho_j: np.ndarray, mu: float, u_hat):
    """Heterodyne outcome density pulled back through the block embedding.

    Only the coherent components inside the block's image contribute:
    (2 mu - 1)/pi |<z_uhat| V_j rho V_j^dag |z_uhat>| truncated to 2j+1 rows.
    Wrap-around copies of the density sit at distance 2 pi sqrt(n) and are
    dropped; their Gaussian bound is far below every tolerance used here.
    """
    pts, scalar = _as_points(u_hat)
    z = math.sqrt(2.0 * mu - 1.0) * (-pts[:, 1] + 1j * pts[:, 0])
    rows = _coherent_columns(z, j.dim)
    rho = np.asarray(rho_j, dtype=complex)
    vals = np.einsum("ig,ij,jg->g", rows.conj(), rho, rows).real
    dens = (2.0 * mu - 1.0) / math.pi * vals
    return float(dens[0]) if scalar else dens
