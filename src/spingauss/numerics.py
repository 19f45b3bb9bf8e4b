"""Linear algebra primitives shared by all other modules.

Everything operates on plain numpy arrays.  The rotated states never exist
as dense matrices: two structured routines carry them.
``tridiagonal_propagator`` applies the exponential of a phase-gauged
tridiagonal generator to the first few unit vectors (spin rotations and
oscillator displacements are both of this form).  The generator is
bipartite, so the result is a real matrix up to a diagonal phase
e^{ik angle}, and it is returned as that real core: the propagator in the
frame of its angle (``qubit_model`` states the frame every state is stored
in).  ``factor_difference_eigvals`` diagonalizes F F^dag - G G^dag, two
cores in one frame, on the span of the two low-rank factors instead of on
the full space, in real arithmetic for real cores: on the rows the cores
reach where [F G] has at least as many columns, else on the R of a QR of
[F G].  ``trace_norm`` takes the one dense trace norm left, the forward
distance over the leading rows the factors reach.

The propagator's Chebyshev coefficients are Bessel values J_k, which
``bessel_j`` takes by Miller's backward recurrence.  ``stirling_remainder``
is the correction to Stirling's log-factorial that the saddle-point forms of
the binomial block weights (``qubit_model``, over a whole array of spins at
once) and of the coherent rows (``oscillator``) share.

The dense eigendecomposition, unitary exponential and PSD factor that these
routines replaced live in ``spingauss.reference``, as test oracles.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ValidationError

# Relative asymmetry (against the largest entry) accepted as rounding noise.
HERMITICITY_RTOL = 1e-12
# Chebyshev terms with |J_k(t s)| at or below this are dropped: far below the
# rounding of the O(1) entries the propagator returns.
CHEBYSHEV_TOL = 1e-18
# The propagator sums its Chebyshev terms in chunks of at most this many
# bytes, so its memory does not grow with the series degree.
PROPAGATOR_CHUNK_BYTES = 16 * 2**20


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a real array if it is real, else as a complex one."""
    a = np.asarray(a)
    a = a.astype(float if np.isrealobj(a) else complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def _is_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    scale = max(np.abs(a).max(), 1.0)
    return bool(np.abs(a - a.conj().T).max() <= rtol * scale)


def trace_norm(a) -> float:
    """Trace norm of a Hermitian matrix: the sum of |eigenvalues|.

    Non-Hermitian input (beyond ``HERMITICITY_RTOL``) raises ``ValidationError``.
    """
    a = as_square_matrix(a)
    if not _is_hermitian(a):
        raise ValidationError("trace_norm takes a Hermitian matrix")
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


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


# the remainder below k = 16, where the series is not yet exact, from lgamma
# (entry 0 is unused)
_STIRLING_SMALL = np.array(
    [0.0]
    + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(math.tau) for k in range(1, 16)]
)


def stirling_remainder(k):
    """log k! - (k + 1/2) log k + k - log(2 pi)/2, for integers k >= 1.

    ``k`` is an integer or an integer array, and the result has its shape.
    From k = 16 on, five terms of the Stirling series are exact to
    rounding; below it, the remainder is taken from ``math.lgamma``.
    """
    k = np.asarray(k)
    kf = np.maximum(k, 16).astype(float)
    s = 1.0 / (kf * kf)
    series = (1 / 12 - s * (1 / 360 - s * (1 / 1260 - s * (1 / 1680 - s / 1188)))) / kf
    return np.where(k < 16, _STIRLING_SMALL[np.minimum(k, 15)], series)


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


def gauge_phases(angle: float, count: int) -> np.ndarray:
    """The diagonal e^{ik angle}, k = 0 .. count - 1, of a frame."""
    return np.exp(1j * angle * np.arange(count))


def mirror_rows(core: np.ndarray) -> np.ndarray:
    """S core with S = diag((-1)^k): the frame angle moved by pi."""
    out = core.copy()
    out[1::2] = -out[1::2]
    return out


def factor_difference_eigvals(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Spectrum of F F^dag - G G^dag on the span of [F G], ascending.

    ``f`` and ``g`` are the cores F and G of two states in one frame (the
    frame of a common u, where rotated cores are real).  These are the
    difference's nonzero eigenvalues plus zeros, so the sum of their
    absolute values is its trace norm; a frame is a diagonal unitary, so the
    spectrum is the same in every frame.  The cores hold the leading rows of
    their operators (missing rows are zero), so they may differ in row
    count.

    The difference is diagonalized on the smaller of two spaces, at most
    min(rows, rank F + rank G)-dimensional.  Where the stacked cores [f g]
    have at least as many columns as rows, a QR would not shrink anything,
    and f f^dag - g g^dag is diagonalized on those rows as it is.  Otherwise
    [f g] = Q R, and with a = R[:, :rank F], b = R[:, rank F:] the
    difference is Q (a a^dag - b b^dag) Q^dag, so only R is formed.  Equal
    factors give exactly zero: on the rows both products are computed from
    identical operands, and a tall equal pair is caught before its QR.
    """
    rows = max(f.shape[0], g.shape[0])
    cols = f.shape[1] + g.shape[1]
    dtype = np.result_type(f, g, float)
    fp = np.zeros((rows, f.shape[1]), dtype=dtype)
    gp = np.zeros((rows, g.shape[1]), dtype=dtype)
    fp[: f.shape[0]] = f
    gp[: g.shape[0]] = g
    if cols >= rows:
        return np.linalg.eigvalsh(fp @ fp.conj().T - gp @ gp.conj().T)
    if np.array_equal(fp, gp):
        return np.zeros(cols)
    r = np.linalg.qr(np.hstack([fp, gp]), mode="r")
    a = r[:, : f.shape[1]]
    b = r[:, f.shape[1] :]
    return np.linalg.eigvalsh(a @ a.conj().T - b @ b.conj().T)
