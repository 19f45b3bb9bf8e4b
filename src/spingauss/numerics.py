"""Linear algebra primitives shared by all other modules.

Everything operates on plain numpy arrays.  The rotated states never exist
as dense matrices: two structured routines carry them.
``three_term_columns`` is the one kernel for the exponential of a
phase-gauged tridiagonal generator (spin rotations and oscillator
displacements are both of this form).  The generator is bipartite, so the
exponential is a real matrix up to a diagonal phase e^{ik angle}, and the
kernel returns its leading columns as that real core, the exponential in
the frame of its angle (``qubit_model`` states the frame every state is
stored in).  Those columns are an orthonormal family, Krawtchouk functions
for a rotation and Charlier functions for a displacement, so the kernel
runs their three-term recurrence from the start column, the square root of
the binomial or Poisson weight, and fills the rest by the symmetry of the
real core.  ``factor_difference_eigvals`` diagonalizes F F^dag - G G^dag,
two cores in one frame, on the span of the two low-rank factors instead of
on the full space, in real arithmetic for real cores: on the rows the cores
reach while they are at most ``QR_ROW_RATIO`` times the columns of [F G],
else on the R of a QR of [F G].  A caller that has formed F F^dag or
G G^dag for its own use passes it along, and the kernel reads it wherever
the difference lies on that core's own rows.  ``mirror_trace_norm`` is
the special case G = S F, S = diag((-1)^k), a state against its own
mirror, which needs no stack and no QR.
``trace_norm`` takes the one dense trace norm left, the forward distance
over the leading rows the factors reach.

``stirling_remainder`` is the correction to Stirling's log-factorial that
the saddle-point forms of the binomial block weights (``qubit_model``, over
a whole array of spins at once) and of the coherent rows (``oscillator``)
share.

The dense eigendecomposition, unitary exponential and PSD factor that these
routines replaced, and the Chebyshev propagator that the kernel replaced,
live in ``spingauss.reference``, as test oracles.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import ValidationError

# Relative asymmetry (against the largest entry) accepted as rounding noise.
HERMITICITY_RTOL = 1e-12
# A QR of two stacked cores [F G] pays for itself once their rows pass this
# multiple of its columns (single-threaded LAPACK, 30 to 130 columns); up to
# it, the difference is diagonalized on the rows as it is.
QR_ROW_RATIO = 1.3
# Trailing rows of a column core whose entries all lie below this are dropped
# (each dropped entry is at most 1e-34 of trace).
WALK_TRIM = 1e-17


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


def coherent_row_support(peak: float) -> int:
    """Rows that hold every coherent vector with |z|^2 <= peak to rounding."""
    return math.ceil(peak + 10.0 * math.sqrt(peak + 4.0) + 25.0)


def trim_rows(core: np.ndarray) -> tuple[np.ndarray, float]:
    """``core`` without its trailing rows below ``WALK_TRIM``, and their mass."""
    held = (np.abs(core) >= WALK_TRIM).any(axis=1).nonzero()[0]
    keep = int(held[-1]) + 1 if len(held) else 1
    return core[:keep], float(np.sum(core[keep:] ** 2))


def _start_column(step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running product of the ratios ``step``, 1 at the mode, as
    mantissas and binary exponents (``np.frexp`` form), so that no entry
    underflows."""
    rows = len(step) + 1
    mode = int(np.count_nonzero(step >= 1.0))
    step = step.tolist()
    mant = np.ones(rows)
    expo = np.zeros(rows, dtype=np.int64)
    m, e = 1.0, 0
    for x in range(mode, rows - 1):
        m, de = math.frexp(m * step[x])
        e += de
        mant[x + 1], expo[x + 1] = m, e
    m, e = 1.0, 0
    for x in range(mode - 1, -1, -1):
        m, de = math.frexp(m / step[x])
        e += de
        mant[x], expo[x] = m, e
    return mant, expo


def three_term_columns(step: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Real core M of the leading len(b) columns of a phase-gauged tridiagonal
    exponential, from the orthonormal three-term recurrence of its columns.

    M = exp(t A) with A real antisymmetric tridiagonal (``irreps`` and
    ``oscillator`` give A and t: the rotation U_j(w) and the displacement
    D(t) in their frames).  Its column k is (-1)^k g_k(x) over the rows x,
    g_k the orthonormal functions of one hypergeometric family (Krawtchouk
    for U_j(w), Charlier for D(t); Koekoek, Lesky & Swarttouw, Springer
    2010), so

        M[x, k + 1] = ((x - b_k) M[x, k] - c_k M[x, k - 1]) / c_{k+1},

    ``b`` and ``c`` holding b_k and c_k (c_0 unused).  The start column is
    M[x, 0], the square root of the family's weight, given by its ratios
    ``step`` = M[x + 1, 0] / M[x, 0], which fall through 1 at the mode: it
    is their running product outward from the mode.  Column k is run only
    on the rows x >= k, where the recurrence is its growing solution; the
    rows x < k come from the symmetry M[x, k] = (-1)^(x+k) M[k, x]
    (M^T = exp(-t A) = S M S, S = diag((-1)^k)).  Each row runs on a
    mantissa and a binary exponent of its own (``np.frexp``), rescaled by
    exact powers of two at every step, so no entry that matters underflows
    however small t is: the start column does, long before the diagonal.
    The rows are len(step) + 1, which the caller chooses to hold every
    column to below ``WALK_TRIM``; the trailing rows below it are trimmed
    (``trim_rows``) and each column is rescaled to unit norm, which takes
    out the scale of the start column and keeps the rounding of the
    recurrence off the norm.
    """
    rows, cols = len(step) + 1, len(b)
    mant, expo = _start_column(step)
    out = np.zeros((rows, cols))
    out[:, 0] = np.ldexp(mant, expo)
    x = np.arange(rows, dtype=float)
    prev = np.zeros(rows)
    for k in range(cols - 1):
        m, shift = np.frexp(((x[k + 1 :] - b[k]) * mant[k + 1 :] - c[k] * prev[k + 1 :]) / c[k + 1])
        expo[k + 1 :] += shift
        prev[k + 1 :] = np.ldexp(mant[k + 1 :], -shift)
        mant[k + 1 :] = m
        out[k + 1 :, k + 1] = np.ldexp(m, expo[k + 1 :])
    upper = np.triu_indices(cols, 1)
    out[upper] = (-1.0) ** (upper[0] + upper[1]) * out[upper[1], upper[0]]
    out = trim_rows(out)[0]
    out /= np.sqrt(np.einsum("ij,ij->j", out, out))
    return out


def gauge_phases(angle: float, count: int) -> np.ndarray:
    """The diagonal e^{ik angle}, k = 0 .. count - 1, of a frame."""
    return np.exp(1j * angle * np.arange(count))


def mirror_rows(core: np.ndarray) -> np.ndarray:
    """S core with S = diag((-1)^k): the frame angle moved by pi."""
    out = core.copy()
    out[1::2] = -out[1::2]
    return out


def mirror_trace_norm(core: np.ndarray) -> float:
    """||F F^T - S F F^T S||_1 of a real core F, S = diag((-1)^k).

    With A = F F^T, A - S A S keeps the entries of A with k + l odd, twice
    over, so in even/odd row order it is [[0, B], [B^T, 0]] with
    B = 2 F_e F_o^T (F_e and F_o the even and odd rows of F), and its
    eigenvalues are +-sigma(B).  The trace norm is 4 times the sum of the
    singular values of F_e F_o^T; a core of one row has no odd rows, and 0.
    """
    return 4.0 * float(np.linalg.svd(core[0::2] @ core[1::2].T, compute_uv=False).sum())


def _gram_on(core: np.ndarray, gram: np.ndarray | None, rows: int, dtype) -> np.ndarray:
    """core core^dag on ``rows`` rows (missing rows are zero).  ``gram`` is
    that product on the core's own rows, if the caller has formed it; it is
    read only when those are ``rows``, since the rounding of a BLAS product
    depends on its row count (a few entries of a 117-row product move by an
    ulp once it is padded to 236 rows)."""
    if gram is not None and core.shape[0] == rows:
        return gram
    padded = np.zeros((rows, core.shape[1]), dtype=dtype)
    padded[: core.shape[0]] = core
    return padded @ padded.conj().T


def factor_difference_eigvals(
    f: np.ndarray, g: np.ndarray, f_gram: np.ndarray | None = None, g_gram: np.ndarray | None = None
) -> np.ndarray:
    """Spectrum of F F^dag - G G^dag on the span of [F G], ascending.

    ``f`` and ``g`` are the cores F and G of two states in one frame (the
    frame of a common u, where rotated cores are real).  These are the
    difference's nonzero eigenvalues plus zeros, so the sum of their
    absolute values is its trace norm; a frame is a diagonal unitary, so the
    spectrum is the same in every frame.  The cores hold the leading rows of
    their operators (missing rows are zero), so they may differ in row
    count.  ``f_gram`` and ``g_gram``, when given, are f f^dag and g g^dag
    on the cores' own rows, formed once by a caller that needs them too;
    each is read only where the difference is taken on exactly those rows,
    so every product is formed on the rows it is read on.

    The difference is diagonalized on the cheaper of two spaces.  While the
    rows are at most ``QR_ROW_RATIO`` times the columns of the stacked cores
    [f g], a QR would cost more than it saves, and f f^dag - g g^dag is
    diagonalized on those rows as it is.  Past it, [f g] = Q R, and with
    a = R[:, :rank F], b = R[:, rank F:] the difference is
    Q (a a^dag - b b^dag) Q^dag, so only R is formed, rank F + rank G
    square.  Equal factors give exactly zero: on the rows both products are
    computed from identical operands, and a tall equal pair is caught before
    its QR.
    """
    rows = max(f.shape[0], g.shape[0])
    cols = f.shape[1] + g.shape[1]
    dtype = np.result_type(f, g, float)
    if rows <= QR_ROW_RATIO * cols:
        return np.linalg.eigvalsh(_gram_on(f, f_gram, rows, dtype) - _gram_on(g, g_gram, rows, dtype))
    fp = np.zeros((rows, f.shape[1]), dtype=dtype)
    gp = np.zeros((rows, g.shape[1]), dtype=dtype)
    fp[: f.shape[0]] = f
    gp[: g.shape[0]] = g
    if np.array_equal(fp, gp):
        return np.zeros(cols)
    r = np.linalg.qr(np.hstack([fp, gp]), mode="r")
    a = r[:, : f.shape[1]]
    b = r[:, f.shape[1] :]
    return np.linalg.eigvalsh(a @ a.conj().T - b @ b.conj().T)
