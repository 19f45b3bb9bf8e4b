"""SU(2) irreducible representation machinery.

Basis convention used everywhere in this package: the spin-j block is spanned
by the weight vectors ordered by *descending* magnetic number, so array index
``i`` holds |j, m = j - i>.  With that ordering the embedding of a block into
the oscillator's number basis (|j, m> -> |j - m>) is the identity on indices.

Rotation convention: the rotation U_j(u) is the restriction to the spin-j
block of the product rotation exp(i(u_x s_x + u_y s_y))^(tensor n) acting
on the underlying qubits, where s_x, s_y are Pauli matrices.  The
collective generators are therefore twice the spin matrices; at j = 1/2
this reproduces the one-qubit closed form

    [[cos|u|, -e^{-i phi} sin|u|], [e^{i phi} sin|u|, cos|u|]]

with phi = Arg(-u_y + i u_x).  ``rotation_columns`` returns the leading
columns of U_j(u) as a real core: they are Krawtchouk functions, which the
column kernel ``numerics.three_term_columns`` runs from the spin coherent
vector.  ``rotation_walk`` yields those cores for a whole range of spins at
one rotation, one at a time: it starts with one ``rotation_columns`` call at
the lowest spin and climbs in whole steps of j, coupling two more qubits at
a time (``_whole_step``), so the blocks of one (n, u) share a single kernel
call, every step lands on a spin the range keeps, and the walk holds only
the core it steps from.  Each core comes with the mass the row trimming has
dropped up to its step.  The dense U_j(u) is
``spingauss.reference.rotation_unitary``, and the half-step walk that
couples one qubit at a time is ``spingauss.reference.half_step_walk``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .numerics import coherent_row_support, gauge_phases, mirror_rows, three_term_columns, trim_rows

# Largest rotation angle |w| taken: from 2^26 on, the spacing of doubles is
# at least 2^-26, so w mod pi keeps fewer than half of a double's digits.
MAX_ANGLE = 2.0 ** 26


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Total spin j, stored exactly as the integer 2j."""

    twoj: int

    def __post_init__(self):
        if isinstance(self.twoj, bool) or not isinstance(self.twoj, (int, np.integer)) or self.twoj < 0:
            raise DomainError(f"twoj must be a nonnegative integer, got {self.twoj!r}")
        object.__setattr__(self, "twoj", int(self.twoj))

    @property
    def value(self) -> float:
        return self.twoj / 2.0

    @property
    def dim(self) -> int:
        """Dimension 2j + 1 of the spin-j irreducible representation."""
        return self.twoj + 1

    def __str__(self) -> str:
        return str(self.twoj // 2) if self.twoj % 2 == 0 else f"{self.twoj}/2"


@dataclass(frozen=True)
class LocalParam:
    """Local rotation parameter u = (u_x, u_y) in the plane."""

    ux: float
    uy: float

    def __post_init__(self):
        if not (math.isfinite(self.ux) and math.isfinite(self.uy)):
            raise DomainError(f"local parameter must be finite, got ({self.ux}, {self.uy})")

    @property
    def norm(self) -> float:
        return math.hypot(self.ux, self.uy)

    @property
    def alpha(self) -> complex:
        """The associated phase-space amplitude -u_y + i u_x."""
        return complex(-self.uy, self.ux)

    @property
    def angle(self) -> float:
        """Arg(-u_y + i u_x); by convention 0 at u = 0 (only ever used through
        zeta = e^{i angle} sin|u|, which vanishes there).

        It is also the angle of u's frame, which every state built at u is
        stored in (``qubit_model``): rotated blocks and the displaced thermal
        state are real cores there, and the diagonal phase e^{ik angle}
        takes them back to the plane's fixed frame."""
        if self.norm == 0.0:
            return 0.0
        return math.atan2(self.ux, -self.uy)

    def scaled(self, factor: float) -> "LocalParam":
        return LocalParam(self.ux * factor, self.uy * factor)

    def __neg__(self) -> "LocalParam":
        return LocalParam(-self.ux, -self.uy)

    def __add__(self, other: "LocalParam") -> "LocalParam":
        return LocalParam(self.ux + other.ux, self.uy + other.uy)


def _krawtchouk_columns(twoj: int, w: float, cols: int) -> np.ndarray:
    """The real core of U_j(w)[:, :cols] at 0 <= w <= pi/4 (``rotation_columns``).

    The recurrence runs the columns k <= j; a column k > j is
    M[x, k] = (-1)^(x+k) M[2j - x, 2j - k] (M commutes with R = U_j(pi/2)),
    since past k = j the recurrence loses its growth on the last rows.
    """
    if w == 0.0:
        return np.eye(cols)
    s, c = math.sin(w), math.cos(w)
    half = min(cols, twoj // 2 + 1)
    rows = min(twoj + 1, coherent_row_support((math.sqrt(twoj) * s + math.sqrt(half)) ** 2))
    x = np.arange(rows - 1)
    k = np.arange(half)
    low = three_term_columns(
        np.sqrt((twoj - x) / (x + 1.0)) * (s / c),
        s * s * (twoj - 2 * k) + k,
        s * c * np.sqrt(k * (twoj + 1.0 - k)),
    )
    if cols == half:
        return low
    core = np.pad(low, ((0, twoj + 1 - low.shape[0]), (0, cols - half)))
    high = np.arange(half, cols)
    core[:, high] = (-1.0) ** (np.arange(twoj + 1)[:, None] + high) * core[::-1, twoj - high]
    return core


def rotation_columns(j: HalfInteger, radius: float, cols: int) -> np.ndarray:
    """Real core of the leading ``cols`` columns of U_j(u) at |u| = ``radius``.

    The generator is gauge-equivalent, via the diagonal phase
    e^{ik atan2(u_y, u_x)}, to |u| times the fixed tridiagonal x generator X_j
    with couplings sqrt(i (2j + 1 - i)), so

        U_j(u)[r, c] = e^{i(r-c) psi} M[r, c]

    with psi = u.angle and M real, U_j(u) in u's frame, which depends on
    |u| only: every u of one radius gets the very same core.  U_j(-u) is
    then S U_j(u) S with S = diag((-1)^k).  The columns of M at w = |u| are
    Krawtchouk functions: with N = 2j, p = sin^2 w and q = cos^2 w, column 0
    is sqrt(C(N, x) p^x q^(N-x)), and ``numerics.three_term_columns`` runs
    b_k = p (N - 2k) + k, c_k = sqrt(p q k (N - k + 1)).  The recurrence is
    stable for p <= 1/2, so w is first taken to [0, pi/4] by
    U_j(w + pi) = (-1)^N U_j(w), U_j(-w) = S U_j(w) S and
    U_j(w) = R U_j(w - pi/2), R[N - k, k] = (-1)^k.  At radius 0 the
    columns are the identity.  The rows are those the columns reach (at
    most 2j + 1), up to the trailing ones below ``numerics.WALK_TRIM``.  A
    radius of ``MAX_ANGLE`` or more raises ``DomainError``.
    """
    _check_angle(radius)
    twoj, cols = j.twoj, min(cols, j.dim)
    signs = (-1.0) ** np.arange(cols)
    turns, w = divmod(radius, math.pi)
    mirror = w > math.pi / 2
    w = math.pi - w if mirror else w
    flip = w > math.pi / 4
    core = _krawtchouk_columns(twoj, math.pi / 2 - w if flip else w, cols)
    if flip:  # U_j(w)[x, k] = (-1)^k U_j(pi/2 - w)[N - x, k]
        core = np.pad(core, ((0, j.dim - core.shape[0]), (0, 0)))[::-1] * signs
    if mirror:  # U_j(w)[x, k] = (-1)^(N + x + k) U_j(pi - w)[x, k]
        core = mirror_rows(core) * signs
    return -core if twoj * (int(turns) + mirror) % 2 else core


def _check_angle(radius: float) -> None:
    """Raise ``DomainError`` for a rotation angle whose double no longer holds
    its value mod pi to half precision (``MAX_ANGLE``)."""
    if not radius < MAX_ANGLE:
        raise DomainError(
            f"rotation angle |u|/sqrt(n) = {radius:.6g} is past 2^26, where its double "
            "keeps fewer than half of its digits mod pi"
        )


def core_rows(twoj: int, radius: float, cols: int) -> int:
    """Rows of the core of U_j(w)[:, :cols], 2j = ``twoj``, |w| = ``radius``,
    from one ``rotation_columns`` call: taken at the top of a range before
    its walk, an estimate of the rows the walk's cores reach (0 to 6 rows
    above them on the 48 grid points tested), not a bound."""
    return rotation_columns(HalfInteger(twoj), radius, cols).shape[0]


def _whole_step(prev: np.ndarray, twoj: int, d1: np.ndarray, cols: int) -> np.ndarray:
    """The core of spin j + 1 = twoj/2 from the core ``prev`` of spin j.

    The symmetric states of T = twoj qubits couple the symmetric states of
    the first T - 2 with those of the last two: with x qubits down,
    |T, x> = sum_q alpha_{x,q} |T - 2, x - q> |2, q>, where
    alpha_{x,q}^2 = C(T - 2, x - q) C(2, q) / C(T, x), that is
    (T - x)(T - 1 - x), 2x(T - x) and x(x - 1) over T(T - 1) for q = 0, 1, 2.
    The pair turns by ``d1``, the symmetric square of the qubit core
    [[c, -s], [s, c]], so

        M[l, k] = sum_{q, q'} alpha_{l,q} alpha_{k,q'} d1[q, q'] M'[l - q, k - q'].

    ``prev`` holds the leading rows of M' (missing rows are zero), so the
    result reaches two rows further; it keeps min(cols, T + 1) columns, and
    a column of M' out of its range is zero.  The rows of M' never pass
    2j + 1 = T - 1, so x never passes T and no alpha^2 is negative.
    """
    rows, have = prev.shape
    width = min(cols, twoj + 1)
    x = np.arange(max(rows + 2, width))
    tx = twoj - x
    alpha = np.sqrt(np.array([tx * (tx - 1), 2 * x * tx, x * (x - 1)]) / (twoj * (twoj - 1.0)))
    # the columns: plane q' holds alpha_{k,q'} M'[r, k - q'], and one
    # product with d1 mixes the three
    shifted = np.zeros((3, rows, width))
    for q in range(3):
        h = max(0, min(have, width - q))
        np.multiply(prev[:, :h], alpha[q, q : q + h], out=shifted[q, :, q : q + h])
    mixed = (d1 @ shifted.reshape(3, -1)).reshape(3, rows, width)
    # the rows: plane q, scaled by alpha_{l,q}, lands q rows down
    out = np.zeros((rows + 2, width))
    for q in range(3):
        plane = mixed[q]
        plane *= alpha[q, q : q + rows, None]
        out[q : q + rows] += plane
    return out


def rotation_walk(lo: int, hi: int, radius: float, cols: int) -> Iterator[tuple[np.ndarray, float]]:
    """Real cores of U_j(w)[:, :min(cols, 2j + 1)] for 2j = lo, lo + 2, ..., hi,
    at |w| = ``radius``, yielded one at a time, each with the mass the walk
    has trimmed up to its step.

    Each core is, to rounding, the one ``rotation_columns`` returns, in the
    same frame, w's, on the rows it reaches (at most 2j + 1).  One
    ``rotation_columns`` call gives the core at 2j = lo, so lo = hi is
    exactly that call; each whole step up in j is ``_whole_step``, which
    couples two more qubits at once and lands on the next spin of lo's
    parity (the two-qubit form of Risbo's recursion, J. Geodesy 70, 383,
    1996).  After every step the trailing rows below ``numerics.WALK_TRIM``
    are trimmed.  The mass yielded with a core is what the trimming dropped
    over the steps up to it, 0 at 2j = lo: it bounds the trace any column
    of that core lost to it, and it never decreases along the walk.  The
    walk holds only the core it steps from, so the caller must not write
    into a yielded core.  A range that is not one parity, or a radius of
    ``MAX_ANGLE`` or more, raises at the call, before any core is built.
    """
    if not 0 <= lo <= hi or (hi - lo) % 2:
        raise DomainError(f"spin range 2j = {lo}..{hi} is not a same-parity range")
    _check_angle(radius)
    return _walk(lo, hi, radius, cols)


def _walk(lo: int, hi: int, radius: float, cols: int) -> Iterator[tuple[np.ndarray, float]]:
    """The steps of ``rotation_walk``."""
    c, s = math.cos(radius), math.sin(radius)
    cs = math.sqrt(2.0) * c * s
    d1 = np.array([[c * c, -cs, s * s], [cs, c * c - s * s, -cs], [s * s, cs, c * c]])
    core = rotation_columns(HalfInteger(lo), radius, cols)
    trimmed = 0.0
    yield core, trimmed
    for twoj in range(lo + 2, hi + 1, 2):
        core, mass = trim_rows(_whole_step(core, twoj, d1, cols))
        # every column of U_j is a unit vector: rescaling to it keeps the
        # rounding of c^2 + s^2 = 1, the same every step, from compounding
        core = core / np.sqrt(np.einsum("ij,ij->j", core, core))
        trimmed += mass
        yield core, trimmed


def spin_coherent_coords(j: HalfInteger, w: LocalParam) -> np.ndarray:
    """Coordinates of the spin coherent vector |j, w> = U_j(w)|j, j>.

    This is column 0 of U_j(w): the real core ``rotation_columns(j, |w|, 1)``
    in w's frame, with the frame phase e^{ik w.angle} put back, padded with
    zeros to 2j + 1 entries.  In the descending-m convention entry k is
    sqrt(C(2j, k)) zeta^k (1 - |zeta|^2)^{(2j-k)/2} with
    zeta = e^{i w.angle} sin|w| (the closed form
    ``spingauss.reference._spin_coherent_rows``); for one column the kernel
    returns its start column alone, a running product of ratios.
    """
    r = w.norm
    if r >= math.pi / 2:
        raise DomainError(f"|w| = {r:.6f} outside the principal branch |w| < pi/2")
    col = rotation_columns(j, r, 1)[:, 0]
    out = np.zeros(j.dim, dtype=complex)
    out[: len(col)] = gauge_phases(w.angle, len(col)) * col
    return out
