"""Exact dense linear algebra over the integers and rationals.

Every matrix is a ``Mat``: rows of Python ``int`` over one positive
denominator, kept reduced (the gcd of the denominator and all entries is 1).
Equality is therefore structural, and a matrix is integral exactly when its
denominator is 1.  Nothing here rounds; no floating point enters this module.

``matmul`` is the one exact product: one integer product of the rows, which
skips zero coefficients, and one gcd pass.  ``det``, ``rank`` and
``solve_unique`` all run the one fraction-free (Bareiss) elimination kernel
``_row_reduce`` on the rows; ``rational_inverse`` (and ``int_inverse`` through
it) solves against I with ``solve_unique``.  Their results are unique in exact
arithmetic, so the kernel's pivot rule cannot change any output.  The Smith,
alternating and symplectic reductions (and the kernel bases built on Smith)
return one factor among many: their fixed pivot rules decide the output bytes
and must stay as they are.  Any factor satisfying the stated equation is
correct.  These reductions return without checking themselves: each fact they
promise is decided once, by the caller that relies on it (see each docstring).

Empty blocks (0xm, mx0) are first-class values throughout; their denominator
is 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub


class ExactLinalgError(Exception):
    """Base class for exact-arithmetic failures."""


class Singular(ExactLinalgError):
    """No exact (or no integral) inverse or solution exists where one was required."""


# ---------------------------------------------------------------------------
# the matrix type


class Mat:
    """An immutable exact rational matrix with entries ``rows[i][j] / den``.

    ``Mat(rows, den, ncols)`` takes integer rows over a nonzero ``den`` and
    reduces them; ``ncols`` is needed only when there are no rows.  ``M[i, j]``
    is an entry (an ``int`` when ``den == 1``, else a ``Fraction``); indexing
    both axes with slices or index lists gives a submatrix.  ``+``, ``-``,
    ``@`` and multiplication by an int or ``Fraction`` are exact.
    """

    __slots__ = ("rows", "den", "shape")

    def __init__(self, rows, den: int = 1, ncols: int | None = None):
        rows = [list(row) for row in rows]
        if ncols is None:
            if not rows:
                raise ValueError("a matrix without rows needs ncols")
            ncols = len(rows[0])
        if any(len(row) != ncols for row in rows):
            raise ValueError("rows have unequal lengths")
        self.rows, self.den = _lowest_terms(rows, den)
        self.shape = (len(rows), ncols)

    def __repr__(self) -> str:
        return f"Mat({self.tolist()!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.den == other.den
            and self.rows == other.rows
        )

    def tolist(self) -> list[list]:
        """The entries as nested lists: ints when integral, else Fractions."""
        if self.den == 1:
            return [list(row) for row in self.rows]
        return [[Fraction(x, self.den) for x in row] for row in self.rows]

    def __getitem__(self, key):
        i, j = key
        if type(i) is int and type(j) is int:
            x = self.rows[i][j]
            return x if self.den == 1 else Fraction(x, self.den)
        rows = self.rows[i] if type(i) is slice else [self.rows[t] for t in i]
        if type(j) is slice:
            ncols = len(range(*j.indices(self.shape[1])))
            rows = [row[j] for row in rows]
        else:
            ncols = len(j)
            rows = [[row[t] for t in j] for row in rows]
        return _reduced(rows, self.den, (len(rows), ncols))

    @property
    def T(self) -> Mat:
        r, c = self.shape
        return _raw(tuple(zip(*self.rows)) if r else ((),) * c, self.den, (c, r))

    def __neg__(self) -> Mat:
        return _raw(tuple(tuple(-x for x in row) for row in self.rows), self.den, self.shape)

    def __add__(self, other: Mat) -> Mat:
        return _combine(self, other, 1)

    def __sub__(self, other: Mat) -> Mat:
        return _combine(self, other, -1)

    def __mul__(self, k) -> Mat:
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        num = k.numerator
        return _reduced([[x * num for x in row] for row in self.rows], self.den * k.denominator, self.shape)

    __rmul__ = __mul__

    def __matmul__(self, other: Mat) -> Mat:
        return matmul(self, other)


def _lowest_terms(rows: list, den: int) -> tuple[tuple, int]:
    """Integer rows over a nonzero den, divided through by their common gcd, as tuples."""
    if den < 0:
        rows, den = [[-x for x in row] for row in rows], -den
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(rows))
        if g != 1:
            rows, den = [[x // g for x in row] for row in rows], den // g
    return tuple(map(tuple, rows)), den


def _raw(rows: tuple, den: int, shape: tuple[int, int]) -> Mat:
    """A Mat of tuple rows that are already reduced over den > 0."""
    M = object.__new__(Mat)
    M.rows, M.den, M.shape = rows, den, shape
    return M


def _reduced(rows: list, den: int, shape: tuple[int, int]) -> Mat:
    """A Mat of integer rows of the given shape over a nonzero den."""
    return _raw(*_lowest_terms(rows, den), shape)


def _combine(A: Mat, B: Mat, sign: int) -> Mat:
    """A + sign * B."""
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} and {B.shape}")
    a, b = A.den, B.den
    if a == b:
        op = add if sign > 0 else sub
        return _reduced([list(map(op, ra, rb)) for ra, rb in zip(A.rows, B.rows)], a, A.shape)
    d = a // math.gcd(a, b) * b
    sa, sb = d // a, sign * (d // b)
    return _reduced([[x * sa + y * sb for x, y in zip(ra, rb)] for ra, rb in zip(A.rows, B.rows)], d, A.shape)


def mat(entries) -> Mat:
    """The matrix of nested sequences of int/Fraction entries; a Mat is returned as is."""
    if isinstance(entries, Mat):
        return entries
    rows = [list(row) for row in entries]
    if not all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        raise TypeError("matrix entries must be int or Fraction")
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return Mat([[x.numerator * (den // x.denominator) for x in row] for row in rows], den, len(rows[0]) if rows else 0)


def zeros(r: int, c: int) -> Mat:
    return _raw(((0,) * c,) * r, 1, (r, c))


@functools.cache
def eye(n: int) -> Mat:
    """The n x n identity; memoized by size, which is safe because a Mat is immutable."""
    return Mat(_identity_rows(n), 1, n)


def _placed(entries: list, size: int) -> Mat:
    """The size x size matrix with the int or Fraction v at (i, j) for each (i, j, v), over one denominator."""
    den = math.lcm(*(v.denominator for _, _, v in entries))
    rows = [[0] * size for _ in range(size)]
    for i, j, v in entries:
        rows[i][j] = v.numerator * (den // v.denominator)
    return _reduced(rows, den, (size, size))


def diag(entries) -> Mat:
    """The diagonal matrix of ints or Fractions."""
    entries = [(i, i, v) for i, v in enumerate(entries)]
    return _placed(entries, len(entries))


def block(grid) -> Mat:
    """Assemble a matrix from a grid of blocks.

    Blocks in one grid row share their row count, and every grid row has the
    same total width.  Over the lcm of the block denominators the result is
    reduced already, since each block is.
    """
    den = math.lcm(*(B.den for brow in grid for B in brow))
    rows: list[tuple] = []
    width = None
    for brow in grid:
        h = brow[0].shape[0]
        w = sum(B.shape[1] for B in brow)
        if any(B.shape[0] != h for B in brow) or width not in (None, w):
            raise ValueError(f"block shapes do not fit: {[[B.shape for B in r] for r in grid]}")
        width = w
        parts = [B.rows if B.den == den else _scaled(B.rows, den // B.den) for B in brow]
        rows.extend([sum(pieces, ()) for pieces in zip(*parts)])
    return _raw(tuple(rows), den, (len(rows), width or 0))


def _scaled(rows: tuple, s: int) -> list[tuple]:
    return [tuple([x * s for x in row]) for row in rows]


def block_diag(*mats: Mat) -> Mat:
    """The block of the diagonal grid of mats, zero blocks elsewhere."""
    return block([[M if i == j else zeros(M.shape[0], N.shape[1]) for j, N in enumerate(mats)] for i, M in enumerate(mats)])


def is_zero(A: Mat) -> bool:
    return not any(map(any, A.rows))


def is_skew(A: Mat) -> bool:
    """A^t = -A, compared entry pair by entry pair on the rows."""
    n = A.shape[0]
    if A.shape[1] != n:
        return False
    rows = A.rows
    return all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(i, n))


def is_integral(A: Mat) -> bool:
    return A.den == 1


def to_int(M) -> Mat:
    """The integer matrix of a Mat or of nested int/Fraction entries.

    Raises:
        ValueError: if an entry is not an integer.
    """
    M = mat(M)
    if M.den != 1:
        raise ValueError("matrix has non-integer entries")
    return M


def strict_upper(A: Mat) -> Mat:
    return _reduced([[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(A.rows)], A.den, A.shape)


def matmul(*mats: Mat) -> Mat:
    """Exact product of one or more matrices.

    Each product row is the sum of the right factor's rows weighted by the
    nonzero entries of the left row, so zero coefficients cost nothing; the
    product of the denominators is divided out with one gcd pass at the end.
    """
    r, c = mats[0].shape
    rows, d = mats[0].rows, mats[0].den
    for M in mats[1:]:
        if M.shape[0] != c:
            raise ValueError(f"shape mismatch: {(r, c)} times {M.shape}")
        c = M.shape[1]
        rows = [_combination(row, M.rows, c) for row in rows]
        d *= M.den
    return _reduced(rows, d, (r, c))


def _combination(coeffs, rows: tuple, width: int):
    """sum(a * row for a, row in zip(coeffs, rows)), skipping the zero coefficients."""
    acc = None
    for a, row in zip(coeffs, rows):
        if a:
            if acc is None:
                acc = row if a == 1 else [a * x for x in row]
            elif a == 1:
                acc = list(map(add, acc, row))
            elif a == -1:
                acc = list(map(sub, acc, row))
            else:
                acc = [x + a * y for x, y in zip(acc, row)]
    return acc if acc is not None else [0] * width


# ---------------------------------------------------------------------------
# elimination-based kernels


def _row_reduce(W: list[list[int]], ncols: int, full: bool) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) elimination, in place, on the first ``ncols``
    columns of the integer rows W.

    Each column's pivot is the first nonzero entry at or below the current
    row.  Every other row being cleared becomes (p * row - f * pivot_row)
    divided by the previous pivot; the division is exact, because each entry
    is then an integer minor of the input.  Without ``full`` only the rows
    below are cleared, and rows above a pivot are final; with ``full`` the rows
    above are cleared too, so every pivot entry ends equal to the last pivot.
    Returns the pivot columns, the sign of the row swaps and the last pivot,
    which times the sign is the determinant of the pivoted block.
    """
    m = len(W)
    pivots: list[int] = []
    sign = prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if W[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            W[r], W[piv] = W[piv], W[r]
            sign = -sign
        top = W[r]
        p = top[col]
        for i in range(0 if full else r + 1, m):
            if i != r:
                row = W[i]
                f = row[col]
                if f:
                    W[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
                elif prev == p:
                    continue
                else:
                    W[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(col)
    return pivots, sign, prev


def det(M: Mat) -> Fraction:
    """Exact determinant; det of the empty 0x0 matrix is 1."""
    n, m = M.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    pivots, sign, last = _row_reduce([list(row) for row in M.rows], n, full=False)
    return Fraction(sign * last, M.den**n) if len(pivots) == n else Fraction(0)


def rank(M: Mat) -> int:
    pivots, _, _ = _row_reduce([list(row) for row in M.rows], M.shape[1], full=False)
    return len(pivots)


def rational_inverse(M: Mat) -> Mat:
    """Exact inverse: solve_unique(M, I), the fraction-free reduction of [d M | d I].

    Raises:
        Singular: if the determinant is zero.
    """
    n, m = M.shape
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    try:
        return solve_unique(M, eye(n))
    except Singular:
        raise Singular("matrix is singular") from None


def int_inverse(M: Mat) -> Mat:
    """Integer inverse of M; raises Singular if det M = 0 or |det M| != 1."""
    inv = rational_inverse(M)
    if inv.den != 1:
        raise Singular("matrix is not unimodular: its inverse is not integral")
    return inv


def solve_unique(A: Mat, B: Mat) -> Mat:
    """Solve A X = B exactly for A of full column rank.

    Both sides are brought over one common denominator d and [d A | d B] is
    reduced fraction-free.

    Raises:
        Singular: if no exact solution exists or A is column-rank
            deficient.
    """
    m, r = A.shape
    if B.shape[0] != m:
        raise ValueError("shape mismatch")
    dA, dB = A.den, B.den
    d = dA // math.gcd(dA, dB) * dB
    sA, sB = d // dA, d // dB
    W = [[x * sA for x in ra] + [x * sB for x in rb] for ra, rb in zip(A.rows, B.rows)]
    pivots, _, last = _row_reduce(W, r, full=True)
    if len(pivots) < r:
        raise Singular("coefficient matrix is column-rank deficient")
    if any(x for row in W[r:] for x in row[r:]):
        raise Singular("system has no exact solution")
    return _reduced([row[r:] for row in W[:r]], last, (r, B.shape[1]))


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd with a canonical Bezout certificate.

    Returns (g, c, d) with c*a + d*b = g = gcd(a, b) > 0 and, when b != 0,
    0 <= c < |b|/g.  For b == 0 the certificate is (|a|, sign(a), 0).

    Raises:
        ExactLinalgError: if a == b == 0.
    """
    if a == 0 and b == 0:
        raise ExactLinalgError("gcd(0, 0) has no certificate")
    if b == 0:
        return abs(a), (1 if a > 0 else -1), 0
    g = math.gcd(a, b)
    c = pow(a // g, -1, abs(b) // g)  # the one c in [0, |b|/g) with c * a = g (mod b)
    return g, c, (g - c * a) // b


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True, eq=False)
class SnfResult:
    """U @ M @ V = D with U, V unimodular and D in Smith form; U is not kept, no caller reads it."""

    D: Mat
    V: Mat


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _swap_columns(W: list[list[int]], i: int, j: int) -> None:
    for row in W:
        row[i], row[j] = row[j], row[i]


def _min_entry(W: list[list[int]], t: int, upper: bool = False):
    """Row-major first nonzero entry of least absolute value in W[t:, t:],
    or with ``upper`` in the strict upper triangle of W[t:, :]."""
    best = None
    best_val = None
    for i in range(t, len(W)):
        row = W[i]
        for j in range(i + 1 if upper else t, len(row)):
            v = row[j]
            if v != 0 and (best is None or abs(v) < best_val):
                best, best_val = (i, j), abs(v)
    return best


def smith_normal_form(M: Mat) -> SnfResult:
    """Smith normal form with a fixed pivot rule.

    Pivot selection takes the nonzero entry of smallest absolute value in the
    working block, ties broken in row-major order; the diagonal is
    sign-normalized to be non-negative.  Only the column operations are
    accumulated, into V.  Returned unchecked: V is R0 of
    normal_form.normalize, decided by rho(R0) and detect_special_form.
    """
    m, n = M.shape
    A = [list(row) for row in to_int(M).rows]
    V = _identity_rows(n)
    t = 0
    while t < min(m, n):
        if _min_entry(A, t) is None:
            break
        while True:
            i, j = _min_entry(A, t)
            if i != t:
                A[t], A[i] = A[i], A[t]
            if j != t:
                _swap_columns(A, t, j)
                _swap_columns(V, t, j)
            p = A[t][t]
            again = False
            for r in range(t + 1, m):
                if A[r][t] != 0:
                    q = A[r][t] // p
                    if q:
                        A[r] = [a - q * b for a, b in zip(A[r], A[t])]
                    if A[r][t] != 0:
                        again = True
            if again:
                continue
            for c in range(t + 1, n):
                if A[t][c] != 0:
                    q = A[t][c] // p
                    if q:
                        for W in (A, V):
                            for row in W:
                                row[c] -= q * row[t]
                    if A[t][c] != 0:
                        again = True
            if again:
                continue
            bad = next((r for r in range(t + 1, m) if any(A[r][c] % p for c in range(t + 1, n))), None)
            if bad is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
        t += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-a for a in A[i]]
    return SnfResult(D=Mat(A, 1, n), V=Mat(V, 1, n))


def complete_basis(C: Mat) -> Mat:
    """Unimodular matrix whose trailing columns span the integer kernel of C."""
    return smith_normal_form(C).V


# ---------------------------------------------------------------------------
# alternating and symplectic normal forms


def _congr_swap(W: list[list[int]], Q: list[list[int]], i: int, j: int) -> None:
    W[i], W[j] = W[j], W[i]
    _swap_columns(W, i, j)
    _swap_columns(Q, i, j)


def _congr_add(W: list[list[int]], Q: list[list[int]], dst: int, src: int, s: int) -> None:
    # column op followed by its mirrored row op keeps W congruent-skew.
    for M in (W, Q):
        for row in M:
            row[dst] += s * row[src]
    W[dst] = [a + s * b for a, b in zip(W[dst], W[src])]


def canonical_alternating(h: list, size: int) -> Mat:
    """[[0, P, 0], [-P, 0, 0], [0, 0, 0]] for P = diag(h) of ints or Fractions, as int rows over one denominator."""
    k = len(h)
    return _placed([(j, k + j, v) for j, v in enumerate(h)] + [(k + j, j, -v) for j, v in enumerate(h)], size)


def alternating_normal_form_int(A: Mat) -> tuple[Mat, Mat, list]:
    """Reduce an integer alternating form: A = R^t * canonical * R.

    Returns (R, R^-1, h) with R unimodular and h the positive block multipliers
    h_1..h_k, k = rank(A)/2.  R^-1 is the accumulated congruence and R its
    int_inverse; the equation is decided by the torsion_normal_form certificate.

    Raises:
        ExactLinalgError: if A != -A^t or A is not of even size.
    """
    n = A.shape[0]
    if not is_skew(A):
        raise ExactLinalgError("alternating reduction needs an integer skew-symmetric matrix")
    if n % 2 != 0:
        raise ExactLinalgError("alternating reduction is defined for even size")
    W = [list(row) for row in to_int(A).rows]
    Q = _identity_rows(n)
    t = 0
    hs: list = []
    while t < n:
        loc = _min_entry(W, t, upper=True)
        if loc is None:
            break
        while True:
            i, j = _min_entry(W, t, upper=True)
            if i != t:
                _congr_swap(W, Q, t, i)
                if j == t:
                    j = i
            if j != t + 1:
                _congr_swap(W, Q, t + 1, j)
            a = W[t][t + 1]
            again = False
            for c in range(t + 2, n):
                if W[t][c] != 0:
                    _congr_add(W, Q, c, t + 1, -(W[t][c] // a))
                    if W[t][c] != 0:
                        again = True
                if W[t + 1][c] != 0:
                    # W[t+1][t] = -a, so adding s*col_t moves W[t+1][c] by -s*a.
                    _congr_add(W, Q, c, t, W[t + 1][c] // a)
                    if W[t + 1][c] != 0:
                        again = True
            if not again:
                break
        hs.append(W[t][t + 1])
        t += 2
    for idx in range(len(hs)):
        if hs[idx] < 0:
            _congr_swap(W, Q, 2 * idx, 2 * idx + 1)
            hs[idx] = -hs[idx]
    k = len(hs)
    order = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2)) + list(range(2 * k, n))
    R_inv = Mat([[row[j] for j in order] for row in Q], 1, n)
    return int_inverse(R_inv), R_inv, hs


@functools.cache
def standard_symplectic(p: int) -> Mat:
    """[[0, I_p], [-I_p, 0]]; memoized by size like eye."""
    return canonical_alternating([1] * p, 2 * p)


def symplectic_factor_rational(A: Mat) -> Mat:
    """Rational T with T^t J0 T = A for invertible skew rational A.

    Symplectic Gram-Schmidt over the rationals: the pivot is the first basis
    vector not yet consumed, its partner the first remaining vector with
    nonzero pairing, and the pivot is rescaled so the pair couples to 1.
    The basis S then has S^t A S = J0, so T = S^-1 = -J0 S^t A is formed
    without an inverse.  T^t J0 T = A is not re-multiplied here: it is the
    top-left block of T_pullback's T^t J T, less Z (A = theta_11 - Z).

    Each vector is held as integers xs over its own denominator dx, and with
    A = F / dA the pairing of x and y is (xs^t F ys) / (dx dA dy), so every
    pairing and update runs on ints.

    Raises:
        ExactLinalgError: if A is not skew-symmetric.
        Singular: if A is singular (odd sizes always are); a basis vector
            then finds no partner.
    """
    if not is_skew(A):
        raise ExactLinalgError("symplectic factorization needs a skew-symmetric matrix")
    n = A.shape[0]
    if n == 0:
        return zeros(0, 0)
    cols, dA = list(zip(*A.rows)), A.den

    def covector(x: list[int]) -> list[int]:
        """xs^t F, so that the pairing numerator with ys is a dot product."""
        return [sum(map(mul, x, col)) for col in cols]

    def dot(x, y) -> int:
        return sum(map(mul, x, y))

    remaining = [(row, 1) for row in _identity_rows(n)]
    us, vs = [], []
    while remaining:
        u, du = remaining.pop(0)
        uF = covector(u)
        idx = next((i for i, (w, _) in enumerate(remaining) if dot(uF, w)), None)
        if idx is None:
            raise Singular("alternating form is degenerate")
        v, dv = remaining.pop(idx)
        # u / pair(u, v) = u * dA * dv / (us^t F vs)
        (u,), du = _lowest_terms([[x * dA * dv for x in u]], dot(uF, v))
        uF, vF = covector(u), covector(v)
        updated = []
        for r, dr in remaining:
            pvr, pur = dot(vF, r), dot(uF, r)
            if pvr or pur:
                # r + pair(v, r) u - pair(u, r) v over dr dv dA du
                scale = dv * dA * du
                (r,), dr = _lowest_terms([[x * scale + pvr * a - pur * b for x, a, b in zip(r, u, v)]], dr * scale)
            updated.append((r, dr))
        remaining = updated
        us.append((u, du))
        vs.append((v, dv))
    basis = us + vs
    den = math.lcm(*(d for _, d in basis))
    St = Mat([[x * (den // d) for x in xs] for xs, d in basis], den, n)  # S^t: the basis vectors as rows
    return -matmul(standard_symplectic(n // 2), St, A)
