"""Exact dense linear algebra over the integers and rationals.

At every public boundary a matrix is a numpy array with ``dtype=object`` whose
entries are Python ``int`` or ``fractions.Fraction`` values, so everything
here is exact; no floating point enters this module.

Inside, the rational kernels work on rows of Python ``int`` over one common
denominator (``_scaled_rows``) and convert back to ``Fraction`` once per
output entry.  ``matmul`` is the one exact product of matrices that may hold
non-integral entries: it multiplies the integer rows and divides by the
product of the denominators once.  ``det``, ``rank``, ``rational_inverse``,
``int_inverse`` and ``solve_unique`` all run the one fraction-free (Bareiss)
elimination kernel ``_row_reduce``.  Their results are unique in exact
arithmetic, so the kernel's pivot rule cannot change any output.  The
Smith, alternating and symplectic reductions (and the kernel bases built on
Smith) return one factor among many: their fixed pivot rules decide the output
bytes and must stay as they are.  Any factor satisfying the stated equation is
correct, and each reduction re-multiplies and checks itself before returning.

Empty blocks (0xm, mx0) are first-class values throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np


class ExactLinalgError(Exception):
    """Base class for exact-arithmetic failures."""


class Singular(ExactLinalgError):
    """Matrix has determinant zero where an inverse was required."""


class NotSkew(ExactLinalgError):
    """Input is not skew-symmetric."""


class OddSize(ExactLinalgError):
    """Operation requires an even-sized square matrix."""


class BothZero(ExactLinalgError):
    """gcd certificate of (0, 0) requested."""


class Inconsistent(ExactLinalgError):
    """Linear system has no exact solution."""


# ---------------------------------------------------------------------------
# constructors and predicates


def mat(rows) -> np.ndarray:
    """Build an object-dtype matrix from nested sequences of int/Fraction."""
    A = np.array(rows, dtype=object)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    return A


def _from_rows(rows: list[list], shape: tuple[int, int]) -> np.ndarray:
    """The r x c matrix of nested lists of entries."""
    A = np.empty(shape, dtype=object)
    if A.size:
        A[...] = rows
    return A


def zeros(r: int, c: int) -> np.ndarray:
    A = np.empty((r, c), dtype=object)
    A[...] = 0
    return A


def eye(n: int) -> np.ndarray:
    A = zeros(n, n)
    for i in range(n):
        A[i, i] = 1
    return A


def diag(entries) -> np.ndarray:
    entries = list(entries)
    A = zeros(len(entries), len(entries))
    for i, e in enumerate(entries):
        A[i, i] = e
    return A


def block_diag(*mats: np.ndarray) -> np.ndarray:
    r = sum(M.shape[0] for M in mats)
    c = sum(M.shape[1] for M in mats)
    A = zeros(r, c)
    i = j = 0
    for M in mats:
        A[i : i + M.shape[0], j : j + M.shape[1]] = M
        i += M.shape[0]
        j += M.shape[1]
    return A


def mat_eq(A: np.ndarray, B: np.ndarray) -> bool:
    if A.shape != B.shape:
        return False
    return bool((A == B).all()) if A.size else True


def is_zero(A: np.ndarray) -> bool:
    return bool((A == 0).all()) if A.size else True


def is_skew(A: np.ndarray) -> bool:
    """A^t = -A, compared entry pair by entry pair on the rows."""
    n = A.shape[0]
    if A.shape[1] != n:
        return False
    rows = A.tolist()
    return all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(i, n))


def is_integral(A: np.ndarray) -> bool:
    return all(type(x) is int or x.denominator == 1 for x in A.ravel().tolist())


def to_int(A: np.ndarray) -> np.ndarray:
    """Cast an exactly-integral matrix to Python-int entries."""
    if not is_integral(A):
        raise ValueError("matrix has non-integer entries")
    return _from_rows([[x if type(x) is int else int(x) for x in row] for row in A.tolist()], A.shape)


def to_fraction(A: np.ndarray) -> np.ndarray:
    rows = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in A.tolist()]
    return _from_rows(rows, A.shape)


def lcm_denominators(A: np.ndarray) -> int:
    return _scaled_rows(A)[1]


def strict_upper(A: np.ndarray) -> np.ndarray:
    B = zeros(*A.shape)
    for i in range(A.shape[0]):
        for j in range(i + 1, A.shape[1]):
            B[i, j] = A[i, j]
    return B


def freeze(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False
    return A


# ---------------------------------------------------------------------------
# integer rows over one common denominator


def _scaled_rows(M: np.ndarray) -> tuple[list[list[int]], int]:
    """Integer rows N and the least d > 0 with N = d * M.

    Entries are tested with ``type(x) is int`` first: ``isinstance(x,
    Fraction)`` goes through ``ABCMeta.__instancecheck__``, which costs more.
    """
    rows = M.tolist()
    d = 1
    for row in rows:
        for x in row:
            if type(x) is not int:
                den = x.denominator
                if d % den:
                    d = d // math.gcd(d, den) * den
    if d == 1:
        return [[x if type(x) is int else int(x) for x in row] for row in rows], 1
    return [[x * d if type(x) is int else x.numerator * (d // x.denominator) for x in row] for row in rows], d


def matmul(*mats: np.ndarray) -> np.ndarray:
    """Exact product of one or more matrices of int/Fraction entries.

    Each factor is scaled to integer rows; the rows are multiplied as Python
    ints and the product of the denominators is divided out once per entry.
    The entries are ints when every factor is integral.
    """
    rows, d = _scaled_rows(mats[0])
    r, c = mats[0].shape
    for M in mats[1:]:
        if M.ndim != 2 or M.shape[0] != c:
            raise ValueError(f"shape mismatch: {(r, c)} times {M.shape}")
        right, e = _scaled_rows(M)
        c = M.shape[1]
        cols = list(zip(*right)) if right else [()] * c
        rows = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        d *= e
    if d != 1:
        rows = [[Fraction(x, d) for x in row] for row in rows]
    return _from_rows(rows, (r, c))


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


def det(M: np.ndarray) -> Fraction:
    """Exact determinant; det of the empty 0x0 matrix is 1."""
    n, m = M.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    W, d = _scaled_rows(M)
    pivots, sign, last = _row_reduce(W, n, full=False)
    return Fraction(sign * last, d**n) if len(pivots) == n else Fraction(0)


def rank(M: np.ndarray) -> int:
    W, _ = _scaled_rows(M)
    pivots, _, _ = _row_reduce(W, M.shape[1], full=False)
    return len(pivots)


def rational_inverse(M: np.ndarray) -> np.ndarray:
    """Exact inverse by fraction-free Gauss-Jordan elimination of [d M | d I].

    Every pivot entry ends equal to the last pivot e, so M^-1 is the right
    half divided by e.

    Raises:
        Singular: if the determinant is zero.
    """
    n, m = M.shape
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    W, d = _scaled_rows(M)
    for i, row in enumerate(W):
        row.extend(d if j == i else 0 for j in range(n))
    pivots, _, e = _row_reduce(W, n, full=True)
    if len(pivots) < n:
        raise Singular("matrix is singular")
    return _from_rows([[Fraction(x, e) for x in row[n:]] for row in W], M.shape)


def int_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse of a unimodular integer matrix, with integer entries."""
    return to_int(rational_inverse(M))


def solve_unique(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B exactly for A of full column rank.

    Both sides are scaled by one common denominator and [d A | d B] is
    reduced fraction-free.

    Raises:
        Inconsistent: if no exact solution exists or A is column-rank
            deficient.
    """
    m, r = A.shape
    if B.shape[0] != m:
        raise ValueError("shape mismatch")
    WA, dA = _scaled_rows(A)
    WB, dB = _scaled_rows(B)
    d = dA // math.gcd(dA, dB) * dB
    W = [[x * (d // dA) for x in ra] + [x * (d // dB) for x in rb] for ra, rb in zip(WA, WB)]
    pivots, _, last = _row_reduce(W, r, full=True)
    if len(pivots) < r:
        raise Inconsistent("coefficient matrix is column-rank deficient")
    if any(x for row in W[r:] for x in row[r:]):
        raise Inconsistent("system has no exact solution")
    return _from_rows([[Fraction(x, last) for x in row[r:]] for row in W[:r]], (r, B.shape[1]))


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd with a canonical Bezout certificate.

    Returns (g, c, d) with c*a + d*b = g = gcd(a, b) > 0 and, when b != 0,
    0 <= c < |b|/g.  For b == 0 the certificate is (|a|, sign(a), 0).

    Raises:
        BothZero: if a == b == 0.
    """
    if a == 0 and b == 0:
        raise BothZero("gcd(0, 0) has no certificate")
    if b == 0:
        return abs(a), (1 if a > 0 else -1), 0
    g, c0, d0 = _euclid(a, b)
    step = abs(b) // g
    c = c0 % step
    d = (g - c * a) // b
    return g, c, d


def _euclid(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True, eq=False)
class SnfResult:
    """U @ M @ V = D with U, V unimodular and D in Smith form."""

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray


def _min_entry(M: np.ndarray, t: int, upper: bool = False):
    """Row-major first nonzero entry of least absolute value in M[t:, t:],
    or with ``upper`` in the strict upper triangle of M[t:, :]."""
    best = None
    best_val = None
    for i in range(t, M.shape[0]):
        for j in range(i + 1 if upper else t, M.shape[1]):
            v = M[i, j]
            if v != 0 and (best is None or abs(v) < best_val):
                best, best_val = (i, j), abs(v)
    return best


def smith_normal_form(M: np.ndarray) -> SnfResult:
    """Smith normal form with a fixed pivot rule.

    Pivot selection takes the nonzero entry of smallest absolute value in the
    working block, ties broken in row-major order; the diagonal is
    sign-normalized to be non-negative.  The result is verified by
    re-multiplication before returning.
    """
    A = to_int(M)
    m, n = A.shape
    U = eye(m)
    V = eye(n)
    t = 0
    while t < min(m, n):
        if _min_entry(A, t) is None:
            break
        while True:
            i, j = _min_entry(A, t)
            if i != t:
                A[[t, i]] = A[[i, t]]
                U[[t, i]] = U[[i, t]]
            if j != t:
                A[:, [t, j]] = A[:, [j, t]]
                V[:, [t, j]] = V[:, [j, t]]
            p = A[t, t]
            again = False
            for r in range(t + 1, m):
                if A[r, t] != 0:
                    q = A[r, t] // p
                    if q:
                        A[r] = A[r] - q * A[t]
                        U[r] = U[r] - q * U[t]
                    if A[r, t] != 0:
                        again = True
            if again:
                continue
            for c in range(t + 1, n):
                if A[t, c] != 0:
                    q = A[t, c] // p
                    if q:
                        A[:, c] = A[:, c] - q * A[:, t]
                        V[:, c] = V[:, c] - q * V[:, t]
                    if A[t, c] != 0:
                        again = True
            if again:
                continue
            bad = None
            for r in range(t + 1, m):
                if any(A[r, c] % p != 0 for c in range(t + 1, n)):
                    bad = r
                    break
            if bad is None:
                break
            A[t] = A[t] + A[bad]
            U[t] = U[t] + U[bad]
        t += 1
    for i in range(min(m, n)):
        if A[i, i] < 0:
            A[i] = -A[i]
            U[i] = -U[i]
    res = SnfResult(U=U, D=A, V=V)
    _check_snf(M, res)
    return res


def _check_snf(M: np.ndarray, res: SnfResult) -> None:
    if not mat_eq(res.U @ to_int(M) @ res.V, res.D):
        raise AssertionError("smith factor re-multiplication failed")
    if abs(det(res.U)) != 1 or abs(det(res.V)) != 1:
        raise AssertionError("smith transforms are not unimodular")
    d = [res.D[i, i] for i in range(min(res.D.shape))]
    for a, b in zip(d, d[1:]):
        if a == 0 and b != 0:
            raise AssertionError("zero invariant factor precedes a nonzero one")
        if a != 0 and b % a != 0:
            raise AssertionError("invariant factors do not divide in order")


def snf_rank(res: SnfResult) -> int:
    return sum(1 for i in range(min(res.D.shape)) if res.D[i, i] != 0)


def kernel_lattice_basis(C: np.ndarray) -> np.ndarray:
    """Primitive basis of the integer kernel {x : Cx = 0}, as columns.

    The basis is saturated: it spans the full lattice of integer kernel
    vectors, not a finite-index sublattice.
    """
    res = smith_normal_form(C)
    r = snf_rank(res)
    return res.V[:, r:].copy()


def complete_basis(C: np.ndarray) -> np.ndarray:
    """Unimodular matrix whose trailing columns span the integer kernel of C."""
    return smith_normal_form(C).V.copy()


# ---------------------------------------------------------------------------
# alternating and symplectic normal forms


def _congr_swap(W: np.ndarray, Q: np.ndarray, i: int, j: int) -> None:
    W[[i, j]] = W[[j, i]]
    W[:, [i, j]] = W[:, [j, i]]
    Q[:, [i, j]] = Q[:, [j, i]]


def _congr_add(W: np.ndarray, Q: np.ndarray, dst: int, src: int, s) -> None:
    # column op followed by its mirrored row op keeps W congruent-skew.
    W[:, dst] = W[:, dst] + s * W[:, src]
    W[dst, :] = W[dst, :] + s * W[src, :]
    Q[:, dst] = Q[:, dst] + s * Q[:, src]


def canonical_alternating(h: list, size: int) -> np.ndarray:
    """The block matrix [[0, P, 0], [-P, 0, 0], [0, 0, 0]] with P = diag(h)."""
    k = len(h)
    M = zeros(size, size)
    for j, v in enumerate(h):
        M[j, k + j] = v
        M[k + j, j] = -v
    return M


def alternating_normal_form_int(A: np.ndarray) -> tuple[np.ndarray, list]:
    """Reduce an integer alternating form: A = R^t * canonical * R.

    Returns (R, h) with R unimodular and h the positive block multipliers
    h_1..h_k, k = rank(A)/2.  Verified by re-multiplication.

    Raises:
        NotSkew: if A != -A^t.
        OddSize: if A is not of even size.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or not is_skew(A):
        raise NotSkew("alternating reduction needs an integer skew-symmetric matrix")
    if n % 2 != 0:
        raise OddSize("alternating reduction is defined for even size")
    W = to_int(A)
    Q = eye(n)
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
            a = W[t, t + 1]
            again = False
            for c in range(t + 2, n):
                if W[t, c] != 0:
                    _congr_add(W, Q, c, t + 1, -(W[t, c] // a))
                    if W[t, c] != 0:
                        again = True
                if W[t + 1, c] != 0:
                    # W[t+1, t] = -a, so adding s*col_t moves W[t+1,c] by -s*a.
                    _congr_add(W, Q, c, t, W[t + 1, c] // a)
                    if W[t + 1, c] != 0:
                        again = True
            if not again:
                break
        hs.append(W[t, t + 1])
        t += 2
    for idx in range(len(hs)):
        if hs[idx] < 0:
            _congr_swap(W, Q, 2 * idx, 2 * idx + 1)
            hs[idx] = -hs[idx]
    k = len(hs)
    order = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2)) + list(range(2 * k, n))
    W = W[np.ix_(order, order)]
    Q = Q[:, order]
    R = int_inverse(Q)
    target = canonical_alternating(hs, n)
    if not mat_eq(W, target) or not mat_eq(R.T @ target @ R, to_int(A)):
        raise AssertionError("alternating reduction re-multiplication failed")
    return R, hs


def standard_symplectic(p: int) -> np.ndarray:
    J0 = zeros(2 * p, 2 * p)
    for i in range(p):
        J0[i, p + i] = 1
        J0[p + i, i] = -1
    return J0


def symplectic_factor_rational(A: np.ndarray) -> np.ndarray:
    """Rational T with T^t J0 T = A for invertible skew rational A.

    Symplectic Gram-Schmidt over the rationals: the pivot is the first basis
    vector not yet consumed, its partner the first remaining vector with
    nonzero pairing, and the pivot is rescaled so the pair couples to 1.
    Verified by re-multiplication.

    Raises:
        NotSkew: if A is not skew-symmetric.
        Singular: if A is singular (odd sizes always are); a basis vector
            then finds no partner.
    """
    if not is_skew(A):
        raise NotSkew("symplectic factorization needs a skew-symmetric matrix")
    n = A.shape[0]
    if n == 0:
        return zeros(0, 0)
    p = n // 2
    F = to_fraction(A)

    def pair(x, y):
        return x @ F @ y

    remaining = [to_fraction(eye(n))[i] for i in range(n)]
    us, vs = [], []
    while remaining:
        u = remaining.pop(0)
        idx = next((i for i, w in enumerate(remaining) if pair(u, w) != 0), None)
        if idx is None:
            raise Singular("alternating form is degenerate")
        v = remaining.pop(idx)
        u = u / pair(u, v)
        remaining = [r + pair(v, r) * u - pair(u, r) * v for r in remaining]
        us.append(u)
        vs.append(v)
    S = np.stack(us + vs, axis=1)
    T = rational_inverse(S)
    if not mat_eq(matmul(T.T, standard_symplectic(p), T), A):
        raise AssertionError("symplectic factor re-multiplication failed")
    return T
