"""The integer split orthogonal group and its action on skew matrices.

Elements are stored in 2x2 block form (A, B, C, D) of n x n integer
matrices.  Membership means the block relations

    A^t C + C^t A = 0,   B^t D + D^t B = 0,   A^t D + C^t B = I,

together with determinant one for the assembled 2n x 2n matrix.  The
(partial) action on a skew matrix is theta -> (A theta + B)(C theta + D)^-1,
defined whenever C theta + D is invertible; an undefined action is a
recoverable outcome, not a crash.

Everything is immutable and pure; the random constructors own their
generator state per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import exact_linalg as xl
from .exact_linalg import Mat


class GroupError(Exception):
    pass


class RelationViolated(GroupError):
    def __init__(self, relation: str):
        super().__init__(f"block relation violated: {relation}")
        self.relation = relation


class DeterminantNotOne(GroupError):
    pass


class NotUnimodular(GroupError):
    pass


class OddSupport(GroupError):
    pass


class Undefined(GroupError):
    """C theta + D is singular, so the action is not defined there."""


@dataclass(frozen=True, eq=False)
class Theta:
    """A rational skew-symmetric n x n matrix, n >= 2."""

    n: int
    M: Mat

    def __eq__(self, other):
        return isinstance(other, Theta) and self.M == other.M


def make_theta(entries) -> Theta:
    """Theta from a Mat or nested lists of int/Fraction entries."""
    M = xl.mat(entries)
    n = M.shape[0]
    if n < 2 or M.shape[1] != n:
        raise ValueError("theta must be square of size >= 2")
    if not xl.is_skew(M):
        raise ValueError("theta must be skew-symmetric")
    return Theta(n=n, M=M)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A group member.

    Elements entering the program are validated by check_membership; the
    generators and group operations build theirs through _element, since
    membership of a product or inverse follows from that of its factors.
    """

    n: int
    A: Mat
    B: Mat
    C: Mat
    D: Mat

    def matrix(self) -> Mat:
        return xl.block([[self.A, self.B], [self.C, self.D]])

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.A == other.A
            and self.B == other.B
            and self.C == other.C
            and self.D == other.D
        )


def check_membership(A, B, C, D) -> GroupElement:
    """Validate the block relations and determinant, or name the violation."""
    blocks = [xl.to_int(M) for M in (A, B, C, D)]
    A, B, C, D = blocks
    n = A.shape[0]
    for M in blocks:
        if M.shape != (n, n):
            raise ValueError("blocks must be square and of equal size")
    At, Ct = A.T, C.T
    if not xl.is_zero(At @ C + Ct @ A):
        raise RelationViolated("A^t C + C^t A = 0")
    if not xl.is_zero(B.T @ D + D.T @ B):
        raise RelationViolated("B^t D + D^t B = 0")
    if At @ D + Ct @ B != xl.eye(n):
        raise RelationViolated("A^t D + C^t B = I")
    g = _element(A, B, C, D)
    if xl.det(g.matrix()) != 1:
        raise DeterminantNotOne("assembled matrix must have determinant 1")
    return g


def _element(A: Mat, B: Mat, C: Mat, D: Mat) -> GroupElement:
    """Wrap integer blocks whose membership is already established."""
    return GroupElement(n=A.shape[0], A=A, B=B, C=C, D=D)


def identity_element(n: int) -> GroupElement:
    return _element(xl.eye(n), xl.zeros(n, n), xl.zeros(n, n), xl.eye(n))


def invert_element(g: GroupElement) -> GroupElement:
    """The inverse is the block transpose (D^t, B^t, C^t, A^t)."""
    return _element(g.D.T, g.B.T, g.C.T, g.A.T)


def compose(g: GroupElement, h: GroupElement, *rest: GroupElement) -> GroupElement:
    if rest:
        return compose(compose(g, h), *rest)
    if g.n != h.n:
        raise ValueError("dimension mismatch")
    return _element(
        g.A @ h.A + g.B @ h.C,
        g.A @ h.B + g.B @ h.D,
        g.C @ h.A + g.D @ h.C,
        g.C @ h.B + g.D @ h.D,
    )


def rho(R) -> GroupElement:
    """Block-diagonal element diag(R, (R^-1)^t) from a unimodular R."""
    R = xl.to_int(R)
    if abs(xl.det(R)) != 1:
        raise NotUnimodular("rho needs a matrix with determinant +-1")
    n = R.shape[0]
    return _element(R, xl.zeros(n, n), xl.zeros(n, n), xl.int_inverse(R).T)


def mu(N) -> GroupElement:
    """Upper-triangular shear blk(I, N; 0, I) from an integer skew N."""
    N = xl.to_int(N)
    if not xl.is_skew(N):
        raise xl.NotSkew("mu needs an integer skew-symmetric matrix")
    n = N.shape[0]
    return _element(xl.eye(n), N, xl.zeros(n, n), xl.eye(n))


def sigma_flip(support, n: int) -> GroupElement:
    """Swap x_i <-> x_{n+i} on an even-sized support; supplies C != 0."""
    support = sorted(set(support))
    if any(i < 1 or i > n for i in support):
        raise ValueError("support indices must lie in 1..n")
    if len(support) % 2 != 0:
        raise OddSupport("flip support must have even size")
    on = xl.diag([int(i in support) for i in range(1, n + 1)])
    off = xl.diag([int(i not in support) for i in range(1, n + 1)])
    return _element(off, on, on, off)


def c_theta_plus_d(g: GroupElement, theta: Theta) -> Mat:
    return g.C @ theta.M + g.D


def act(g: GroupElement, theta: Theta) -> Theta:
    """Fractional-linear action; raises Undefined off the domain."""
    if g.n != theta.n:
        raise ValueError("dimension mismatch")
    M = c_theta_plus_d(g, theta)
    try:
        Minv = xl.rational_inverse(M)
    except xl.Singular:
        raise Undefined("C theta + D is singular") from None
    return make_theta(xl.matmul(g.A @ theta.M + g.B, Minv))


def is_defined(g: GroupElement, theta: Theta) -> bool:
    return xl.det(c_theta_plus_d(g, theta)) != 0


# ---------------------------------------------------------------------------
# seeded random constructors


def random_unimodular(rng: random.Random, n: int, ops: int | None = None) -> Mat:
    """Product of elementary row operations; determinant is +-1."""
    R = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return Mat(R, 1, n)
    for _ in range(ops if ops is not None else rng.randint(2, 4)):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            R[i] = [a + c * b for a, b in zip(R[i], R[j])]
        elif kind == 1:
            R[i], R[j] = R[j], R[i]
        else:
            R[i] = [-a for a in R[i]]
    return Mat(R, 1, n)


def random_skew_int(rng: random.Random, n: int, bound: int = 3) -> Mat:
    N = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            N[i][j] = v
            N[j][i] = -v
    return Mat(N, 1, n)


def random_even_support(rng: random.Random, n: int) -> list[int]:
    size = 2 * rng.randint(0, n // 2)
    return rng.sample(range(1, n + 1), size)


def random_element(seed, word_length: int, n: int) -> GroupElement:
    """Deterministic pseudo-random word in the rho/mu/flip generators."""
    rng = random.Random(seed)
    g = identity_element(n)
    for _ in range(word_length):
        kind = rng.randrange(3)
        if kind == 0:
            step = rho(random_unimodular(rng, n))
        elif kind == 1:
            step = mu(random_skew_int(rng, n))
        else:
            step = sigma_flip(random_even_support(rng, n), n)
        g = compose(g, step)
    return g


def random_theta(seed, n: int, max_den: int = 12) -> Theta:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))
            M[i][j] = v
            M[j][i] = -v
    return make_theta(M)
