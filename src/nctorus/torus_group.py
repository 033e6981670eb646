"""The integer split orthogonal group SO(n,n|Z) and its action on skew matrices.

An element is one integer 2n x 2n matrix M with

    M^t eta M = eta,   eta = [[0, I], [I, 0]],   det M = 1.

Its n x n blocks A, B, C, D (M = [[A, B], [C, D]]) are slices of M, cut once.
check_membership is the one place that decides both conditions; given
M^t eta M = eta, det M = (-1)^rank C: det M = 1 exactly when rank C is even.
The (partial) action on a skew matrix is theta -> (A theta + B)(C theta + D)^-1,
defined whenever C theta + D is invertible; an undefined action is a
recoverable outcome, not a crash.

Everything is immutable and pure; the random constructors own their
generator state per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import exact_linalg as xl
from .exact_linalg import Mat


class GroupError(Exception):
    """g is not a group member or not in special form, or a generator's argument is invalid."""


class Undefined(GroupError):
    """C theta + D is singular, so the action is not defined there."""


@dataclass(frozen=True, eq=False)
class Theta:
    """A rational skew-symmetric n x n matrix, n >= 2."""

    M: Mat

    n = property(lambda theta: theta.M.shape[0])

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
    return Theta(M)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A group member: its 2n x 2n integer matrix M = [[A, B], [C, D]].

    Elements entering the program are validated by check_membership.  The
    generators and group operations construct theirs directly: each generator
    is a member by its shape, and membership of a product or inverse follows
    from that of its factors.
    """

    M: Mat

    n = property(lambda g: g.M.shape[0] // 2)
    A = cached_property(lambda g: g.M[: g.n, : g.n])
    B = cached_property(lambda g: g.M[: g.n, g.n :])
    C = cached_property(lambda g: g.M[g.n :, : g.n])
    D = cached_property(lambda g: g.M[g.n :, g.n :])

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.M == other.M


def _swap(n: int) -> list[int]:
    """Indices that exchange the two halves: X[_swap(n), :] is eta X."""
    return [*range(n, 2 * n), *range(n)]


def check_membership(A, B, C, D) -> GroupElement:
    """The element with integer blocks A, B, C, D, or the violation of M^t eta M = eta or det M = 1.

    F = M^t (eta M) is symmetric with blocks A^t C + C^t A, A^t D + C^t B and
    B^t D + D^t B, so these three decide it.  Then det M = (-1)^rank C: an
    isometry of eta has det (-1)^codim(L cap M L) for the Lagrangian L of the
    first n coordinates (Chevalley), and L cap M L = M ker C.
    """
    A, B, C, D = (xl.to_int(X) for X in (A, B, C, D))
    n = A.shape[0]
    if any(X.shape != (n, n) for X in (A, B, C, D)):
        raise ValueError("blocks must be square and of equal size")
    M = xl.block([[A, B], [C, D]])
    F = M.T @ M[_swap(n), :]
    if not xl.is_zero(F[:n, :n]):
        raise GroupError("block relation violated: A^t C + C^t A = 0")
    if not xl.is_zero(F[n:, n:]):
        raise GroupError("block relation violated: B^t D + D^t B = 0")
    if F[:n, n:] != xl.eye(n):
        raise GroupError("block relation violated: A^t D + C^t B = I")
    if xl.rank(C) % 2 != 0:
        raise GroupError("assembled matrix must have determinant 1")
    return GroupElement(M)


def identity_element(n: int) -> GroupElement:
    return GroupElement(xl.eye(2 * n))


def invert_element(g: GroupElement) -> GroupElement:
    """The inverse eta M^t eta, the block transpose [[D^t, B^t], [C^t, A^t]]."""
    s = _swap(g.n)
    return GroupElement(g.M.T[s, s])


def compose(g: GroupElement, h: GroupElement, *rest: GroupElement) -> GroupElement:
    M = g.M
    for f in (h, *rest):
        if f.n != g.n:
            raise ValueError("dimension mismatch")
        M = M @ f.M
    return GroupElement(M)


def rho(R) -> GroupElement:
    """Block-diagonal diag(R, (R^-1)^t); the one inversion decides |det R| = 1."""
    R = xl.to_int(R)
    try:
        R_inv = xl.int_inverse(R)
    except xl.Singular:
        raise GroupError("rho needs a matrix with determinant +-1") from None
    return GroupElement(xl.block_diag(R, R_inv.T))


def mu(N) -> GroupElement:
    """Upper-triangular shear blk(I, N; 0, I) from an integer skew N."""
    N = xl.to_int(N)
    if not xl.is_skew(N):
        raise GroupError("mu needs an integer skew-symmetric matrix")
    n = N.shape[0]
    return GroupElement(xl.block([[xl.eye(n), N], [xl.zeros(n, n), xl.eye(n)]]))


def sigma_flip(support, n: int) -> GroupElement:
    """Swap x_i <-> x_{n+i} on an even-sized support; supplies C != 0."""
    support = sorted(set(support))
    if any(i < 1 or i > n for i in support):
        raise ValueError("support indices must lie in 1..n")
    if len(support) % 2 != 0:
        raise ValueError("flip support must have even size")
    perm = list(range(2 * n))
    for i in support:
        perm[i - 1], perm[n + i - 1] = n + i - 1, i - 1
    return GroupElement(xl.eye(2 * n)[perm, :])


def c_theta_plus_d(g: GroupElement, theta: Theta) -> Mat:
    return g.C @ theta.M + g.D


def act(g: GroupElement, theta: Theta) -> Theta:
    """Fractional-linear action; raises Undefined off the domain."""
    if g.n != theta.n:
        raise ValueError("dimension mismatch")
    # X (C theta + D) = A theta + B, solved as (C theta + D)^t X^t = (A theta + B)^t
    try:
        Xt = xl.solve_unique(c_theta_plus_d(g, theta).T, (g.A @ theta.M + g.B).T)
    except xl.Singular:
        raise Undefined("C theta + D is singular") from None
    return make_theta(Xt.T)


def is_defined(g: GroupElement, theta: Theta) -> bool:
    return xl.det(c_theta_plus_d(g, theta)) != 0


# ---------------------------------------------------------------------------
# seeded random constructors


def random_unimodular(rng: random.Random, n: int) -> Mat:
    """Product of elementary row operations; determinant is +-1."""
    R = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return Mat(R, 1, n)
    for _ in range(rng.randint(2, 4)):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            R[i] = [a + c * b for a, b in zip(R[i], R[j])]
        elif op == 1:
            R[i], R[j] = R[j], R[i]
        else:
            R[i] = [-a for a in R[i]]
    return Mat(R, 1, n)


def random_skew_int(rng: random.Random, n: int) -> Mat:
    N = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-3, 3)
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
        op = rng.randrange(3)
        if op == 0:
            step = rho(random_unimodular(rng, n))
        elif op == 1:
            step = mu(random_skew_int(rng, n))
        else:
            step = sigma_flip(random_even_support(rng, n), n)
        g = compose(g, step)
    return g


THETA_MAX_DEN = 12


def random_theta(seed: int | str, n: int, max_den: int = THETA_MAX_DEN) -> Theta:
    rng = random.Random(seed)
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))
            M[i][j] = v
            M[j][i] = -v
    return make_theta(M)
