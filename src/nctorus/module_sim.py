"""Desk-scale numeric realization of the Heisenberg bimodule actions.

Functions live on M = R^p x Z^q x W with W a finite product of cyclic
groups.  The two unitary actions are shift-and-modulate closures built from
the exact embedding matrices, so the algebra relations are checked pointwise
with no grid discretization; the only floating point enters through the
final phase/Gaussian evaluations.  Phase exponents are accumulated as exact
rationals and reduced mod 1 before any trigonometric call, which keeps
residuals at machine precision even for large integer arguments.

The optional inner product is the one place quadrature appears.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .torus_group import Theta


class ModuleSimError(Exception):
    pass


class ShapeMismatch(ModuleSimError):
    """Vector has the wrong length or a non-integer entry in an integer slot."""


class QuadratureUnconverged(ModuleSimError):
    pass


@dataclass(frozen=True, eq=False)
class ModuleDescriptor:
    """Everything needed to realize the module actions.

    Coordinates of the ambient phase space are ordered
    (u, u^, a, a^, w, w^) with sizes (p, p, q, q, k, k).
    """

    p: int
    q: int
    k: int
    orders: tuple[int, ...]  # torsion orders n_1..n_k
    T: np.ndarray  # embedding matrix for theta, (n+q+2k) x n
    S: np.ndarray  # embedding matrix for -theta_prime
    theta: Theta
    theta_prime: Theta
    J: np.ndarray
    Jprime: np.ndarray
    curvature: np.ndarray | None = None
    phi_star: np.ndarray | None = None

    @property
    def n(self) -> int:
        return 2 * self.p + self.q

    @property
    def ambient_dim(self) -> int:
        return self.n + self.q + 2 * self.k


@dataclass(frozen=True)
class PointM:
    """A point of M: real, integer, and residue coordinates."""

    u: tuple[float, ...]
    a: tuple[int, ...]
    w: tuple[int, ...]


@dataclass(frozen=True)
class MPart:
    u: tuple[Fraction, ...]
    a: tuple[int, ...]
    w: tuple[int, ...]


@dataclass(frozen=True)
class MHatPart:
    uhat: tuple[Fraction, ...]
    ahat: tuple[Fraction, ...]
    what: tuple[int, ...]


class TestFunction:
    """A pure evaluation rule PointM -> complex with a declared decay class."""

    __test__ = False  # not a pytest collection target

    def __init__(self, fn, label="fn"):
        self._fn = fn
        self.label = label

    def __call__(self, m: PointM) -> complex:
        return self._fn(m)


def e2pi(t) -> complex:
    """exp(2 pi i t); exact rationals are reduced mod 1 first."""
    if isinstance(t, (Fraction, int)):
        t = float(Fraction(t) % 1)
    return cmath.exp(2j * math.pi * t)


def _as_int(x, what: str) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ShapeMismatch(f"{what} slot holds non-integer value {x!r}")


def split_coordinates(v, d: ModuleDescriptor) -> tuple[MPart, MHatPart]:
    """Split an ambient vector into its M and M-hat parts.

    Integer slots (a, w, w^) must hold exactly integral values; residues are
    reduced mod the torsion orders and the torus part mod 1.
    """
    v = list(v)
    if len(v) != d.ambient_dim:
        raise ShapeMismatch(f"expected {d.ambient_dim} coordinates, got {len(v)}")
    p, q, k = d.p, d.q, d.k
    u = tuple(Fraction(x) for x in v[:p])
    uhat = tuple(Fraction(x) for x in v[p : 2 * p])
    a = tuple(_as_int(x, "a") for x in v[2 * p : 2 * p + q])
    ahat = tuple(Fraction(x) % 1 for x in v[2 * p + q : 2 * p + 2 * q])
    w = tuple(
        _as_int(x, "w") % d.orders[j] for j, x in enumerate(v[2 * p + 2 * q : 2 * p + 2 * q + k])
    )
    what = tuple(
        _as_int(x, "w^") % d.orders[j] for j, x in enumerate(v[2 * p + 2 * q + k :])
    )
    return MPart(u=u, a=a, w=w), MHatPart(uhat=uhat, ahat=ahat, what=what)


def pairing(m: PointM, mhat: MHatPart, d: ModuleDescriptor) -> complex:
    """<m, m^> = e(u.u^ + a.a^ + sum_j w_j w^_j / n_j)."""
    exact = Fraction(0)
    for aj, bj in zip(m.a, mhat.ahat):
        exact += aj * bj
    for j, (wj, hj) in enumerate(zip(m.w, mhat.what)):
        exact += Fraction(wj * hj, d.orders[j])
    real = sum(uj * float(vj) for uj, vj in zip(m.u, mhat.uhat))
    return e2pi(float(exact % 1) + real)


def _column(M: np.ndarray, x) -> np.ndarray:
    vec = np.array([int(t) for t in x], dtype=object)
    return M @ vec


def _half_form(v: np.ndarray, Jprime: np.ndarray) -> Fraction:
    return Fraction(v @ Jprime @ v) / 2


def _shift_point(m: PointM, part: MPart, sign: int, d: ModuleDescriptor) -> PointM:
    u = tuple(uj + sign * float(vj) for uj, vj in zip(m.u, part.u))
    a = tuple(aj + sign * vj for aj, vj in zip(m.a, part.a))
    w = tuple((wj + sign * vj) % d.orders[j] for j, (wj, vj) in enumerate(zip(m.w, part.w)))
    return PointM(u=u, a=a, w=w)


def right_action(f: TestFunction, x, d: ModuleDescriptor) -> TestFunction:
    """(f U_x)(m) = e(-T(x).J'T(x)/2) <m, T''(x)> f(m - T'(x))."""
    Tx = _column(d.T, x)
    phase = e2pi(-_half_form(Tx, d.Jprime))
    tpart, that = split_coordinates(Tx, d)

    def ev(m: PointM) -> complex:
        return phase * pairing(m, that, d) * f(_shift_point(m, tpart, -1, d))

    return TestFunction(ev, label=f"({f.label})U{tuple(x)}")


def left_action(x, f: TestFunction, d: ModuleDescriptor) -> TestFunction:
    """(V_x f)(m) = e(-S(x).J'S(x)/2) <m, -S''(x)> f(m + S'(x))."""
    Sx = _column(d.S, x)
    phase = e2pi(-_half_form(Sx, d.Jprime))
    spart, shat = split_coordinates(Sx, d)
    neg_shat = MHatPart(
        uhat=tuple(-v for v in shat.uhat),
        ahat=tuple((-v) % 1 for v in shat.ahat),
        what=tuple((-v) % d.orders[j] for j, v in enumerate(shat.what)),
    )

    def ev(m: PointM) -> complex:
        return phase * pairing(m, neg_shat, d) * f(_shift_point(m, spart, +1, d))

    return TestFunction(ev, label=f"V{tuple(x)}({f.label})")


def sigma_cocycle(theta: Theta, x, y) -> complex:
    """The multiplication cocycle e((x . theta y) / 2)."""
    xv = np.array([int(t) for t in x], dtype=object)
    yv = np.array([int(t) for t in y], dtype=object)
    return e2pi(Fraction(xv @ theta.M @ yv) / 2)


def check_module_relation(x, y, f: TestFunction, samples, d: ModuleDescriptor) -> float:
    """max_m |((f U_x) U_y)(m) - sigma_theta(x,y) (f U_{x+y})(m)|."""
    lhs = right_action(right_action(f, x, d), y, d)
    sig = sigma_cocycle(d.theta, x, y)
    rhs = right_action(f, [a + b for a, b in zip(x, y)], d)
    return max(abs(lhs(m) - sig * rhs(m)) for m in samples)


def check_left_relation(x, y, f: TestFunction, samples, d: ModuleDescriptor) -> float:
    """Mirror relation for the other algebra, with the cocycle of theta'."""
    lhs = left_action(x, left_action(y, f, d), d)
    sig = sigma_cocycle(d.theta_prime, x, y)
    rhs = left_action([a + b for a, b in zip(x, y)], f, d)
    return max(abs(lhs(m) - sig * rhs(m)) for m in samples)


def check_bimodule_commutation(x, y, f: TestFunction, samples, d: ModuleDescriptor) -> float:
    """max_m |(V_y (f U_x))(m) - ((V_y f) U_x)(m)|."""
    lhs = left_action(y, right_action(f, x, d), d)
    rhs = right_action(left_action(y, f, d), x, d)
    return max(abs(lhs(m) - rhs(m)) for m in samples)


# ---------------------------------------------------------------------------
# test functions and sample points


def gaussian(
    d: ModuleDescriptor,
    center_u: tuple[float, ...] | None = None,
    center_a: tuple[int, ...] | None = None,
    modulation: tuple[float, ...] | None = None,
    w_char: tuple[int, ...] | None = None,
) -> TestFunction:
    """A Gaussian-class function: Gaussian in u and a, character in w."""
    cu = center_u if center_u is not None else (0.0,) * d.p
    ca = center_a if center_a is not None else (0,) * d.q
    mod = modulation if modulation is not None else (0.0,) * (d.p + d.q)
    ch = w_char if w_char is not None else (0,) * d.k

    def ev(m: PointM) -> complex:
        s = sum((uj - cj) ** 2 for uj, cj in zip(m.u, cu))
        s += sum((aj - cj) ** 2 for aj, cj in zip(m.a, ca))
        phase = sum(t * v for t, v in zip(mod, list(m.u) + list(m.a)))
        phase += sum(
            float(Fraction(tj * wj, d.orders[j]) % 1) for j, (tj, wj) in enumerate(zip(ch, m.w))
        )
        return math.exp(-math.pi * s) * e2pi(phase)

    return TestFunction(ev, label="gaussian")


def random_gaussian(rng: random.Random, d: ModuleDescriptor) -> TestFunction:
    return gaussian(
        d,
        center_u=tuple(rng.uniform(-1, 1) for _ in range(d.p)),
        center_a=tuple(rng.randint(-1, 1) for _ in range(d.q)),
        modulation=tuple(rng.uniform(-1, 1) for _ in range(d.p + d.q)),
        w_char=tuple(rng.randrange(max(d.orders[j], 1)) for j in range(d.k)),
    )


def random_point(rng: random.Random, d: ModuleDescriptor) -> PointM:
    return PointM(
        u=tuple(rng.uniform(-2, 2) for _ in range(d.p)),
        a=tuple(rng.randint(-3, 3) for _ in range(d.q)),
        w=tuple(rng.randrange(d.orders[j]) for j in range(d.k)),
    )


def random_samples(rng: random.Random, d: ModuleDescriptor, count: int) -> list[PointM]:
    return [random_point(rng, d) for _ in range(count)]


def random_lattice_vector(rng: random.Random, d: ModuleDescriptor, bound: int = 3) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(d.n)]


# ---------------------------------------------------------------------------
# optional numeric inner product


@dataclass(frozen=True)
class QuadratureConfig:
    u_halfwidth: float = 6.0
    u_points: int = 96
    a_halfwidth: int = 8
    tol: float = 1e-8


def inner_product_numeric(
    f: TestFunction,
    g: TestFunction,
    x,
    d: ModuleDescriptor,
    quad: QuadratureConfig = QuadratureConfig(),
) -> complex:
    """<f, g>(x) = e(-T(x).J'T(x)/2) int <m, -T''(x)> g(m + T'(x)) conj(f(m)) dm.

    Haar measure is Lebesgue on R^p, counting on Z^q (truncated), and
    normalized counting on W; the overall constant is fixed at K = 1.
    Convergence is checked by doubling the Gauss-Legendre resolution.

    Raises:
        QuadratureUnconverged: if doubling changes the value by more than
            quad.tol.
    """
    if d.p > 2:
        raise ValueError("numeric inner product supports p <= 2 only")
    coarse = _integrate(f, g, x, d, quad.u_points, quad)
    fine = _integrate(f, g, x, d, 2 * quad.u_points, quad)
    if abs(fine - coarse) > quad.tol:
        raise QuadratureUnconverged(f"delta {abs(fine - coarse):.3e} above {quad.tol:.1e}")
    return fine


def _integrate(f, g, x, d, n_points, quad) -> complex:
    Tx = _column(d.T, x)
    prefactor = e2pi(-_half_form(Tx, d.Jprime))
    tpart, that = split_coordinates(Tx, d)
    minus_that = MHatPart(
        uhat=tuple(-v for v in that.uhat),
        ahat=tuple((-v) % 1 for v in that.ahat),
        what=tuple((-v) % d.orders[j] for j, v in enumerate(that.what)),
    )
    nodes, weights = np.polynomial.legendre.leggauss(n_points)
    nodes = nodes * quad.u_halfwidth
    weights = weights * quad.u_halfwidth

    def u_grid(depth):
        if depth == 0:
            yield (), 1.0
            return
        for rest, wr in u_grid(depth - 1):
            for t, wt in zip(nodes, weights):
                yield (float(t),) + rest, wt * wr

    a_range = range(-quad.a_halfwidth, quad.a_halfwidth + 1)

    def a_grid(depth):
        if depth == 0:
            yield ()
            return
        for rest in a_grid(depth - 1):
            for t in a_range:
                yield (t,) + rest

    w_cells = [()]
    for nj in d.orders:
        w_cells = [cell + (r,) for cell in w_cells for r in range(nj)]
    w_weight = 1.0
    for nj in d.orders:
        w_weight /= nj

    total = 0.0 + 0.0j
    for u, wu in u_grid(d.p):
        for a in a_grid(d.q):
            for w in w_cells:
                m = PointM(u=u, a=a, w=w)
                val = pairing(m, minus_that, d) * g(_shift_point(m, tpart, +1, d)) * f(m).conjugate()
                total += wu * w_weight * val
    return prefactor * total
