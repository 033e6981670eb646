"""Desk-scale numeric realization of the Heisenberg bimodule actions.

Functions live on M = R^p x Z^q x W with W a finite product of cyclic
groups, and map a batch of points (``Points``, coordinate columns, the only
point type: ``random_samples`` draws samples straight into one) to their
values.  The two unitary actions are shift-and-modulate closures built from
the exact embedding matrices, so the algebra relations are checked at sample
points with no grid discretization; the only floating point enters through
the final phase/Gaussian evaluations.

All exact arithmetic runs on Python ints.  A descriptor is compiled on its
first action (``ModuleDescriptor._images``): the integer rows of T and S are
cut into coordinate blocks, with their a, w and w^ rows checked integral, and
the half forms Q = M^t J' M are formed once.  The cocycles read the integer
rows of theta and theta' directly.  An action is built for a list of lattice
vectors and a block size at once (``_twist``, one pass over the image rows per
list): vector i acts on the i-th of len(xs) equal blocks of a batch, and fixes
its shift and its pairing there, integer coefficients over one modulus L and
float u-shifts, held as per-point columns.  ``right_action`` and
``left_action`` are the one-vector case.  The relation checks take the
lattice pairs of several trials and the sample batch repeated once per pair
(``tile``), so a simulation run builds each of its six distinct actions once
per block of at most ``BATCH_POINTS`` points, and folds the worst residual
per trial in trial order.  A phase e(N / L) is evaluated as
exp(2 pi i (N mod L) / L): the exact reduction mod 1 comes first and the one
int division is correctly rounded, so it equals float(Fraction(N, L) % 1)
bit for bit and residuals stay at machine precision even for large integer
arguments.  Evaluation builds no ``Fraction``, and each per-point float sum
is a math.fsum over that point's terms, correctly rounded, so values depend
neither on the batch nor on the Python version.
A pairing past float range raises OverflowError, as a shift past it does.

The inner product <f, g>(x), for p <= 2, is the one integral: a midpoint rule
in u on [-6, 6], checked by doubling, and sums over a in [-8, 8]^q and W.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from . import exact_linalg as xl
from .exact_linalg import Mat
from .torus_group import Theta


class ModuleSimError(Exception):
    pass


class ShapeMismatch(ModuleSimError):
    """A vector or embedding matrix has the wrong shape or a non-integer entry in an integer slot."""


class IdentityViolated(ModuleSimError):
    """The embeddings T and S of a descriptor do not satisfy their identities."""


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
    orders: tuple[int, ...]  # torsion orders n_1..n_k
    T: Mat  # embedding matrix for theta, (n+q+2k) x n
    S: Mat  # embedding matrix for -theta_prime
    theta: Theta
    theta_prime: Theta

    @property
    def k(self) -> int:
        return len(self.orders)

    @property
    def n(self) -> int:
        return 2 * self.p + self.q

    @property
    def ambient_dim(self) -> int:
        return self.n + self.q + 2 * self.k

    @functools.cached_property
    def _forms(self) -> tuple[Mat, Mat]:
        return build_forms(self.p, self.q, self.orders)

    @property
    def J(self) -> Mat:
        return self._forms[0]

    @property
    def Jprime(self) -> Mat:
        return self._forms[1]

    @functools.cached_property
    def _images(self) -> tuple[_Image, _Image]:
        """T and S cut into coordinate blocks, built on first use.

        Raises:
            ShapeMismatch: if an a, w or w^ row of T or S is not integral.
        """
        return _Image(self.T, "T", self), _Image(self.S, "S", self)


@dataclass(frozen=True)
class Points:
    """``size`` points of M as coordinate columns: p float, q int and k residue lists."""

    u: list[list[float]]
    a: list[list[int]]
    w: list[list[int]]
    size: int


def tile(m: Points, times: int) -> Points:
    """The batch m repeated ``times`` times, block after block."""
    return Points([c * times for c in m.u], [c * times for c in m.a], [c * times for c in m.w], m.size * times)


# The most points a simulation run evaluates at once: its trials are checked in
# blocks of at most this many points, so memory does not grow with --trials.
BATCH_POINTS = 4096


# A test function is any pure callable Points -> values in point order.
PointFunction = Callable[[Points], list[complex]]


def _e(num: int, den: int) -> complex:
    """e(num / den) for ints, den > 0, reduced mod 1 before the one division."""
    return cmath.exp(2j * math.pi * (num % den / den))


# ---------------------------------------------------------------------------
# the compiled descriptor


def build_forms(p: int, q: int, orders: tuple[int, ...]) -> tuple[Mat, Mat]:
    """The 2-form J on the ambient space and its positive half J', with J = J' - J'^t."""
    k = len(orders)
    P1 = xl.diag([Fraction(1, n) for n in orders])
    J2 = xl.block([[xl.zeros(k, k), P1], [-P1, xl.zeros(k, k)]])
    J = xl.block_diag(xl.standard_symplectic(p), xl.standard_symplectic(q), J2)
    Jp = Mat([[max(x, 0) for x in row] for row in J.rows], J.den, J.shape[1])
    return J, Jp


def _value(M: Mat, x: list[int], y: list[int]) -> int:
    """den * x^t M y for integer vectors x and y."""
    return sum(map(mul, x, [sum(map(mul, row, y)) for row in M.rows]))


def _half_phase(M: Mat, x: list[int], y: list[int]) -> complex:
    """e(x^t M y / 2)."""
    return _e(_value(M, x, y), 2 * M.den)


def coordinate_rows(M: Mat, p: int, q: int, k: int) -> list[tuple]:
    """The integer rows of M cut as (u, u^, a, a^, w, w^), of sizes (p, p, q, q, k, k)."""
    bounds = list(itertools.accumulate((p, p, q, q, k, k), initial=0))
    return [M.rows[i:j] for i, j in zip(bounds, bounds[1:])]


def non_integral_rows(M: Mat, p: int, q: int, k: int) -> str | None:
    """The first of the a, w and w^ row blocks of M with a non-integer entry, or None.

    Those rows must be integral so that lattice vectors land in Z^q x W x W^.
    """
    _, _, a, _, w, what = coordinate_rows(M, p, q, k)
    for label, block in (("a", a), ("w", w), ("w^", what)):
        if any(x % M.den for row in block for x in row):
            return label
    return None


class _Image:
    """An embedding matrix (T or S) as integer rows cut into coordinate blocks.

    The u, u^ and a^ rows are numerators over ``den``; the a, w and w^ rows
    are integral and held divided out.  ``half`` is M^t J' M, so that
    M(x).J'M(x) = x^t half x for a lattice vector x.
    """

    def __init__(self, M: Mat, name: str, d: ModuleDescriptor):
        if M.shape != (d.ambient_dim, d.n):
            raise ShapeMismatch(f"{name} has shape {M.shape}, expected {(d.ambient_dim, d.n)}")
        label = non_integral_rows(M, d.p, d.q, d.k)
        if label:
            raise ShapeMismatch(f"{name} has a non-integer entry in its {label} rows")
        self.den = den = M.den
        self.u, self.uhat, a, self.ahat, w, what = coordinate_rows(M, d.p, d.q, d.k)
        self.a, self.w, self.what = ([[x // den for x in row] for row in b] for b in (a, w, what))
        self.orders = d.orders
        self.modulus = math.lcm(den, *d.orders)
        self.half = xl.matmul(M.T, d.Jprime, M)


def verify_descriptor(d: ModuleDescriptor) -> None:
    """Check exactly that T^t J T = theta, S^t J S = -theta' and S^t J T is integral.

    Since J = J' - J'^t, the first two read Q - Q^t for the half forms
    Q = M^t J' M that ``_images`` compiles.

    Raises:
        ShapeMismatch: if an a, w or w^ row of T or S is not integral.
        IdentityViolated: naming the first identity that fails.
    """
    T, S = d._images
    if T.half - T.half.T != d.theta.M:
        raise IdentityViolated("T^t J T = theta does not hold")
    if S.half - S.half.T != -d.theta_prime.M:
        raise IdentityViolated("S^t J S = -theta' does not hold")
    if not xl.is_integral(xl.matmul(d.S.T, d.J, d.T)):
        raise IdentityViolated("S^t J T is not integral")


def _lattice(x, d: ModuleDescriptor) -> tuple[int, ...]:
    x = tuple(x)
    try:
        v = tuple(map(int, x))
    except (TypeError, ValueError, ArithmeticError):  # None, 1j, nan, +-inf, ...
        v = None
    if len(x) != d.n or x != v:
        raise ShapeMismatch(f"expected a lattice vector of {d.n} integers, got {list(x)}")
    return v


class _Twist:
    """The constants of the actions of the lattice vectors xs through an image M.

    Vector i acts on the i-th of len(xs) blocks of ``block`` points, and each
    constant is a column with one entry per point, vector i's value repeated
    over its block.  With sign -1 (U_x through T)
    or +1 (V_x through S): ``phase`` is e(-M(x).J'M(x)/2), the shift
    m -> m + sign M'(x) adds the columns ``su``, ``sa`` and ``sw`` (mod
    ``orders``), and the pairing <m, -sign M''(x)> has integer coefficient
    columns ``ca``, ``cw`` over one ``modulus`` and float ones ``cu``, where M'
    and M'' are the M and M-hat parts of M(x).
    """

    __slots__ = ("phase", "cu", "ca", "cw", "modulus", "su", "sa", "sw", "orders")

    def __init__(self, img: _Image, xs: tuple[tuple[int, ...], ...], sign: int, block: int):
        def image(rows):  # per row, its value at each vector
            return [[sum(map(mul, row, x)) for x in xs] for row in rows]

        def spread(rows):  # per row, its value at each point
            return [_spread(r, block) for r in rows]

        den, L = img.den, img.modulus
        self.phase = _spread([_e(-_value(img.half, x, x), 2 * img.half.den) for x in xs], block)
        self.su = spread([[sign * (v / den) for v in r] for r in image(img.u)])
        self.sa = spread([[sign * v for v in r] for r in image(img.a)])
        self.sw = spread([[sign * v % n for v in r] for r, n in zip(image(img.w), img.orders)])
        self.cu = spread([[-sign * (v / den) for v in r] for r in image(img.uhat)])
        self.ca = spread([[-sign * v * (L // den) % L for v in r] for r in image(img.ahat)])
        self.cw = spread([[-sign * v * (L // n) % L for v in r] for r, n in zip(image(img.what), img.orders)])
        self.modulus = L
        self.orders = img.orders


# A block of a simulation run uses ten actions, six of them distinct
@functools.lru_cache(maxsize=8)
def _twist(img: _Image, xs: tuple[tuple[int, ...], ...], sign: int, block: int) -> _Twist:
    return _Twist(img, xs, sign, block)


def _sums(columns: list, size: int, total=math.fsum) -> list:
    """Per point, the total of its terms; 0 with no columns.

    math.fsum is correctly rounded, so a float total is the same on every
    Python version; exact int terms pass total=sum to stay ints.
    """
    return list(map(total, zip(*columns))) if columns else [0] * size


def _spread(consts: list, block: int) -> list:
    """One entry per point: each per-vector constant repeated over its block."""
    out = []
    for c in consts:
        out += [c] * block
    return out


def _twisted(f: PointFunction, img: _Image, xs: tuple, sign: int) -> PointFunction:
    """m -> phase <m, ...> f(shift(m)) for the actions of the vectors xs, built for the block size of m."""

    def ev(m: Points) -> list[complex]:
        block, rest = divmod(m.size, len(xs))
        if rest:
            raise ShapeMismatch(f"{m.size} points do not split into {len(xs)} equal blocks")
        tw = _twist(img, xs, sign, block)
        L = tw.modulus
        exact = _sums([list(map(mul, col, c)) for col, c in zip(m.a + m.w, tw.ca + tw.cw)], m.size, sum)
        real = _sums([list(map(mul, col, c)) for col, c in zip(m.u, tw.cu)], m.size)
        u = [list(map(add, col, s)) for col, s in zip(m.u, tw.su)]
        a = [list(map(add, col, s)) for col, s in zip(m.a, tw.sa)]
        w = [[(v + s) % n for v, s in zip(col, c)] for col, c, n in zip(m.w, tw.sw, tw.orders)]
        values = f(Points(u, a, w, m.size))
        try:
            return [
                p * cmath.exp(2j * math.pi * (e % L / L + r)) * v
                for p, e, r, v in zip(tw.phase, exact, real, values)
            ]
        except ValueError:  # cmath.exp of an infinite pairing
            raise OverflowError("a pairing phase is out of float range") from None

    return ev


def _right(f: PointFunction, xs: tuple, d: ModuleDescriptor) -> PointFunction:
    return _twisted(f, d._images[0], xs, -1)


def _left(xs: tuple, f: PointFunction, d: ModuleDescriptor) -> PointFunction:
    return _twisted(f, d._images[1], xs, +1)


def right_action(f: PointFunction, x, d: ModuleDescriptor) -> PointFunction:
    """(f U_x)(m) = e(-T(x).J'T(x)/2) <m, T''(x)> f(m - T'(x))."""
    return _right(f, (_lattice(x, d),), d)


def left_action(x, f: PointFunction, d: ModuleDescriptor) -> PointFunction:
    """(V_x f)(m) = e(-S(x).J'S(x)/2) <m, -S''(x)> f(m + S'(x))."""
    return _left((_lattice(x, d),), f, d)


def _pairs(pairs, d: ModuleDescriptor) -> tuple[tuple, tuple, tuple]:
    """The lattice vectors x, y and x + y of each pair, as three vector lists."""
    xs = tuple(_lattice(x, d) for x, _ in pairs)
    ys = tuple(_lattice(y, d) for _, y in pairs)
    return xs, ys, tuple(tuple(map(add, x, y)) for x, y in zip(xs, ys))


def _worst(residuals: list[float], trials: int) -> float:
    """max(w, max(block)) folded from w = 0.0 over the trials' blocks in order."""
    block = len(residuals) // trials
    w = 0.0
    for i in range(0, len(residuals), block):
        w = max(w, max(residuals[i : i + block]))
    return w


def check_module_relation(pairs, f: PointFunction, m: Points, d: ModuleDescriptor) -> float:
    """The worst |((f U_x) U_y)(m) - sigma_theta(x,y) (f U_{x+y})(m)|.

    Pair i of ``pairs`` acts on the i-th of len(pairs) equal blocks of m.
    """
    xs, ys, xys = _pairs(pairs, d)
    lhs = _right(_right(f, xs, d), ys, d)(m)
    sig = _spread([_half_phase(d.theta.M, x, y) for x, y in zip(xs, ys)], m.size // len(xs))
    rhs = _right(f, xys, d)(m)
    return _worst([abs(l - s * r) for l, s, r in zip(lhs, sig, rhs)], len(xs))


def check_left_relation(pairs, f: PointFunction, m: Points, d: ModuleDescriptor) -> float:
    """Mirror relation for the other algebra, with the cocycle of theta'."""
    xs, ys, xys = _pairs(pairs, d)
    lhs = _left(xs, _left(ys, f, d), d)(m)
    sig = _spread([_half_phase(d.theta_prime.M, x, y) for x, y in zip(xs, ys)], m.size // len(xs))
    rhs = _left(xys, f, d)(m)
    return _worst([abs(l - s * r) for l, s, r in zip(lhs, sig, rhs)], len(xs))


def check_bimodule_commutation(pairs, f: PointFunction, m: Points, d: ModuleDescriptor) -> float:
    """The worst |(V_y (f U_x))(m) - ((V_y f) U_x)(m)|, blocks as in check_module_relation."""
    xs, ys, _ = _pairs(pairs, d)
    lhs = _left(ys, _right(f, xs, d), d)(m)
    rhs = _right(_left(ys, f, d), xs, d)(m)
    return _worst([abs(l - r) for l, r in zip(lhs, rhs)], len(xs))


# ---------------------------------------------------------------------------
# test functions and sample points


def gaussian(
    d: ModuleDescriptor,
    center_u: tuple[float, ...] | None = None,
    center_a: tuple[int, ...] | None = None,
    modulation: tuple[float, ...] | None = None,
    w_char: tuple[int, ...] | None = None,
) -> PointFunction:
    """A Gaussian-class function: Gaussian in u and a, character in w."""
    cu = center_u if center_u is not None else (0.0,) * d.p
    ca = center_a if center_a is not None else (0,) * d.q
    mod = modulation if modulation is not None else (0.0,) * (d.p + d.q)
    ch = w_char if w_char is not None else (0,) * d.k
    orders = d.orders

    def ev(m: Points) -> list[complex]:
        su = _sums([[(v - c) ** 2 for v in col] for col, c in zip(m.u, cu)], m.size)
        sa = _sums([[(v - c) ** 2 for v in col] for col, c in zip(m.a, ca)], m.size, sum)
        pua = _sums([[t * v for v in col] for t, col in zip(mod, m.u + m.a)], m.size)
        pw = _sums([[t * v % n / n for v in col] for t, col, n in zip(ch, m.w, orders)], m.size)
        return [math.exp(-math.pi * (s + t)) * cmath.exp(2j * math.pi * (x + y)) for s, t, x, y in zip(su, sa, pua, pw)]

    return ev


def random_gaussian(rng: random.Random, d: ModuleDescriptor) -> PointFunction:
    return gaussian(
        d,
        center_u=tuple(rng.uniform(-1, 1) for _ in range(d.p)),
        center_a=tuple(rng.randint(-1, 1) for _ in range(d.q)),
        modulation=tuple(rng.uniform(-1, 1) for _ in range(d.p + d.q)),
        w_char=tuple(rng.randrange(max(d.orders[j], 1)) for j in range(d.k)),
    )


def random_samples(rng: random.Random, d: ModuleDescriptor, count: int) -> Points:
    """count random points as a batch, drawn point by point: its u, then a, then w coordinates."""
    m = Points([[] for _ in range(d.p)], [[] for _ in range(d.q)], [[] for _ in range(d.k)], count)
    for _ in range(count):
        for col in m.u:
            col.append(rng.uniform(-2, 2))
        for col in m.a:
            col.append(rng.randint(-3, 3))
        for col, n in zip(m.w, d.orders):
            col.append(rng.randrange(n))
    return m


def random_lattice_vector(rng: random.Random, d: ModuleDescriptor) -> list[int]:
    return [rng.randint(-3, 3) for _ in range(d.n)]


# ---------------------------------------------------------------------------
# numeric inner product

U_HALFWIDTH = 6.0
U_POINTS = 96
A_HALFWIDTH = 8
TOLERANCE = 1e-8


def inner_product_numeric(f: PointFunction, g: PointFunction, x, d: ModuleDescriptor) -> complex:
    """<f, g>(x) = e(-T(x).J'T(x)/2) int <m, -T''(x)> g(m + T'(x)) conj(f(m)) dm.

    Haar measure is Lebesgue on R^p, counting on Z^q (truncated), and
    normalized counting on W; the overall constant is fixed at K = 1.
    Convergence is checked by doubling the number of midpoints.

    Raises:
        QuadratureUnconverged: if doubling changes the value by more than
            TOLERANCE.
    """
    if d.p > 2:
        raise ValueError("numeric inner product supports p <= 2 only")
    g_twisted = _twisted(g, d._images[0], (_lattice(x, d),), +1)  # built once per node batch size
    coarse = _integrate(f, g_twisted, d, U_POINTS)
    fine = _integrate(f, g_twisted, d, 2 * U_POINTS)
    if abs(fine - coarse) > TOLERANCE:
        raise QuadratureUnconverged(f"delta {abs(fine - coarse):.3e} above {TOLERANCE:.1e}")
    return fine


def _integrate(f, g_twisted, d: ModuleDescriptor, nodes_per_axis: int) -> complex:
    # The integrand is smooth and decays like a Gaussian, so it is negligible
    # past +-U_HALFWIDTH and the equally spaced rule converges exponentially in
    # the number of points (Trefethen & Weideman 2014, SIAM Rev. 56:385-458).
    h = 2 * U_HALFWIDTH / nodes_per_axis
    nodes = [(i + 0.5) * h - U_HALFWIDTH for i in range(nodes_per_axis)]
    u = [list(c) for c in zip(*itertools.product(nodes, repeat=d.p))]
    size = nodes_per_axis**d.p
    total = 0j
    for a, w in itertools.product(
        itertools.product(range(-A_HALFWIDTH, A_HALFWIDTH + 1), repeat=d.q),
        itertools.product(*map(range, d.orders)),
    ):
        m = Points(u=u, a=[[v] * size for v in a], w=[[v] * size for v in w], size=size)
        total += sum(map(mul, g_twisted(m), (v.conjugate() for v in f(m))))
    return total * h**d.p / math.prod(d.orders)
