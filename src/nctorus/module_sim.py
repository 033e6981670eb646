"""Desk-scale numeric realization of the Heisenberg bimodule actions.

Functions live on M = R^p x Z^q x W with W a finite product of cyclic
groups, and map a batch of points (``Points``, coordinate columns, the only
point type: ``random_samples`` draws samples straight into one) to their
values.  The two unitary actions are shift-and-modulate closures built from
the exact embedding matrices, so the algebra relations are checked at sample
points with no grid discretization; the only floating point enters through
the final phase/Gaussian evaluations.

All exact arithmetic runs on Python ints.  A descriptor is compiled once
(``ModuleDescriptor._images``), by ``verify_descriptor`` when it is parsed
and otherwise on its first action: the integer rows of T and S are cut into
coordinate blocks, with their a, w and w^ rows checked integral; J is
memoized per shape (``build_forms``).  Each row of J has one nonzero
entry, so the products of the descriptor's identities keep J on the left:
J T and J S are formed once, each row one scaled row of T or S, and then
T^t (J T), S^t (J S) and S^t (J T).  The cocycles read the integer rows of
theta and theta' directly.  An action (``_Twist``) is built for a list of
image vectors M(x) and a block size at once: vector i acts on the i-th of
len(xs) equal blocks of a batch, and fixes its shift, its pairing (integer
coefficients over one modulus L and float u-coefficients) and its phase
e(-M(x).J'M(x)/2) there, each read off M(x) and held as per-point columns.  A simulation ``Block``
validates the lattice pairs of several trials once, repeats the sample batch
once per pair (``tile``), takes the images of its x and y in one pass over
each embedding's rows (those of x + y by exact int addition) and builds its
six actions (U_x, U_y, U_{x+y}, V_x, V_y, V_{x+y}) once, for the three
relation checks to share; a block holds at most ``BATCH_POINTS`` points.
``right_action`` and ``left_action`` build the one-vector case for the batch
they are called on.  Each check reports its worst residual, NaN if any
residual is NaN.  A phase e(N / L) is evaluated as exp(2 pi i (N mod L) / L):
the exact reduction mod 1 comes first and the one int division is correctly
rounded, so it equals float(Fraction(N, L) % 1) bit for bit, whatever the
denominator the fraction is written over, and residuals stay at machine
precision even for large integer arguments.  Evaluation builds no
``Fraction``, and each per-point float sum is a math.fsum over that point's
terms (a lone term is its own sum), correctly rounded, so values depend
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
    """A malformed vector, block or embedding matrix, a failed identity of T and S, or an unconverged quadrature."""


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

    @property
    def J(self) -> Mat:
        return build_forms(self.p, self.q, self.orders)

    @functools.cached_property
    def _images(self) -> tuple[_Image, _Image]:
        """T and S cut into coordinate blocks, built on first use.

        Raises:
            ModuleSimError: if T or S has the wrong shape or an a, w or w^ row that is not integral.
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


@functools.lru_cache(maxsize=256)
def build_forms(p: int, q: int, orders: tuple[int, ...]) -> Mat:
    """The 2-form J on the ambient space, whose positive half J' the action phases read.

    Memoized per shape, like ``xl.eye`` per size, which is safe because a Mat
    is immutable; the bound keeps a long campaign over many shapes from growing it.
    """
    J2 = xl.canonical_alternating([Fraction(1, n) for n in orders], 2 * len(orders))
    return xl.block_diag(xl.standard_symplectic(p), xl.standard_symplectic(q), J2)


def _value(M: Mat, x: list[int], y: list[int]) -> int:
    """den * x^t M y for integer vectors x and y."""
    return sum(map(mul, x, [sum(map(mul, row, y)) for row in M.rows]))


def _half_phase(M: Mat, x: list[int], y: list[int]) -> complex:
    """e(x^t M y / 2)."""
    return _e(_value(M, x, y), 2 * M.den)


def _block_bounds(p: int, q: int, k: int) -> list[tuple[int, int]]:
    """The (start, stop) rows of the blocks (u, u^, a, a^, w, w^), of sizes (p, p, q, q, k, k)."""
    return list(itertools.pairwise(itertools.accumulate((p, p, q, q, k, k), initial=0)))


def coordinate_rows(M: Mat, p: int, q: int, k: int) -> list[tuple]:
    """The integer rows of M cut as (u, u^, a, a^, w, w^), of sizes (p, p, q, q, k, k)."""
    return [M.rows[i:j] for i, j in _block_bounds(p, q, k)]


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

    ``rows`` are its ambient rows in the order (u, u^, a, a^, w, w^), and
    ``bounds`` cut an image vector M(x) into those six blocks: the u, u^ and a^
    entries are numerators over ``den``, the a, w and w^ rows are integral and
    held divided out.  ``pairing`` lists the index pairs (i, j) of u.u^,
    a.a^ and w.w^ with the int weight c that puts each product over the one
    denominator den L: den L M(x).J'M(x) = sum of c v_i v_j.
    """

    def __init__(self, M: Mat, name: str, d: ModuleDescriptor):
        if M.shape != (d.ambient_dim, d.n):
            raise ModuleSimError(f"{name} has shape {M.shape}, expected {(d.ambient_dim, d.n)}")
        label = non_integral_rows(M, d.p, d.q, d.k)
        if label:
            raise ModuleSimError(f"{name} has a non-integer entry in its {label} rows")
        self.den = den = M.den
        u, uhat, a, ahat, w, what = coordinate_rows(M, d.p, d.q, d.k)
        a, w, what = ([[x // den for x in row] for row in b] for b in (a, w, what))
        self.rows = [*u, *uhat, *a, *ahat, *w, *what]
        self.bounds = _block_bounds(d.p, d.q, d.k)
        self.orders = d.orders
        self.modulus = L = math.lcm(den, *d.orders)
        (u0, _), (h0, _), (a0, _), (b0, _), (w0, _), (z0, _) = self.bounds
        self.pairing = (
            [(u0 + i, h0 + i, L // den) for i in range(d.p)]
            + [(a0 + i, b0 + i, L) for i in range(d.q)]
            + [(w0 + j, z0 + j, den * L // n) for j, n in enumerate(d.orders)]
        )


def _image(img: _Image, xs: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The image vector M(x) of each lattice vector x, in the integer form of ``img.rows``."""
    return tuple(tuple([sum(map(mul, row, x)) for row in img.rows]) for x in xs)


def _phase_arguments(img: _Image, image: tuple) -> tuple[list[int], int]:
    """The phase arguments -v.J'v/2 of the image vectors v, as int numerators over one denominator.

    v.J'v = sum u.u^/den^2 + a.a^/den + w.w^/n_j, and den L clears all three.
    _e reduces num mod den before its one division, so e(num / den) is the
    same float over any denominator of the same rational.
    """
    pairing = img.pairing
    return [-sum([c * v[i] * v[j] for i, j, c in pairing]) for v in image], 2 * img.den * img.modulus


def verify_descriptor(d: ModuleDescriptor) -> None:
    """Check exactly that T^t J T = theta, S^t J S = -theta' and S^t J T is integral.

    J T and J S are formed once each, with J on the left: each row of J has
    one nonzero entry, so each of their rows is one scaled row of T or S.

    Raises:
        ModuleSimError: if T or S has the wrong shape or an a, w or w^ row
            that is not integral, or naming the first identity that fails.
    """
    d._images  # compiled first: a bad shape or a non-integral a, w or w^ row is reported before an identity
    T, S = d.T, d.S
    JT, JS = xl.matmul(d.J, T), xl.matmul(d.J, S)
    if xl.matmul(T.T, JT) != d.theta.M:
        raise ModuleSimError("T^t J T = theta does not hold")
    if xl.matmul(S.T, JS) != -d.theta_prime.M:
        raise ModuleSimError("S^t J S = -theta' does not hold")
    if not xl.is_integral(xl.matmul(S.T, JT)):
        raise ModuleSimError("S^t J T is not integral")


def _lattice(x, d: ModuleDescriptor) -> tuple[int, ...]:
    x = tuple(x)
    try:
        v = tuple(map(int, x))
    except (TypeError, ValueError, ArithmeticError):  # None, 1j, nan, +-inf, ...
        v = None
    if len(x) != d.n or x != v:
        raise ModuleSimError(f"expected a lattice vector of {d.n} integers, got {list(x)}")
    return v


class _Twist:
    """The constants of the actions through an image M of the lattice vectors whose images M(x) are ``image``.

    Vector i acts on the i-th of len(image) blocks of ``block`` points, and
    each constant is a column with one entry per point, vector i's value
    repeated over its block.  With sign -1 (U_x through T) or +1 (V_x through
    S): ``phase`` is e(-M(x).J'M(x)/2), the shift m -> m + sign M'(x) adds the
    columns ``su``, ``sa`` and ``sw`` (mod ``orders``), and the pairing
    <m, -sign M''(x)> has integer coefficient columns ``cexact``, for a and
    then w, over one ``modulus`` and float ones ``cu``, where M' and M'' are
    the M and M-hat parts of M(x).  Every constant is read off the image.
    """

    __slots__ = ("phase", "cu", "cexact", "modulus", "su", "sa", "sw", "orders")

    def __init__(self, img: _Image, image: tuple, sign: int, block: int):
        def spread(rows):  # per row, its value at each point
            return [_spread(r, block) for r in rows]

        den, L = img.den, img.modulus
        rows = list(zip(*image))  # per ambient row, its value at each vector
        u, uhat, a, ahat, w, what = (rows[i:j] for i, j in img.bounds)
        nums, phase_den = _phase_arguments(img, image)
        self.phase = _spread([_e(t, phase_den) for t in nums], block)
        self.su = spread([[sign * (v / den) for v in r] for r in u])
        self.sa = spread([[sign * v for v in r] for r in a])
        self.sw = spread([[sign * v % n for v in r] for r, n in zip(w, img.orders)])
        self.cu = spread([[-sign * (v / den) for v in r] for r in uhat])
        self.cexact = spread(
            [[-sign * v * (L // den) % L for v in r] for r in ahat]
            + [[-sign * v * (L // n) % L for v in r] for r, n in zip(what, img.orders)]
        )
        self.modulus = L
        self.orders = img.orders


def _sums(columns: list[list[float]], size: int) -> list:
    """Per point, the math.fsum of its float terms; 0 with no columns.

    math.fsum is correctly rounded, so a total is the same on every Python
    version.  A lone column is its own total, so a lone -0.0 term stays -0.0
    where fsum gives 0.0.  No byte can see that sign: every such total is a
    sum of squares, or is added to a float >= +0.0 or to the int 0 before it
    is used, and x + -0.0 == x + 0.0 for those.
    """
    if len(columns) == 1:
        return columns[0]
    return list(map(math.fsum, zip(*columns))) if columns else [0] * size


def _int_sums(columns, size: int) -> list[int]:
    """Per point, the exact total of its int terms, column by column; 0 with no columns."""
    acc = None
    for col in columns:
        acc = list(col) if acc is None else list(map(add, acc, col))
    return [0] * size if acc is None else acc


def _spread(consts: list, block: int) -> list:
    """One entry per point: each per-vector constant repeated over its block."""
    out = []
    for c in consts:
        out += [c] * block
    return out


def _twisted(f: PointFunction, tw: _Twist) -> PointFunction:
    """m -> phase <m, ...> f(shift(m)) for the actions of a twist, on a batch of the size it was built for."""

    def ev(m: Points) -> list[complex]:
        L = tw.modulus
        exact = _int_sums((map(mul, col, c) for col, c in zip(m.a + m.w, tw.cexact)), m.size)
        real = _sums([list(map(mul, col, c)) for col, c in zip(m.u, tw.cu)], m.size)
        u = [list(map(add, col, s)) for col, s in zip(m.u, tw.su)]
        a = [list(map(add, col, s)) for col, s in zip(m.a, tw.sa)]
        w = [[(v + s) % n for v, s in zip(col, c)] for col, c, n in zip(m.w, tw.sw, tw.orders)]
        values = f(Points(u, a, w, m.size))
        exp, tau = cmath.exp, 2j * math.pi
        try:
            return [p * exp(tau * (e % L / L + r)) * v for p, e, r, v in zip(tw.phase, exact, real, values)]
        except ValueError:  # cmath.exp of an infinite pairing
            raise OverflowError("a pairing phase is out of float range") from None

    return ev


def _action(f: PointFunction, img: _Image, x, sign: int, d: ModuleDescriptor) -> PointFunction:
    """The action of one lattice vector x on f, its twist built for each batch it is evaluated on."""
    image = _image(img, (_lattice(x, d),))
    return lambda m: _twisted(f, _Twist(img, image, sign, m.size))(m)


def right_action(f: PointFunction, x, d: ModuleDescriptor) -> PointFunction:
    """(f U_x)(m) = e(-T(x).J'T(x)/2) <m, T''(x)> f(m - T'(x))."""
    return _action(f, d._images[0], x, -1, d)


def left_action(x, f: PointFunction, d: ModuleDescriptor) -> PointFunction:
    """(V_x f)(m) = e(-S(x).J'S(x)/2) <m, -S''(x)> f(m + S'(x))."""
    return _action(f, d._images[1], x, +1, d)


def _twists(img: _Image, xs: tuple, ys: tuple, sign: int, block: int) -> tuple[_Twist, _Twist, _Twist]:
    """The actions of xs, of ys and of xs + ys: one image pass over the rows, the sums by exact int addition."""
    images = _image(img, xs + ys)
    ix, iy = images[: len(xs)], images[len(xs) :]
    ixy = tuple(tuple(map(add, vx, vy)) for vx, vy in zip(ix, iy))
    return _Twist(img, ix, sign, block), _Twist(img, iy, sign, block), _Twist(img, ixy, sign, block)


class Block:
    """A block of simulation trials: lattice pairs, the sample batch and the six actions on them.

    Pair i acts on the i-th copy of ``sample`` in ``m``, the sample repeated
    once per pair.  Each lattice vector is validated once, and the actions
    U_x, U_y, U_{x+y} (through T) and V_x, V_y, V_{x+y} (through S) are built
    once, for the three relation checks to share.

    Raises:
        ModuleSimError: with no pair or no sample point, or a pair not of two lattice vectors.
    """

    def __init__(self, pairs, sample: Points, d: ModuleDescriptor):
        if not pairs or not sample.size:
            raise ModuleSimError("a block needs at least one pair and one sample point")
        self.d = d
        self.xs = tuple(_lattice(x, d) for x, _ in pairs)
        self.ys = tuple(_lattice(y, d) for _, y in pairs)
        self.block = sample.size
        self.m = tile(sample, len(pairs))
        T, S = d._images
        self.ux, self.uy, self.uxy = _twists(T, self.xs, self.ys, -1, self.block)
        self.vx, self.vy, self.vxy = _twists(S, self.xs, self.ys, +1, self.block)

    def cocycle(self, theta: Theta) -> list[complex]:
        """sigma_theta(x, y) = e(x^t theta y / 2) of each pair, one entry per point."""
        return _spread([_half_phase(theta.M, x, y) for x, y in zip(self.xs, self.ys)], self.block)


def _worst(residuals: list[float]) -> float:
    """The largest residual, or NaN if any is NaN: max alone keeps or drops a NaN by its position."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def check_module_relation(block: Block, f: PointFunction) -> float:
    """The worst |((f U_x) U_y)(m) - sigma_theta(x,y) (f U_{x+y})(m)| over the block's points."""
    lhs = _twisted(_twisted(f, block.ux), block.uy)(block.m)
    sig = block.cocycle(block.d.theta)
    rhs = _twisted(f, block.uxy)(block.m)
    return _worst([abs(l - s * r) for l, s, r in zip(lhs, sig, rhs)])


def check_left_relation(block: Block, f: PointFunction) -> float:
    """Mirror relation for the other algebra, with the cocycle of theta'."""
    lhs = _twisted(_twisted(f, block.vy), block.vx)(block.m)
    sig = block.cocycle(block.d.theta_prime)
    rhs = _twisted(f, block.vxy)(block.m)
    return _worst([abs(l - s * r) for l, s, r in zip(lhs, sig, rhs)])


def check_bimodule_commutation(block: Block, f: PointFunction) -> float:
    """The worst |(V_y (f U_x))(m) - ((V_y f) U_x)(m)| over the block's points."""
    lhs = _twisted(_twisted(f, block.ux), block.vy)(block.m)
    rhs = _twisted(_twisted(f, block.vy), block.ux)(block.m)
    return _worst([abs(l - r) for l, r in zip(lhs, rhs)])


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
        sa = _int_sums(([(v - c) ** 2 for v in col] for col, c in zip(m.a, ca)), m.size)
        pua = _sums([[t * v for v in col] for t, col in zip(mod, m.u + m.a)], m.size)
        pw = _sums([[t * v % n / n for v in col] for t, col, n in zip(ch, m.w, orders)], m.size)
        exp, cexp, neg_pi, tau = math.exp, cmath.exp, -math.pi, 2j * math.pi
        return [exp(neg_pi * (s + t)) * cexp(tau * (x + y)) for s, t, x, y in zip(su, sa, pua, pw)]

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
        ModuleSimError: if doubling changes the value by more than
            TOLERANCE.
    """
    if d.p > 2:
        raise ValueError("numeric inner product supports p <= 2 only")
    image = _image(d._images[0], (_lattice(x, d),))
    coarse = _integrate(f, g, image, d, U_POINTS)
    fine = _integrate(f, g, image, d, 2 * U_POINTS)
    if abs(fine - coarse) > TOLERANCE:
        raise ModuleSimError(f"delta {abs(fine - coarse):.3e} above {TOLERANCE:.1e}")
    return fine


def _integrate(f, g, image: tuple, d: ModuleDescriptor, nodes_per_axis: int) -> complex:
    # The integrand is smooth and decays like a Gaussian, so it is negligible
    # past +-U_HALFWIDTH and the equally spaced rule converges exponentially in
    # the number of points (Trefethen & Weideman 2014, SIAM Rev. 56:385-458).
    h = 2 * U_HALFWIDTH / nodes_per_axis
    nodes = [(i + 0.5) * h - U_HALFWIDTH for i in range(nodes_per_axis)]
    u = [list(c) for c in zip(*itertools.product(nodes, repeat=d.p))]
    size = nodes_per_axis**d.p
    g_twisted = _twisted(g, _Twist(d._images[0], image, +1, size))  # one twist for every node batch
    total = 0j
    for a, w in itertools.product(
        itertools.product(range(-A_HALFWIDTH, A_HALFWIDTH + 1), repeat=d.q),
        itertools.product(*map(range, d.orders)),
    ):
        m = Points(u=u, a=[[v] * size for v in a], w=[[v] * size for v in w], size=size)
        total += sum(map(mul, g_twisted(m), (v.conjugate() for v in f(m))))
    return total * h**d.p / math.prod(d.orders)
