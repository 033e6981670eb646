import cmath
import functools
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nctorus import cli
from nctorus import documents as docs
from nctorus import embedding as eb
from nctorus import exact_linalg as xl
from nctorus import module_sim as ms
from nctorus import torus_group as tg


def flip_descriptor():
    g = tg.sigma_flip([1, 2], 2)
    theta = tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]])
    return eb.pipeline(g, theta).descriptor


def torsion_descriptor():
    # C = 2I forces the half-integer block Z and torsion orders (2,)
    g = tg.check_membership(
        xl.mat([[0, -1], [1, 0]]), xl.zeros(2, 2), 2 * xl.eye(2), xl.mat([[0, -1], [1, 0]])
    )
    theta = tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]])
    return eb.pipeline(g, theta).descriptor


def mixed_descriptor():
    g = tg.sigma_flip([1, 2], 3)
    theta = tg.make_theta(
        [[0, F(1, 2), F(1, 3)], [F(-1, 2), 0, F(1, 5)], [F(-1, 3), F(-1, 5), 0]]
    )
    return eb.pipeline(g, theta).descriptor


def shift_descriptor():
    # p = 0: the module lives on Z^2 alone
    N = xl.mat([[0, 2], [-2, 0]])
    theta = tg.make_theta([[0, F(1, 4)], [F(-1, 4), 0]])
    return eb.pipeline(tg.mu(N), theta).descriptor


def torsion5_descriptor():
    # C = 5I: torsion orders (5,), so w shifts and characters are not mere signs
    g = tg.check_membership(
        xl.mat([[0, -1], [1, 0]]), xl.zeros(2, 2), 5 * xl.eye(2), xl.mat([[0, -1], [1, 0]])
    )
    theta = tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]])
    return eb.pipeline(g, theta).descriptor


ALL_DESCRIPTORS = [flip_descriptor, torsion_descriptor, mixed_descriptor, shift_descriptor, torsion5_descriptor]


# ---------------------------------------------------------------------------
# reference: the Fraction formulas that the integer-row kernel of module_sim
# replaced, kept as an oracle


@dataclass(frozen=True)
class MPart:
    u: tuple[F, ...]
    a: tuple[int, ...]
    w: tuple[int, ...]


@dataclass(frozen=True)
class MHatPart:
    uhat: tuple[F, ...]
    ahat: tuple[F, ...]
    what: tuple[int, ...]


def _as_int(x, what):
    if isinstance(x, int):
        return x
    if isinstance(x, F) and x.denominator == 1:
        return x.numerator
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ms.ModuleSimError(f"{what} slot holds non-integer value {x!r}")


def split_coordinates(v, d):
    """Split an ambient vector into its M and M-hat parts.

    Integer slots (a, w, w^) must hold exactly integral values; residues are
    reduced mod the torsion orders and the torus part mod 1.
    """
    v = list(v)
    if len(v) != d.ambient_dim:
        raise ms.ModuleSimError(f"expected {d.ambient_dim} coordinates, got {len(v)}")
    p, q, k = d.p, d.q, d.k
    u = tuple(F(x) for x in v[:p])
    uhat = tuple(F(x) for x in v[p : 2 * p])
    a = tuple(_as_int(x, "a") for x in v[2 * p : 2 * p + q])
    ahat = tuple(F(x) % 1 for x in v[2 * p + q : 2 * p + 2 * q])
    w = tuple(_as_int(x, "w") % d.orders[j] for j, x in enumerate(v[2 * p + 2 * q : 2 * p + 2 * q + k]))
    what = tuple(_as_int(x, "w^") % d.orders[j] for j, x in enumerate(v[2 * p + 2 * q + k :]))
    return MPart(u=u, a=a, w=w), MHatPart(uhat=uhat, ahat=ahat, what=what)


def transpose(pts):
    """The batch of MPart points as coordinate columns."""
    u, a, w = ([list(c) for c in zip(*(getattr(m, part) for m in pts))] for part in "uaw")
    return ms.Points(u, a, w, len(pts))


def ref_e2pi(t):
    if isinstance(t, (F, int)):
        t = float(F(t) % 1)
    return cmath.exp(2j * math.pi * t)


def ref_bilinear(x, M, y):
    """x^t M y with Fraction arithmetic on the entries of M."""
    return sum((F(xi) * mij * yj for xi, row in zip(x, M.tolist()) for mij, yj in zip(row, y)), F(0))


def ref_column(M, x):
    return [sum((F(m) * int(t) for m, t in zip(row, x)), F(0)) for row in M.tolist()]


def ref_jprime(d):
    """The positive part J' of the descriptor's form J, so that J = J' - J'^t."""
    J = d.J
    return xl.Mat([[max(x, 0) for x in row] for row in J.rows], J.den, J.shape[1])


def ref_half_form(v, Jprime):
    return ref_bilinear(v, Jprime, v) / 2


def ref_pairing(m, mhat, d):
    exact = F(0)
    for aj, bj in zip(m.a, mhat.ahat):
        exact += aj * bj
    for j, (wj, hj) in enumerate(zip(m.w, mhat.what)):
        exact += F(wj * hj, d.orders[j])
    real = sum(uj * float(vj) for uj, vj in zip(m.u, mhat.uhat))
    return ref_e2pi(float(exact % 1) + real)


def ref_shift_point(m, part, sign, d):
    u = tuple(uj + sign * float(vj) for uj, vj in zip(m.u, part.u))
    a = tuple(aj + sign * vj for aj, vj in zip(m.a, part.a))
    w = tuple((wj + sign * vj) % d.orders[j] for j, (wj, vj) in enumerate(zip(m.w, part.w)))
    return MPart(u=u, a=a, w=w)


def ref_right_action(f, x, d):
    Tx = ref_column(d.T, x)
    phase = ref_e2pi(-ref_half_form(Tx, ref_jprime(d)))
    tpart, that = split_coordinates(Tx, d)
    return lambda m: phase * ref_pairing(m, that, d) * f(ref_shift_point(m, tpart, -1, d))


def ref_left_action(x, f, d):
    Sx = ref_column(d.S, x)
    phase = ref_e2pi(-ref_half_form(Sx, ref_jprime(d)))
    spart, shat = split_coordinates(Sx, d)
    neg_shat = MHatPart(
        uhat=tuple(-v for v in shat.uhat),
        ahat=tuple((-v) % 1 for v in shat.ahat),
        what=tuple((-v) % d.orders[j] for j, v in enumerate(shat.what)),
    )
    return lambda m: phase * ref_pairing(m, neg_shat, d) * f(ref_shift_point(m, spart, +1, d))


def ref_sigma_cocycle(theta, x, y):
    return ref_e2pi(ref_bilinear([int(t) for t in x], theta.M, [int(t) for t in y]) / 2)


def ref_gaussian(d, cu, ca, mod, ch):
    def ev(m):
        s = sum((uj - cj) ** 2 for uj, cj in zip(m.u, cu))
        s += sum((aj - cj) ** 2 for aj, cj in zip(m.a, ca))
        phase = sum(t * v for t, v in zip(mod, list(m.u) + list(m.a)))
        phase += sum(float(F(tj * wj, d.orders[j]) % 1) for j, (tj, wj) in enumerate(zip(ch, m.w)))
        return math.exp(-math.pi * s) * ref_e2pi(phase)

    return ev


@functools.cache
def cached(make):
    return make()


@st.composite
def oracle_cases(draw, make):
    d = cached(make)
    floats = st.floats(-3, 3, allow_nan=False)
    lattice = st.lists(st.integers(-40, 40), min_size=d.n, max_size=d.n)
    point = st.builds(
        MPart,
        u=st.tuples(*[floats] * d.p),
        a=st.tuples(*[st.integers(-6, 6)] * d.q),
        w=st.tuples(*[st.integers(0, n - 1) for n in d.orders]),
    )
    params = (
        tuple(draw(floats) for _ in range(d.p)),
        tuple(draw(st.integers(-2, 2)) for _ in range(d.q)),
        tuple(draw(floats) for _ in range(d.p + d.q)),
        tuple(draw(st.integers(-5, 5)) for _ in range(d.k)),
    )
    return d, params, draw(lattice), draw(lattice), draw(st.lists(point, min_size=1, max_size=4))


class TestSplitCoordinates:
    def test_flip_columns(self):
        d = flip_descriptor()
        mpart, mhat = split_coordinates([F(1, 3), 0], d)
        assert mpart.u == (F(1, 3),) and mhat.uhat == (F(0),)

    def test_zero_vector(self):
        d = mixed_descriptor()
        mpart, mhat = split_coordinates([0] * d.ambient_dim, d)
        assert mpart.u == (F(0),) * 1 and mpart.a == (0,) and mhat.what == ()

    def test_integrality_gate(self):
        d = mixed_descriptor()
        v = [0, 0, 2.0, 0]  # a-slot holds an integral float
        split_coordinates(v, d)
        v[2] = 2.5
        with pytest.raises(ms.ModuleSimError, match="^a slot holds non-integer value 2.5$"):
            split_coordinates(v, d)

    def test_wrong_length(self):
        with pytest.raises(ms.ModuleSimError, match="^expected 2 coordinates, got 3$"):
            split_coordinates([0, 0, 0], flip_descriptor())

    def test_residue_reduction(self):
        d = torsion_descriptor()
        mpart, mhat = split_coordinates([0, 0, 5, -3], d)
        assert mpart.w == (1,) and mhat.what == (1,)


class TestFlipActions:
    def setup_method(self):
        self.d = flip_descriptor()
        self.f = ms.gaussian(self.d)

    def test_right_e1_is_shift(self):
        fu = ms.right_action(self.f, [1, 0], self.d)
        for m in [0.0, 0.25, -1.1]:
            pt = ms.Points([[m]], [], [], 1)
            want = self.f(ms.Points([[m - 1 / 3]], [], [], 1))[0]
            assert abs(fu(pt)[0] - want) < 1e-12

    def test_right_e2_is_modulation(self):
        fu = ms.right_action(self.f, [0, 1], self.d)
        for m in [0.0, 0.4, -0.7]:
            pt = ms.Points([[m]], [], [], 1)
            want = cmath.exp(2j * math.pi * m) * self.f(pt)[0]
            assert abs(fu(pt)[0] - want) < 1e-12

    def test_left_e2_is_shift(self):
        vf = ms.left_action([0, 1], self.f, self.d)
        pt = ms.Points([[0.3]], [], [], 1)
        want = self.f(ms.Points([[0.3 - 1]], [], [], 1))[0]
        assert abs(vf(pt)[0] - want) < 1e-12

    def test_left_e1_is_modulation(self):
        vf = ms.left_action([1, 0], self.f, self.d)
        pt = ms.Points([[0.2]], [], [], 1)
        want = cmath.exp(-2j * math.pi * 3 * 0.2) * self.f(pt)[0]
        assert abs(vf(pt)[0] - want) < 1e-12

    def test_zero_index_is_identity(self):
        fu = ms.right_action(self.f, [0, 0], self.d)
        vf = ms.left_action([0, 0], self.f, self.d)
        pt = ms.Points([[0.6]], [], [], 1)
        assert abs(fu(pt)[0] - self.f(pt)[0]) < 1e-15
        assert abs(vf(pt)[0] - self.f(pt)[0]) < 1e-15

    def test_pointwise_value(self):
        # ((f U_e1) U_e2)(0) = sigma(e1,e2) (f U_{e1+e2})(0) = exp(-pi/9)
        lhs = ms.right_action(ms.right_action(self.f, [1, 0], self.d), [0, 1], self.d)
        sig = ms._half_phase(self.d.theta.M, [1, 0], [0, 1])
        rhs = ms.right_action(self.f, [1, 1], self.d)
        origin = ms.Points([[0.0]], [], [], 1)
        want = math.exp(-math.pi / 9)
        assert abs(lhs(origin)[0] - want) < 1e-9
        assert abs(sig * rhs(origin)[0] - want) < 1e-9
        assert abs(sig - cmath.exp(2j * math.pi / 6)) < 1e-12


class TestRelations:
    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    def test_module_relation(self, make):
        d = make()
        rng = random.Random(31)
        f = ms.random_gaussian(rng, d)
        samples = ms.random_samples(rng, d, 6)
        for _ in range(25):
            x = ms.random_lattice_vector(rng, d)
            y = ms.random_lattice_vector(rng, d)
            assert ms.check_module_relation(ms.Block([(x, y)], samples, d), f) < 1e-9

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    def test_left_relation(self, make):
        d = make()
        rng = random.Random(32)
        f = ms.random_gaussian(rng, d)
        samples = ms.random_samples(rng, d, 6)
        for _ in range(25):
            x = ms.random_lattice_vector(rng, d)
            y = ms.random_lattice_vector(rng, d)
            assert ms.check_left_relation(ms.Block([(x, y)], samples, d), f) < 1e-9

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    def test_commutation(self, make):
        d = make()
        rng = random.Random(33)
        f = ms.random_gaussian(rng, d)
        samples = ms.random_samples(rng, d, 6)
        for _ in range(25):
            x = ms.random_lattice_vector(rng, d)
            y = ms.random_lattice_vector(rng, d)
            assert ms.check_bimodule_commutation(ms.Block([(x, y)], samples, d), f) < 1e-9

    def test_trivial_cases(self):
        d = flip_descriptor()
        f = ms.gaussian(d)
        samples = ms.Points([[0.1]], [], [], 1)
        assert ms.check_module_relation(ms.Block([([0, 0], [0, 0])], samples, d), f) == 0
        assert ms.check_bimodule_commutation(ms.Block([([0, 0], [0, 0])], samples, d), f) < 1e-15

    def test_phases_unit_modulus(self):
        for make in ALL_DESCRIPTORS:
            d = make()
            rng = random.Random(34)
            for _ in range(20):
                x = ms.random_lattice_vector(rng, d)
                v = [row[0] for row in (d.T @ xl.mat([[t] for t in x])).tolist()]
                phase = ref_e2pi(-ref_half_form(v, ref_jprime(d)))
                assert abs(abs(phase) - 1) < 1e-12


def p3_torsion_descriptor():
    # p = 3 with torsion orders (6, 1)
    return cli.campaign_trial(6, "campaign:0:4")[1].descriptor


def p3_descriptor():
    # p = 3 with no torsion
    return cli.campaign_trial(6, "campaign:0:5")[1].descriptor


def reference_inner_product(f_ref, g_ref, x, d, nodes=256, halfwidth=8):
    """int (g U_-x)(m) conj(f(m)) dm for q = 0 from the reference pieces: midpoints in u, W summed over prod n_j."""
    h = 2 * halfwidth / nodes
    grid = [(i + 0.5) * h - halfwidth for i in range(nodes)]
    g_x = ref_right_action(g_ref, [-t for t in x], d)
    total = 0j
    for u, w in itertools.product(itertools.product(grid, repeat=d.p), itertools.product(*map(range, d.orders))):
        m = MPart(u=u, a=(), w=w)
        total += g_x(m) * f_ref(m).conjugate()
    return total * h**d.p / math.prod(d.orders)


class TestInnerProduct:
    def test_gaussian_norm(self):
        d = flip_descriptor()
        f = ms.gaussian(d)
        val = ms.inner_product_numeric(f, f, [0, 0], d)
        assert abs(val - 1 / math.sqrt(2)) < 1e-9

    def test_parity_orthogonality(self):
        """An odd function is outside the Gaussian class, whose inner products have a closed form."""
        d = flip_descriptor()
        f = ms.gaussian(d)
        g = lambda m: [u * math.exp(-math.pi * u**2) for u in m.u[0]]
        message = "^the inner product is taken in closed form, of Gaussians only$"
        with pytest.raises(TypeError, match=message):
            ms.inner_product_numeric(f, g, [0, 0], d)
        with pytest.raises(TypeError, match=message):
            ms.inner_product_numeric(g, f, [0, 0], d)

    @pytest.mark.parametrize("make", [flip_descriptor, torsion_descriptor, torsion5_descriptor])
    def test_closed_form_equals_the_reference_midpoint_sum(self, make):
        d = make()
        rng = random.Random(37)

        def draw():  # centre, modulation and character, drawn as random_gaussian draws them (q = 0)
            centre, modulation = (tuple(rng.uniform(-1, 1) for _ in range(d.p)) for _ in range(2))
            return centre, (), modulation, tuple(rng.randrange(n) for n in d.orders)

        for _ in range(3):
            f_params, g_params, x = draw(), draw(), ms.random_lattice_vector(rng, d)
            want = reference_inner_product(ref_gaussian(d, *f_params), ref_gaussian(d, *g_params), x, d)
            got = ms.inner_product_numeric(ms.gaussian(d, *f_params), ms.gaussian(d, *g_params), x, d)
            assert abs(got - want) < 1e-9

    def test_characters_that_differ_are_orthogonal(self):
        d = torsion5_descriptor()
        f, g = ms.gaussian(d, w_char=(1,)), ms.gaussian(d, w_char=(3,))
        assert ms.inner_product_numeric(f, g, [0, 0], d) == 0j
        assert abs(ms.inner_product_numeric(g, g, [0, 0], d) - 1 / math.sqrt(2)) < 1e-9

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS + [p3_torsion_descriptor, p3_descriptor])
    def test_hermitian_symmetry(self, make):
        d = make()
        rng = random.Random(35)
        for _ in range(10):
            f = ms.random_gaussian(rng, d)
            g = ms.random_gaussian(rng, d)
            x = ms.random_lattice_vector(rng, d)
            left = ms.inner_product_numeric(f, g, x, d)
            right = ms.inner_product_numeric(g, f, [-t for t in x], d)
            assert abs(left - right.conjugate()) < 1e-9

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS + [p3_torsion_descriptor, p3_descriptor])
    def test_positivity_spot(self, make):
        d = make()
        rng = random.Random(36)
        for _ in range(10):
            f = ms.random_gaussian(rng, d)
            val = ms.inner_product_numeric(f, f, [0] * d.n, d)
            assert abs(val.imag) < 1e-9 and val.real > 0


class TestIntegerKernelOracle:
    """The integer-row kernel equals the Fraction formulas bit for bit."""

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_actions_equal_reference(self, make, data):
        d, params, x, y, points = data.draw(oracle_cases(make))
        f, f_ref = ms.gaussian(d, *params), ref_gaussian(d, *params)
        xy = [a + b for a, b in zip(x, y)]
        cases = {
            "f": (f, f_ref),
            "f U_x": (ms.right_action(f, x, d), ref_right_action(f_ref, x, d)),
            "V_y f": (ms.left_action(y, f, d), ref_left_action(y, f_ref, d)),
            "(f U_x) U_y": (
                ms.right_action(ms.right_action(f, x, d), y, d),
                ref_right_action(ref_right_action(f_ref, x, d), y, d),
            ),
            "V_x (V_y f)": (
                ms.left_action(x, ms.left_action(y, f, d), d),
                ref_left_action(x, ref_left_action(y, f_ref, d), d),
            ),
            "V_y (f U_x)": (
                ms.left_action(y, ms.right_action(f, x, d), d),
                ref_left_action(y, ref_right_action(f_ref, x, d), d),
            ),
            "(V_y f) U_x": (
                ms.right_action(ms.left_action(y, f, d), x, d),
                ref_right_action(ref_left_action(y, f_ref, d), x, d),
            ),
            "f U_x+y": (ms.right_action(f, xy, d), ref_right_action(f_ref, xy, d)),
            "V_x+y f": (ms.left_action(xy, f, d), ref_left_action(xy, f_ref, d)),
        }
        batch = transpose(points)
        for name, (new, ref) in cases.items():
            assert new(batch) == [ref(m) for m in points], name
        ref = {name: pair[1] for name, pair in cases.items()}
        for theta in (d.theta, d.theta_prime):
            assert ms._half_phase(theta.M, x, y) == ref_sigma_cocycle(theta, x, y)
        sig = ref_sigma_cocycle(d.theta, x, y)
        lhs, rhs = ref["(f U_x) U_y"], ref["f U_x+y"]
        assert ms.check_module_relation(ms.Block([(x, y)], batch, d), f) == max(abs(lhs(m) - sig * rhs(m)) for m in points)
        sig = ref_sigma_cocycle(d.theta_prime, x, y)
        lhs, rhs = ref["V_x (V_y f)"], ref["V_x+y f"]
        assert ms.check_left_relation(ms.Block([(x, y)], batch, d), f) == max(abs(lhs(m) - sig * rhs(m)) for m in points)
        lhs, rhs = ref["V_y (f U_x)"], ref["(V_y f) U_x"]
        assert ms.check_bimodule_commutation(ms.Block([(x, y)], batch, d), f) == max(abs(lhs(m) - rhs(m)) for m in points)

    def test_point_evaluation_builds_no_fraction(self, monkeypatch):
        d = torsion_descriptor()
        f = ms.gaussian(d, w_char=(1,))
        g = ms.left_action([2, -1], ms.right_action(f, [1, 3], d), d)
        points = ms.random_samples(random.Random(0), d, 4)
        built = []
        new = F.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
        values = g(points)
        monkeypatch.undo()
        assert built == [] and all(abs(v) > 0 for v in values)

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    def test_descriptors_satisfy_identities(self, make):
        ms.verify_descriptor(make())

    def test_wrong_embedding_shape(self):
        d = flip_descriptor()
        bad = ms.ModuleDescriptor(
            p=d.p, q=d.q, orders=d.orders, T=xl.zeros(3, 2), S=d.S, theta=d.theta, theta_prime=d.theta_prime,
        )
        with pytest.raises(ms.ModuleSimError, match=r"^T has shape \(3, 2\), expected \(2, 2\)$"):
            ms.verify_descriptor(bad)

    def test_wrong_lattice_length(self):
        d = flip_descriptor()
        with pytest.raises(ms.ModuleSimError, match=r"^expected a lattice vector of 2 integers, got \[1, 0, 0\]$"):
            ms.right_action(ms.gaussian(d), [1, 0, 0], d)

    @pytest.mark.parametrize(
        "bad",
        [[0.5, 0.5], [F(1, 2), 0], [1, 2.5], [math.nan, 0], [math.inf, 0], [0, -math.inf], [1j, 0], [None, 0]],
    )
    def test_non_integral_lattice_vector(self, bad):
        # int() would truncate [0.5, 0.5] to 0 and act as U_0
        d = flip_descriptor()
        f = ms.gaussian(d)
        batch = ms.Points([[0.1]], [], [], 1)
        message = "^" + re.escape(f"expected a lattice vector of 2 integers, got {bad}") + "$"
        with pytest.raises(ms.ModuleSimError, match=message):
            ms.right_action(f, bad, d)
        with pytest.raises(ms.ModuleSimError, match=message):
            ms.left_action(bad, f, d)
        with pytest.raises(ms.ModuleSimError, match=message):
            ms.check_module_relation(ms.Block([(bad, [0, 0])], batch, d), f)
        # integral entries of any numeric type are lattice vectors
        assert ms.right_action(f, [1.0, F(2)], d)(batch) == ms.right_action(f, [1, 2], d)(batch)


def per_trial_simulation(d, seed, samples, trials, tolerance):
    """The per-trial loop that batching replaced: each trial checks its one pair on the sample batch."""
    rng = random.Random(f"simulate:{seed}")
    f = ms.random_gaussian(rng, d)
    m = ms.random_samples(rng, d, samples)
    worst = {"module_relation": 0.0, "left_relation": 0.0, "commutation": 0.0}
    for _ in range(trials):
        pair = [(ms.random_lattice_vector(rng, d), ms.random_lattice_vector(rng, d))]
        worst["module_relation"] = max(worst["module_relation"], ms.check_module_relation(ms.Block(pair, m, d), f))
        worst["left_relation"] = max(worst["left_relation"], ms.check_left_relation(ms.Block(pair, m, d), f))
        worst["commutation"] = max(worst["commutation"], ms.check_bimodule_commutation(ms.Block(pair, m, d), f))
    return {
        "seed": seed,
        "samples": samples,
        "trials": trials,
        "tolerance": tolerance,
        "residuals": {k: float(v) for k, v in worst.items()},
        "passed": all(v < tolerance for v in worst.values()),
    }


CHECKS = [ms.check_module_relation, ms.check_left_relation, ms.check_bimodule_commutation]


class TestTrialBatching:
    """A batch of trials gives the bits of the per-trial loop."""

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    @pytest.mark.parametrize("trials", [1, 3, 7])
    def test_batched_check_is_the_fold_of_one_trial_checks(self, make, trials):
        d = make()
        for seed in range(3):
            rng = random.Random(f"fold:{seed}")
            f = ms.random_gaussian(rng, d)
            m = ms.random_samples(rng, d, 5)
            pairs = [(ms.random_lattice_vector(rng, d), ms.random_lattice_vector(rng, d)) for _ in range(trials)]
            for check in CHECKS:
                w = 0.0
                for pair in pairs:
                    w = max(w, check(ms.Block([pair], m, d), f))
                assert check(ms.Block(pairs, m, d), f) == w, check.__name__

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    @pytest.mark.parametrize("trials", [1, 3, 7])
    @pytest.mark.parametrize("batch_points", [ms.BATCH_POINTS, 16])
    def test_run_simulation_bytes_equal_the_per_trial_loop(self, monkeypatch, make, trials, batch_points):
        # with 16 points and 5 samples, blocks hold 3 trials: 7 trials make blocks of 3, 3 and 1
        monkeypatch.setattr(ms, "BATCH_POINTS", batch_points)
        sizes = []
        make_f = ms.random_gaussian

        def recording_gaussian(rng, d):
            f = make_f(rng, d)

            def ev(m):
                sizes.append(m.size)
                return f(m)

            return ev

        monkeypatch.setattr(ms, "random_gaussian", recording_gaussian)
        d = make()
        for seed in range(3):
            sizes.clear()
            batched = cli.run_simulation(d, seed, 5, trials, 1e-9)
            assert sizes and max(sizes) <= batch_points
            assert docs.dumps(batched) == docs.dumps(per_trial_simulation(d, seed, 5, trials, 1e-9))

    def test_a_block_needs_a_pair_and_a_sample_point(self):
        d = flip_descriptor()
        message = "^a block needs at least one pair and one sample point$"
        with pytest.raises(ms.ModuleSimError, match=message):
            ms.Block([], ms.random_samples(random.Random(0), d, 5), d)
        with pytest.raises(ms.ModuleSimError, match=message):
            ms.Block([([1, 0], [0, 1])], ms.random_samples(random.Random(0), d, 0), d)

    def test_each_lattice_vector_is_validated_once(self, monkeypatch):
        monkeypatch.setattr(ms, "BATCH_POINTS", 16)
        validated = []
        lattice = ms._lattice

        def counting_lattice(x, d):
            validated.append(x)
            return lattice(x, d)

        monkeypatch.setattr(ms, "_lattice", counting_lattice)
        cli.run_simulation(mixed_descriptor(), 0, 8, 50, 1e-9)  # 2 trials per block, 25 blocks
        assert len(validated) == 2 * 50


def test_each_action_is_built_once_per_block(monkeypatch):
    # a block uses U_x and V_y thrice each, U_y, U_x+y, V_x and V_x+y once:
    # ten uses of six distinct actions, each built once
    monkeypatch.setattr(ms, "BATCH_POINTS", 16)
    builds = []

    class CountingTwist(ms._Twist):
        __slots__ = ()

        def __init__(self, img, image, sign, block):
            builds.append((img, image, sign, block))
            super().__init__(img, image, sign, block)

    monkeypatch.setattr(ms, "_Twist", CountingTwist)
    d = mixed_descriptor()
    cli.run_simulation(d, 0, 8, 50, 1e-9)  # 2 trials per block, 25 blocks
    assert len(builds) == 6 * 25
    assert len(set(builds)) == len(builds)
    assert {len(image) for _, image, _, _ in builds} == {2}


class TestBlockBuild:
    """A block's six actions come from one image pass per embedding and equal the per-pair actions."""

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_block_sides_equal_the_per_pair_compositions(self, make, data):
        d = cached(make)
        lattice = st.lists(st.integers(-40, 40), min_size=d.n, max_size=d.n)
        pairs = data.draw(st.lists(st.tuples(lattice, lattice), min_size=1, max_size=4))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        f = ms.random_gaussian(rng, d)
        sample = ms.random_samples(rng, d, 3)
        b = ms.Block(pairs, sample, d)
        m, act = b.m, ms._twisted
        block = {
            "(f U_x) U_y": act(act(f, b.ux), b.uy)(m),
            "f U_x+y": act(f, b.uxy)(m),
            "V_x (V_y f)": act(act(f, b.vy), b.vx)(m),
            "V_x+y f": act(f, b.vxy)(m),
            "V_y (f U_x)": act(act(f, b.ux), b.vy)(m),
            "(V_y f) U_x": act(act(f, b.vy), b.ux)(m),
        }
        per_pair = {name: [] for name in block}
        sig, sig_prime = [], []
        for x, y in pairs:
            xy = [a + b for a, b in zip(x, y)]
            per_pair["(f U_x) U_y"] += ms.right_action(ms.right_action(f, x, d), y, d)(sample)
            per_pair["f U_x+y"] += ms.right_action(f, xy, d)(sample)
            per_pair["V_x (V_y f)"] += ms.left_action(x, ms.left_action(y, f, d), d)(sample)
            per_pair["V_x+y f"] += ms.left_action(xy, f, d)(sample)
            per_pair["V_y (f U_x)"] += ms.left_action(y, ms.right_action(f, x, d), d)(sample)
            per_pair["(V_y f) U_x"] += ms.right_action(ms.left_action(y, f, d), x, d)(sample)
            sig += [ref_sigma_cocycle(d.theta, x, y)] * sample.size
            sig_prime += [ref_sigma_cocycle(d.theta_prime, x, y)] * sample.size
        assert block == per_pair
        worst = lambda lhs, sig, rhs: max(abs(l - s * r) for l, s, r in zip(lhs, sig, rhs))
        sides = per_pair["(f U_x) U_y"], sig, per_pair["f U_x+y"]
        assert ms.check_module_relation(b, f) == worst(*sides)
        sides = per_pair["V_x (V_y f)"], sig_prime, per_pair["V_x+y f"]
        assert ms.check_left_relation(b, f) == worst(*sides)
        sides = per_pair["V_y (f U_x)"], [1] * m.size, per_pair["(V_y f) U_x"]
        assert ms.check_bimodule_commutation(b, f) == worst(*sides)

    @pytest.mark.parametrize("make", ALL_DESCRIPTORS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_phase_arguments_are_the_half_forms(self, make, data):
        d = cached(make)
        lattice = st.tuples(*[st.integers(-10**6, 10**6)] * d.n)
        xs = tuple(data.draw(st.lists(lattice, min_size=1, max_size=4)))
        ys = tuple(data.draw(st.lists(lattice, min_size=len(xs), max_size=len(xs))))
        xys = tuple(tuple(a + b for a, b in zip(x, y)) for x, y in zip(xs, ys))
        for M, img in zip((d.T, d.S), d._images):
            half = xl.matmul(M.T, ref_jprime(d), M)
            ix, iy = ms._image(img, xs), ms._image(img, ys)
            ixy = tuple(tuple(a + b for a, b in zip(vx, vy)) for vx, vy in zip(ix, iy))
            for vectors, image in zip((xs, ys, xys), (ix, iy, ixy)):
                assert image == ms._image(img, vectors)
                nums, den = ms._phase_arguments(img, image)
                for x, num in zip(vectors, nums):
                    assert F(num, den) % 1 == (-ref_bilinear(x, half, x) / 2) % 1
                    assert ms._e(num, den) == ms._e(-ms._value(half, x, x), 2 * half.den)


@pytest.mark.parametrize("make", ALL_DESCRIPTORS)
@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("nan_at", [None, 0, 5, 11])
def test_nan_value_gives_a_nan_residual(make, check, nan_at):
    # NaN values everywhere, or at one point of each evaluated batch: max(0.0, nan)
    # is 0.0, so a fold by max alone would report 0.0 or the other points' worst
    d = make()
    rng = random.Random(8)
    g = ms.random_gaussian(rng, d)
    sample = ms.random_samples(rng, d, 4)
    pairs = [(ms.random_lattice_vector(rng, d), ms.random_lattice_vector(rng, d)) for _ in range(3)]

    def f(pts):
        values = g(pts)
        for i in range(pts.size) if nan_at is None else [nan_at]:
            values[i] = complex(math.nan, 0.0)
        return values

    assert math.isnan(check(ms.Block(pairs, sample, d), f))
    assert check(ms.Block(pairs, sample, d), g) < 1e-9
