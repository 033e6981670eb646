"""The range of the trace on K0, checked exactly against the construction.

For rational theta the range of the trace on K0(A_theta) is the cyclic
subgroup of Q generated by G(theta), the rational gcd of the Pfaffians of
theta's even principal minors, the empty minor included (Elliott 1984).  A
strong Morita equivalence scales that range by the trace of the bimodule
(Rieffel 1981 for n = 2, Rieffel-Schwarz 1999 for SO(n,n|Z)), which gives
two exact identities:

  * G(theta)^2 = |det(C theta + D)| G(g theta)^2 wherever g theta is defined;
  * G(theta1) = |det T11| prod n_j G(theta') for a pipeline result.

Neither is a certificate: they are consequences of the theorem, independent
of how the construction reaches theta'.  The Pfaffians are written here and
not taken from the library.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from nctorus import embedding as eb
from nctorus import exact_linalg as xl
from nctorus import torus_group as tg


def pfaffian(M: list, idx: list) -> F:
    """Pf of the principal minor of M on the even-length index list idx, expanded along its first index."""
    if not idx:
        return F(1)
    i, rest = idx[0], idx[1:]
    return sum(((-1) ** t * M[i][j] * pfaffian(M, rest[:t] + rest[t + 1 :]) for t, j in enumerate(rest) if M[i][j]), F(0))


def trace_range(theta: xl.Mat) -> F:
    """G(theta): the rational gcd of the Pfaffians of theta's even principal minors, the empty one included."""
    M = theta.tolist()
    n = len(M)
    pfs = [pfaffian(M, list(I)) for r in range(0, n + 1, 2) for I in itertools.combinations(range(n), r)]
    den = math.lcm(*(x.denominator for x in pfs))
    return F(math.gcd(*(int(x * den) for x in pfs)), den)


def orbit_identity(theta: xl.Mat, target: xl.Mat, c_theta_plus_d: xl.Mat) -> bool:
    return trace_range(theta) ** 2 == abs(xl.det(c_theta_plus_d)) * trace_range(target) ** 2


def embedding_identity(theta1: xl.Mat, theta_out: xl.Mat, T11: xl.Mat, orders) -> bool:
    return trace_range(theta1) == abs(xl.det(T11)) * math.prod(orders) * trace_range(theta_out)


def torsion_rich_element(seed: str, n: int) -> tg.GroupElement:
    """rho(U) sigma mu(N) sigma mu(M) sigma for the flip sigma on the first n - n % 2 coordinates.

    For even n its C block is U^-t (N M + I), so Z = -(N M + I)^-1 N takes the
    denominators of det(N M + I) and most such elements have prod n_j > 1,
    where only a few random words do.
    """
    rng = random.Random(seed)
    sigma = tg.sigma_flip(list(range(1, n - n % 2 + 1)), n)
    U, N, M = tg.random_unimodular(rng, n), tg.random_skew_int(rng, n), tg.random_skew_int(rng, n)
    return tg.compose(tg.rho(U), sigma, tg.mu(N), sigma, tg.mu(M), sigma)


def draw_element(seed: int, n: int, rich: bool) -> tg.GroupElement:
    if rich:
        return torsion_rich_element(f"rich{seed}", n)
    return tg.random_element(f"range{seed}", 1 + seed % 8, n)


def first_defined(g: tg.GroupElement, seed: str):
    """The first of 20 drawn theta in the domain of g, or None."""
    thetas = (tg.random_theta(f"{seed}:theta:{r}", g.n) for r in range(20))
    return next((theta for theta in thetas if tg.is_defined(g, theta)), None)


def first_pipeline(g: tg.GroupElement, seed: str):
    """pipeline(g, theta) at the first_defined theta, or None."""
    theta = first_defined(g, seed)
    return None if theta is None else eb.pipeline(g, theta)


def T11(res) -> xl.Mat:
    c = 2 * res.special.p
    return res.descriptor.T[:c, :c]


def skew_bump(n: int) -> xl.Mat:
    """+1/97 at (0, 1) and -1/97 at (1, 0)."""
    return xl.Mat([[int((i, j) == (0, 1)) - int((i, j) == (1, 0)) for j in range(n)] for i in range(n)], 97, n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 6), rich=st.booleans())
def test_the_action_scales_the_trace_range(seed, n, rich):
    g = draw_element(seed, n, rich)
    theta = first_defined(g, f"range{seed}")
    assume(theta is not None)
    assert orbit_identity(theta.M, tg.act(g, theta).M, tg.c_theta_plus_d(g, theta))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 6), rich=st.booleans())
def test_the_embedding_scales_the_trace_range(seed, n, rich):
    res = first_pipeline(draw_element(seed, n, rich), f"range{seed}")
    assume(res is not None)
    assert embedding_identity(res.theta_in.M, res.theta_out.M, T11(res), res.torsion.nj)


@pytest.mark.parametrize("n", range(2, 7))
def test_torsion_rich_draws_reach_the_orders(n):
    """The orders enter the identity only where prod n_j > 1, which most torsion-rich draws have."""
    results = [first_pipeline(torsion_rich_element(f"rich:{n}:{s}", n), f"rich:{n}:{s}") for s in range(10)]
    results = [res for res in results if res is not None]
    assert sum(math.prod(res.torsion.nj) > 1 for res in results) >= 5
    for res in results:
        assert orbit_identity(res.source.M, res.target.M, tg.c_theta_plus_d(res.g, res.source))
        assert embedding_identity(res.theta_in.M, res.theta_out.M, T11(res), res.torsion.nj)


def torsion_case():
    """A torsion-rich pipeline result with n = 4, p = 2 and orders (5, 1)."""
    res = first_pipeline(torsion_rich_element("rich:4:0", 4), "rich:4:0")
    assert (res.special.p, res.torsion.nj) == (2, (5, 1))
    return res


def test_a_moved_target_breaks_the_orbit_identity():
    res = torsion_case()
    ctd = tg.c_theta_plus_d(res.g, res.source)
    assert orbit_identity(res.source.M, res.target.M, ctd)
    assert not orbit_identity(res.source.M, res.target.M + skew_bump(4), ctd)


@pytest.mark.parametrize("fault", ["order", "T11"])
def test_a_perturbed_construction_breaks_the_embedding_identity(fault):
    res = torsion_case()
    orders, T = list(res.torsion.nj), T11(res)
    if fault == "order":
        orders[0] += 1
    else:
        T = T + xl.Mat([[int((i, j) == (0, 0)) for j in range(4)] for i in range(4)], 97, 4)
    assert embedding_identity(res.theta_in.M, res.theta_out.M, T11(res), res.torsion.nj)
    assert not embedding_identity(res.theta_in.M, res.theta_out.M, T, orders)
