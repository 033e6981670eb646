"""Acceptance suite: six standalone criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every assertion is exact except the module-simulation residuals, whose
tolerance is 1e-9 as stated; runtime budgets are asserted per criterion.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from nctorus import cli
from nctorus import embedding as eb
from nctorus import exact_linalg as xl
from nctorus import module_sim as ms
from nctorus import normal_form as nf
from nctorus import torus_group as tg


@contextmanager
def criterion(num, description, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_seconds, f"criterion {num} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"\ncriterion {num} PASS: {description} [{elapsed:.2f}s < {budget_seconds}s]")


# --------------------------------------------------------------------------
# shared campaign (criterion 2 checks it, criterion 5 reuses its output)

CAMPAIGN_NS = [2, 3, 4, 5, 6]
CAMPAIGN_SEEDS = 50
_CAMPAIGN_CACHE = None


def campaign_runs():
    global _CAMPAIGN_CACHE
    if _CAMPAIGN_CACHE is None:
        t0 = time.perf_counter()
        runs = []
        for n in CAMPAIGN_NS:
            for s in range(CAMPAIGN_SEEDS):
                info, res = cli.campaign_trial(n, f"acceptance:{n}:{s}", word_length=8)
                runs.append((n, s, info, res))
        _CAMPAIGN_CACHE = (runs, time.perf_counter() - t0)
    return _CAMPAIGN_CACHE


def test_criterion_1_flip_worked_example():
    with criterion(1, "n=2 flip worked example, all values exact", 0.1):
        g = tg.sigma_flip([1, 2], 2)
        theta = tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]])
        res = eb.pipeline(g, theta)
        d = res
        assert d.theta_out.M == xl.mat([[0, -3], [3, 0]])
        assert d.descriptor.T == xl.diag([F(1, 3), F(1)])
        assert d.descriptor.S == xl.mat([[0, -1], [3, 0]])
        assert d.phi_star == xl.mat([[0, 3], [-3, 0]])
        gp = d.g_prime
        assert xl.is_zero(gp.A) and xl.is_zero(gp.D)
        assert gp.B == -xl.eye(2) and gp.C == -xl.eye(2)
        assert xl.is_zero(d.shear) and d.basis_change == -xl.eye(2)
        assert d.all_passed()
        assert list(d.certificates) == eb.CERTIFICATE_NAMES


def test_criterion_2_randomized_campaign():
    with criterion(
        2,
        f"campaign n in {CAMPAIGN_NS}, {CAMPAIGN_SEEDS} seeds each: all certificates exact",
        60,
    ):
        runs, elapsed = campaign_runs()
        assert elapsed < 60, f"campaign took {elapsed:.2f}s, budget 60s"
        defined = [r for r in runs if r[2]["defined"]]
        assert len(runs) == len(CAMPAIGN_NS) * CAMPAIGN_SEEDS
        assert len(defined) >= 0.9 * len(runs)
        for n, s, info, res in defined:
            assert info["passed"], f"trial n={n} seed={s} failed"
            assert list(res.certificates) == eb.CERTIFICATE_NAMES


def test_criterion_3_identity_suite():
    with criterion(3, "500 random elements: skew identities, domain criterion, even rank", 30):
        defined_count = 0
        for i in range(500):
            rng = random.Random(f"ident:{i}")
            n = [2, 3, 4, 5][i % 4]
            g = tg.random_element(f"ident:{i}:g", rng.randint(0, 6), n)
            theta = tg.random_theta(f"ident:{i}:t", n, max_den=8)
            assert xl.is_skew(g.D @ g.C.T)
            assert xl.rank(g.C) % 2 == 0
            M = tg.c_theta_plus_d(g, theta)
            direct_defined = xl.det(M) != 0
            if direct_defined:
                assert xl.is_skew(xl.rational_inverse(M) @ g.C)
                defined_count += 1
            R0 = nf.normalize_right(g)
            g1 = tg.compose(g, tg.rho(R0))
            theta1 = tg.act(tg.rho(xl.int_inverse(R0)), theta)
            sf = nf.detect_special_form(g1)
            F11 = nf.domain_check(sf, theta1)
            assert (F11 is not None) == direct_defined
            if direct_defined:
                inv = xl.rational_inverse(tg.c_theta_plus_d(g1, theta1))
                assert inv @ g1.C == xl.block_diag(F11, xl.zeros(sf.q, sf.q))
        assert defined_count >= 400


def test_criterion_4_normal_form_oracles():
    with criterion(4, "Smith/alternating forms vs re-multiplication and minor gcds", 60):
        def minors_gcd(M, k):
            g = 0
            for rows in itertools.combinations(range(M.shape[0]), k):
                for cols in itertools.combinations(range(M.shape[1]), k):
                    g = math.gcd(g, abs(int(xl.det(M[list(rows), list(cols)]))))
                    if g == 1:
                        return 1
            return g

        def assert_smith_factor(M, res, d):
            """U M V = D for a unimodular U, checked without U: D = diag(d, 0), and
            M V is W D for an integral W whose r x r minors have gcd 1 (r = len(d)),
            which then extends to the unimodular U^-1."""
            (m, n), r = M.shape, len(d)
            assert res.D == xl.Mat([[d[i] if i == j and i < r else 0 for j in range(n)] for i in range(m)], 1, n)
            MV = M @ res.V
            assert xl.is_zero(MV[:, r:])
            if r:
                W = MV[:, :r] @ xl.diag([F(1, x) for x in d])
                assert xl.is_integral(W) and minors_gcd(W, r) == 1

        def oracle(M):
            facs, prev = [], 1
            for k in range(1, min(M.shape) + 1):
                g = minors_gcd(M, k)
                if g == 0:
                    break
                facs.append(g // prev)
                prev = g
            return facs

        rng = random.Random("snf-acceptance")
        for _ in range(1000):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            M = xl.mat([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)])
            res = xl.smith_normal_form(M)
            assert abs(xl.det(res.V)) == 1
            got = [int(res.D[i, i]) for i in range(min(r, c)) if res.D[i, i] != 0]
            assert_smith_factor(M, res, got)
            assert got == oracle(M)
        for _ in range(40):
            r, c = rng.randint(4, 6), rng.randint(4, 6)
            M = xl.mat([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
            res = xl.smith_normal_form(M)
            assert abs(xl.det(res.V)) == 1
            got = [int(res.D[i, i]) for i in range(min(r, c)) if res.D[i, i] != 0]
            assert_smith_factor(M, res, got)
            assert got == oracle(M)
        for _ in range(40):
            size = rng.choice([2, 4, 6])
            A = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    v = rng.randint(-4, 4)
                    A[i][j] = v
                    A[j][i] = -v
            A = xl.mat(A)
            R, _, h = xl.alternating_normal_form_int(A)
            assert abs(xl.det(R)) == 1
            assert 2 * len(h) == xl.rank(A)
            canon = xl.canonical_alternating(h, size)
            assert R.T @ canon @ R == A
            # congruence preserves the integer equivalence class
            assert oracle(A) == oracle(canon)


def test_criterion_5_module_simulation():
    runs, _ = campaign_runs()
    with criterion(5, "module relations < 1e-9 on campaign descriptors; flip value", 30):
        g = tg.sigma_flip([1, 2], 2)
        theta = tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]])
        d0 = eb.pipeline(g, theta).descriptor
        f0 = ms.gaussian(d0)
        lhs = ms.right_action(ms.right_action(f0, [1, 0], d0), [0, 1], d0)
        sig = ms._half_phase(d0.theta.M, [1, 0], [0, 1])
        rhs = ms.right_action(f0, [1, 1], d0)
        origin = ms.Points([[0.0]], [], [], 1)
        want = math.exp(-math.pi / 9)
        assert abs(lhs(origin)[0] - want) < 1e-9
        assert abs(sig * rhs(origin)[0] - want) < 1e-9

        selected = []
        for n, s, info, res in runs:
            if res is None:
                continue
            dd = res.descriptor
            if dd.p <= 2 and dd.q <= 2 and dd.k <= 1:
                selected.append(dd)
            if len(selected) == 10:
                break
        assert len(selected) >= 5
        for idx, dd in enumerate(selected):
            rng = random.Random(f"sim:{idx}")
            f = ms.random_gaussian(rng, dd)
            for _ in range(100):
                x = ms.random_lattice_vector(rng, dd)
                y = ms.random_lattice_vector(rng, dd)
                m = ms.random_samples(rng, dd, 1)
                assert ms.check_module_relation(ms.Block([(x, y)], m, dd), f) < 1e-9
                assert ms.check_bimodule_commutation(ms.Block([(x, y)], m, dd), f) < 1e-9


def test_criterion_6_degenerate_closure():
    with criterion(6, "p=0, k=0, q=0 each pass the full certificate set", 5):
        # p = 0: C vanishes entirely
        N = tg.random_skew_int(random.Random("deg"), 3)
        res_p0 = eb.pipeline(tg.mu(N), tg.random_theta("deg-theta", 3))
        assert res_p0.special.p == 0

        # k = 0: special form with Z = 0
        res_k0 = eb.pipeline(
            tg.sigma_flip([1, 2], 2), tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]])
        )
        assert res_k0.torsion.k == 0

        # q = 0: full flip in n = 4
        theta4 = tg.make_theta(
            [
                [0, F(1, 2), 0, 0],
                [F(-1, 2), 0, 0, 0],
                [0, 0, 0, F(2, 3)],
                [0, 0, F(-2, 3), 0],
            ]
        )
        res_q0 = eb.pipeline(tg.sigma_flip([1, 2, 3, 4], 4), theta4)
        assert res_q0.special.q == 0

        for res in (res_p0, res_k0, res_q0):
            assert res.all_passed()
            assert list(res.certificates) == eb.CERTIFICATE_NAMES
