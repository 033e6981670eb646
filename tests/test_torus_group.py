import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nctorus import exact_linalg as xl
from nctorus import torus_group as tg


I2, O2 = xl.eye(2), xl.zeros(2, 2)
OFF, ON = xl.diag([0, 1]), xl.diag([1, 0])


def flip2():
    return tg.sigma_flip([1, 2], 2)


def so_form(n):
    """The split quadratic form blk(0, I; I, 0) the group preserves."""
    return xl.block([[xl.zeros(n, n), xl.eye(n)], [xl.eye(n), xl.zeros(n, n)]])


def assert_member(g):
    """Products and generators skip validation; the full check must agree."""
    assert tg.check_membership(g.A, g.B, g.C, g.D) == g


class TestMembership:
    def test_identity(self):
        g = tg.identity_element(3)
        assert g.A == xl.eye(3) and xl.is_zero(g.C)

    def test_full_flip(self):
        g = flip2()
        assert g.B == xl.eye(2) and g.C == xl.eye(2)
        assert xl.is_zero(g.A) and xl.is_zero(g.D)

    @pytest.mark.parametrize(
        "blocks, text",
        [
            pytest.param((I2, O2, I2, I2), "block relation violated: A^t C + C^t A = 0", id="AtC"),
            pytest.param((I2, I2, O2, I2), "block relation violated: B^t D + D^t B = 0", id="BtD"),
            pytest.param((2 * I2, O2, O2, I2), "block relation violated: A^t D + C^t B = I", id="AtD"),
            # an odd flip: preserves eta, det -1
            pytest.param((OFF, ON, ON, OFF), "assembled matrix must have determinant 1", id="det"),
        ],
    )
    def test_violation_named(self, blocks, text):
        with pytest.raises(tg.GroupError) as e:
            tg.check_membership(*blocks)
        assert str(e.value) == text

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6), length=st.integers(1, 10), odd=st.booleans())
    def test_determinant_is_the_parity_of_rank_c(self, seed, n, length, odd):
        """det M = (-1)^rank C on eta-preserving M, so check_membership decides det M = 1
        by one elimination on the n rows of C; a one-coordinate flip makes det -1."""
        g = tg.random_element(seed, length, n)
        if odd:  # x_1 <-> x_{n+1}
            g = tg.compose(g, tg.GroupElement(xl.eye(2 * n)[[n, *range(1, n), 0, *range(n + 1, 2 * n)], :]))
        assert xl.det(g.M) == (-1) ** xl.rank(g.C)
        with mock.patch.object(xl, "_row_reduce", wraps=xl._row_reduce) as eliminations:
            if odd:
                with pytest.raises(tg.GroupError, match="assembled matrix must have determinant 1"):
                    tg.check_membership(g.A, g.B, g.C, g.D)
            else:
                assert tg.check_membership(g.A, g.B, g.C, g.D) == g
        assert eliminations.call_count == 1 and len(eliminations.call_args.args[0]) == n

    def test_preserves_split_form(self):
        for seed in range(8):
            g = tg.random_element(seed, 5, 3)
            K = so_form(3)
            assert g.M.T @ K @ g.M == K


class TestInverseCompose:
    def test_identity_inverse(self):
        g = tg.identity_element(2)
        assert tg.invert_element(g) == g

    def test_rho_inverse(self):
        R = xl.mat([[1, 1], [0, 1]])
        assert tg.invert_element(tg.rho(R)) == tg.rho(xl.int_inverse(R))

    def test_flip_involution(self):
        assert tg.invert_element(flip2()) == flip2()

    def test_group_laws(self):
        for seed in range(6):
            g = tg.random_element(seed, 4, 3)
            e = tg.identity_element(3)
            assert tg.compose(g, e) == g
            assert tg.compose(g, tg.invert_element(g)) == e

    def test_inverse_matches_matrix_inverse(self):
        g = tg.random_element(42, 5, 3)
        inv = tg.invert_element(g).M
        assert inv == xl.rational_inverse(g.M)

    def test_rho_homomorphism(self):
        rng = random.Random(7)
        R1 = tg.random_unimodular(rng, 3)
        R2 = tg.random_unimodular(rng, 3)
        assert tg.compose(tg.rho(R1), tg.rho(R2)) == tg.rho(R1 @ R2)


class TestGenerators:
    def test_rho_identity(self):
        assert tg.rho(xl.eye(2)) == tg.identity_element(2)

    def test_mu_zero(self):
        assert tg.mu(xl.zeros(2, 2)) == tg.identity_element(2)

    def test_rho_shear_blocks(self):
        g = tg.rho(xl.mat([[1, 1], [0, 1]]))
        assert g.D == xl.mat([[1, 0], [-1, 1]])

    def test_rho_rejects(self):
        for R in (xl.mat([[2, 0], [0, 1]]), xl.mat([[1, 1], [1, 1]])):  # det 2, det 0
            with pytest.raises(tg.GroupError, match=r"^rho needs a matrix with determinant \+-1$"):
                tg.rho(R)

    def test_mu_rejects(self):
        with pytest.raises(tg.GroupError, match="^mu needs an integer skew-symmetric matrix$"):
            tg.mu(xl.mat([[0, 1], [1, 0]]))

    def test_flip_empty_is_identity(self):
        assert tg.sigma_flip([], 2) == tg.identity_element(2)

    def test_flip_odd_support(self):
        with pytest.raises(ValueError, match="^flip support must have even size$"):
            tg.sigma_flip([1], 2)

    @pytest.mark.parametrize("support", [[0, 1], [1, 3]])
    def test_flip_support_out_of_range(self, support):
        with pytest.raises(ValueError, match=r"^support indices must lie in 1\.\.n$"):
            tg.sigma_flip(support, 2)


class TestAction:
    def test_mu_shifts(self):
        n = 3
        N = tg.random_skew_int(random.Random(1), n)
        theta = tg.random_theta(2, n)
        out = tg.act(tg.mu(N), theta)
        assert out.M == theta.M + N

    def test_rho_conjugates(self):
        n = 3
        R = tg.random_unimodular(random.Random(3), n)
        theta = tg.random_theta(4, n)
        out = tg.act(tg.rho(R), theta)
        assert out.M == R @ theta.M @ R.T

    def test_flip_inverts(self):
        theta = tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]])
        out = tg.act(flip2(), theta)
        assert out.M == xl.mat([[0, -3], [3, 0]])

    def test_undefined(self):
        theta = tg.make_theta(xl.zeros(2, 2))
        with pytest.raises(tg.Undefined, match="^C theta \\+ D is singular$"):
            tg.act(flip2(), theta)

    def test_inverse_undoes_action(self):
        hits = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.choice([2, 3, 4, 5, 6])
            g = tg.random_element(f"g{seed}", rng.randint(1, 6), n)
            theta = tg.random_theta(f"t{seed}", n)
            if not tg.is_defined(g, theta):
                continue
            assert tg.act(tg.invert_element(g), tg.act(g, theta)) == theta
            hits += 1
        assert hits >= 20

    def test_partial_action_composes(self):
        hits = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.choice([2, 3, 4, 5, 6])
            g = tg.random_element(f"g{seed}", rng.randint(1, 5), n)
            h = tg.random_element(f"h{seed}", rng.randint(1, 5), n)
            theta = tg.random_theta(f"t{seed}", n)
            if not (tg.is_defined(h, theta) and tg.is_defined(g, tg.act(h, theta))):
                continue
            gh = tg.compose(g, h)
            assert tg.is_defined(gh, theta)
            assert tg.act(g, tg.act(h, theta)) == tg.act(gh, theta)
            hits += 1
        assert hits >= 20


class TestRandomElement:
    def test_word_length_zero(self):
        assert tg.random_element(9, 0, 3) == tg.identity_element(3)

    def test_deterministic(self):
        assert tg.random_element(77, 6, 4) == tg.random_element(77, 6, 4)

    def test_always_member(self):
        for seed in range(30):
            for n in range(2, 7):
                assert_member(tg.random_element(seed, 8, n))

    def test_operations_and_generators_are_members(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = 2 + seed % 5
            g = tg.random_element(f"g{seed}", rng.randint(1, 6), n)
            h = tg.random_element(f"h{seed}", rng.randint(1, 6), n)
            assert_member(tg.compose(g, h))
            assert_member(tg.invert_element(g))
            assert_member(tg.rho(tg.random_unimodular(rng, n)))
            assert_member(tg.mu(tg.random_skew_int(rng, n)))
            assert_member(tg.sigma_flip(tg.random_even_support(rng, n), n))
            assert_member(tg.identity_element(n))


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0], [0, 0]],
        [[0, F(1, 3)], [F(1, 3), 0]],
        [[0, 1, 2], [-1, 0, 3], [-2, -3, F(1, 2)]],
    ],
)
def test_make_theta_rejects_non_skew(rows):
    with pytest.raises(ValueError, match="theta must be skew-symmetric"):
        tg.make_theta(rows)
