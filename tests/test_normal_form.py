import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nctorus import exact_linalg as xl
from nctorus import normal_form as nf
from nctorus import torus_group as tg


def flip2():
    return tg.sigma_flip([1, 2], 2)


class TestDetect:
    def test_c_zero(self):
        g = tg.mu(tg.random_skew_int(random.Random(0), 3))
        sf = nf.detect_special_form(g)
        assert sf.p == 0 and sf.Z.shape == (0, 0) and sf.q == 3

    def test_flip(self):
        sf = nf.detect_special_form(flip2())
        assert sf.p == 1
        assert xl.is_zero(sf.Z)

    def test_shear_times_flip_detects_z(self):
        # g = flip * mu(M) has C = I, D = M, so Z = -M.
        M = xl.mat([[0, 1], [-1, 0]])
        g = tg.compose(flip2(), tg.mu(M))
        sf = nf.detect_special_form(g)
        assert sf.p == 1
        assert sf.Z == -M

    def test_not_special(self):
        # flip on {1,2} inside n=3, then mix coordinates so that C has an
        # interior zero column pattern broken by a unimodular shuffle.
        g = tg.compose(
            tg.mu(tg.random_skew_int(random.Random(2), 3)),
            tg.sigma_flip([1, 2], 3),
            tg.rho(xl.mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])),
        )
        with pytest.raises(tg.GroupError, match=r"^mixed block matrix \[C11 D12; C21 D22\] is singular$"):
            nf.detect_special_form(g)

    @pytest.mark.parametrize(
        "C, D, message",
        [
            ([[1, 0], [0, 0]], [[0, 0], [1, 1]], "leading columns of D are not -C Z for any Z"),
            ([[1, 0], [0, 1]], [[1, 0], [0, 1]], "solved Z is not skew-symmetric"),
        ],
    )
    def test_not_special_names_the_shape_failure(self, C, D, message):
        """The two later shape failures, on elements built directly: neither is a group member."""
        g = tg.GroupElement(xl.block([[xl.eye(2), xl.eye(2)], [xl.mat(C), xl.mat(D)]]))
        with pytest.raises(tg.GroupError, match=f"^{message}$"):
            nf.detect_special_form(g)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), length=st.integers(1, 8), n=st.integers(2, 6))
    # the fixed seeds 0..9 at length 6, n = 4 stay as explicit examples
    @example(seed=0, length=6, n=4)
    @example(seed=1, length=6, n=4)
    @example(seed=2, length=6, n=4)
    @example(seed=3, length=6, n=4)
    @example(seed=4, length=6, n=4)
    @example(seed=5, length=6, n=4)
    @example(seed=6, length=6, n=4)
    @example(seed=7, length=6, n=4)
    @example(seed=8, length=6, n=4)
    @example(seed=9, length=6, n=4)
    def test_z_unique_across_pivot_orders(self, seed, length, n):
        """After normalize, the one solve of detect_special_form stands for
        three facts: lead = (C R0)[:, :2p] has full column rank (so the Z
        solving -lead Z = D1 is unique), [lead | D12] is invertible and
        -lead Z = D1.  rho(R0) and the detection run one elimination each."""
        g = tg.random_element(seed, length, n)
        R0, _, g1, sf = nf.normalize(g)
        width = 2 * sf.p
        lead, D1, D12 = g1.C[:, :width], g1.D[:, :width], g1.D[:, width:]
        assert xl.rank(lead) == width
        assert xl.det(xl.block([[lead, D12]])) != 0
        assert -lead @ sf.Z == D1
        assert xl.is_skew(sf.Z)
        assert isinstance(sf.Z, xl.Mat)
        with mock.patch.object(xl, "_row_reduce", wraps=xl._row_reduce) as eliminations:
            tg.rho(R0)
            assert eliminations.call_count == 1
            assert nf.detect_special_form(g1).Z == sf.Z
            assert eliminations.call_count == 2


class TestNormalizeRight:
    def test_c_zero_gives_identity(self):
        g = tg.mu(tg.random_skew_int(random.Random(4), 3))
        assert nf.normalize_right(g) == xl.eye(3)

    def test_already_special_revalidates(self):
        R0 = nf.normalize_right(flip2())
        nf.detect_special_form(tg.compose(flip2(), tg.rho(R0)))

    def test_random_round_trip(self):
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.choice([2, 3, 4, 5])
            g = tg.random_element(f"nr{seed}", rng.randint(1, 7), n)
            R0 = nf.normalize_right(g)
            g1 = tg.compose(g, tg.rho(R0))
            sf = nf.detect_special_form(g1)
            # nonzero columns of C R0 sit exactly in the leading block
            width = 2 * sf.p
            assert xl.is_zero(g1.C[:, width:])
            assert xl.rank(g1.C[:, :width]) == width


class TestDomainCheck:
    def test_p_zero_always_defined(self):
        g = tg.mu(tg.random_skew_int(random.Random(6), 2))
        sf = nf.detect_special_form(g)
        F11 = nf.domain_check(sf, tg.random_theta(1, 2))
        assert F11 is not None and F11.shape == (0, 0)

    def test_flip_third(self):
        sf = nf.detect_special_form(flip2())
        F11 = nf.domain_check(sf, tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]]))
        assert F11 is not None
        assert F11 == xl.mat([[0, -3], [3, 0]])

    def test_theta11_equals_z(self):
        M = xl.mat([[0, 2], [-2, 0]])
        g = tg.compose(flip2(), tg.mu(M))
        sf = nf.detect_special_form(g)
        assert nf.domain_check(sf, tg.make_theta(-M)) is None

    def test_agrees_with_direct_singularity(self):
        hits_defined = hits_undefined = 0
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.choice([2, 3, 4])
            g = tg.random_element(f"dc{seed}", rng.randint(1, 6), n)
            theta = tg.random_theta(f"dt{seed}", n, max_den=4)
            R0 = nf.normalize_right(g)
            g1 = tg.compose(g, tg.rho(R0))
            theta1 = tg.act(tg.rho(xl.int_inverse(R0)), theta)
            sf = nf.detect_special_form(g1)
            F11 = nf.domain_check(sf, theta1)
            defined = F11 is not None
            assert defined == tg.is_defined(g1, theta1)
            # definedness is invariant under the normalization
            assert defined == tg.is_defined(g, theta)
            if defined:
                # the lemma behind the criterion: (C theta + D)^-1 C = blk(F11, 0)
                inv = xl.rational_inverse(tg.c_theta_plus_d(g1, theta1))
                assert inv @ g1.C == xl.block_diag(F11, xl.zeros(sf.q, sf.q))
                assert xl.is_skew(F11)
            hits_defined += defined
            hits_undefined += not defined
        assert hits_defined >= 150
