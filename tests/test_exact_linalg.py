import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nctorus import exact_linalg as xl


def F2(a, b):
    return F(a, b)


def square_int_matrices(max_n=4, lo=-5, hi=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def int_matrices(max_r=4, max_c=4, lo=-5, hi=5):
    return st.tuples(st.integers(1, max_r), st.integers(1, max_c)).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(lo, hi), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    )


def minors_gcd(M, k):
    """gcd of all k x k minors; the brute-force invariant-factor oracle."""
    m, n = M.shape
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = M[list(rows), list(cols)]
            g = math.gcd(g, int(xl.det(sub)))
            if g == 1:
                return 1
    return g


def assert_smith_factor(M, res):
    """U M V = D for some unimodular U, checked without U.

    With D diagonal and r = rank M, such a U exists exactly when the columns
    of M V past r vanish (normalize relies on this) and the first r are d_j
    times the columns of an integral W whose r x r minors have gcd 1, which
    then extends to the unimodular U^-1.
    """
    m, n = M.shape
    r = xl.rank(M)
    d = [res.D[j, j] for j in range(r)]
    assert res.D == xl.Mat([[d[i] if i == j and i < r else 0 for j in range(n)] for i in range(m)], 1, n)
    MV = M @ res.V
    assert xl.is_zero(MV[:, r:])
    if r:
        W = MV[:, :r] @ xl.diag([F(1, x) for x in d])
        assert xl.is_integral(W) and minors_gcd(W, r) == 1


def invariant_factors_oracle(M):
    m, n = M.shape
    facs = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = minors_gcd(M, k)
        if g == 0:
            break
        facs.append(g // prev)
        prev = g
    return facs


class TestRationalInverse:
    def test_identity(self):
        assert xl.rational_inverse(xl.eye(3)) == xl.eye(3)

    def test_skew_2x2(self):
        A = xl.mat([[0, F2(1, 3)], [F2(-1, 3), 0]])
        inv = xl.rational_inverse(A)
        assert inv == xl.mat([[0, -3], [3, 0]])
        assert A @ inv == xl.eye(2)

    def test_singular(self):
        with pytest.raises(xl.Singular, match="^matrix is singular$"):
            xl.rational_inverse(xl.mat([[1, 1], [1, 1]]))

    def test_int_inverse_rejects_non_unimodular(self):
        assert xl.int_inverse(xl.mat([[2, 1], [1, 1]])) == xl.mat([[1, -1], [-1, 2]])
        # Singular is an ExactLinalgError, so the CLI turns it into an error document
        with pytest.raises(xl.Singular, match="^matrix is not unimodular: its inverse is not integral$"):
            xl.int_inverse(xl.diag([2, 1]))

    def test_empty(self):
        assert xl.rational_inverse(xl.zeros(0, 0)).shape == (0, 0)
        assert xl.det(xl.zeros(0, 0)) == 1


class TestSmith:
    def test_identity(self):
        res = xl.smith_normal_form(xl.eye(2))
        assert res.D == xl.eye(2)

    def test_2x2(self):
        res = xl.smith_normal_form(xl.mat([[2, 4], [6, 8]]))
        assert [res.D[0, 0], res.D[1, 1]] == [2, 4]

    def test_zero(self):
        res = xl.smith_normal_form(xl.mat([[0]]))
        assert res.D[0, 0] == 0

    @settings(max_examples=120, deadline=None)
    @given(rows=int_matrices())
    def test_matches_minors_oracle(self, rows):
        M = xl.mat(rows)
        res = xl.smith_normal_form(M)
        d = [int(res.D[i, i]) for i in range(min(M.shape)) if res.D[i, i] != 0]
        assert d == invariant_factors_oracle(M)

    @settings(max_examples=120, deadline=None)
    @given(rows=int_matrices())
    def test_invariants(self, rows):
        M = xl.mat(rows)
        res = xl.smith_normal_form(M)
        assert_smith_factor(M, res)
        assert abs(xl.det(res.V)) == 1
        diag = [res.D[i, i] for i in range(min(M.shape))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
            assert a >= 0

    def test_deterministic(self):
        rng = random.Random(11)
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(4)]
        r1 = xl.smith_normal_form(xl.mat(rows))
        r2 = xl.smith_normal_form(xl.mat(rows))
        assert r1.D == r2.D and r1.V == r2.V


def kernel_columns(C):
    """The trailing columns of complete_basis(C), which span the integer kernel of C."""
    return xl.complete_basis(C)[:, xl.rank(C) :]


class TestKernelAndCompletion:
    def test_full_kernel(self):
        assert kernel_columns(xl.zeros(2, 2)) == xl.eye(2)

    def test_trivial_kernel(self):
        assert kernel_columns(xl.eye(2)).shape == (2, 0)

    def test_primitive_vector(self):
        C = xl.mat([[2, 4]])
        B = kernel_columns(C)
        assert B.shape == (2, 1)
        assert xl.is_zero(C @ B)
        assert math.gcd(int(B[0, 0]), int(B[1, 0])) == 1

    @settings(max_examples=80, deadline=None)
    @given(rows=int_matrices(max_r=3, max_c=4, lo=-4, hi=4))
    def test_kernel_primitivity(self, rows):
        C = xl.mat(rows)
        B = kernel_columns(C)
        assert xl.is_zero(C @ B)
        assert B.shape[1] == C.shape[1] - xl.rank(C)
        if B.shape[1]:
            res = xl.smith_normal_form(B)
            assert all(res.D[i, i] == 1 for i in range(B.shape[1]))

    @settings(max_examples=80, deadline=None)
    @given(rows=int_matrices(max_r=3, max_c=4, lo=-4, hi=4))
    def test_complete_basis(self, rows):
        C = xl.mat(rows)
        R0 = xl.complete_basis(C)
        assert abs(xl.det(R0)) == 1
        prod = C @ R0
        r = xl.rank(C)
        assert xl.is_zero(prod[:, r:])
        assert xl.rank(prod[:, :r]) == r

    def test_complete_basis_trivial(self):
        assert xl.complete_basis(xl.zeros(2, 2)) == xl.eye(2)
        assert xl.complete_basis(xl.eye(3)) == xl.eye(3)


class TestAlternatingForm:
    def test_zero(self):
        R, _, h = xl.alternating_normal_form_int(xl.zeros(2, 2))
        assert R == xl.eye(2) and h == []

    def test_already_canonical(self):
        R, _, h = xl.alternating_normal_form_int(xl.mat([[0, 6], [-6, 0]]))
        assert R == xl.eye(2) and h == [6]

    def test_interleaved_blocks(self):
        A = xl.mat(
            [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 4], [0, 0, -4, 0]]
        )
        R, _, h = xl.alternating_normal_form_int(A)
        assert h == [2, 4]
        assert R.T @ xl.canonical_alternating(h, 4) @ R == A

    def test_returns_the_inverse_it_built(self):
        A = xl.mat([[0, 2, 1, 0], [-2, 0, 0, 3], [-1, 0, 0, 4], [0, -3, -4, 0]])
        R, R_inv, h = xl.alternating_normal_form_int(A)
        assert R @ R_inv == xl.eye(4) and R.T @ xl.canonical_alternating(h, 4) @ R == A

    def test_canonical_form_of_a_fraction_diagonal(self):
        """J's torsion block for orders (2, 3), over one denominator."""
        assert xl.canonical_alternating([F(1, 2), F(1, 3)], 4) == xl.mat(
            [[0, 0, F(1, 2), 0], [0, 0, 0, F(1, 3)], [F(-1, 2), 0, 0, 0], [0, F(-1, 3), 0, 0]]
        )
        assert xl.canonical_alternating([F(1, 2), F(1, 3)], 4).den == 6

    def test_canonical_form_pads_the_radical(self):
        assert xl.canonical_alternating([-5], 4) == xl.mat([[0, -5, 0, 0], [5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])

    def test_rejects(self):
        with pytest.raises(xl.ExactLinalgError, match="^alternating reduction needs an integer skew-symmetric matrix$"):
            xl.alternating_normal_form_int(xl.mat([[0, 1], [1, 0]]))
        with pytest.raises(xl.ExactLinalgError, match="^alternating reduction is defined for even size$"):
            xl.alternating_normal_form_int(xl.zeros(3, 3))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 6]),
        data=st.data(),
    )
    def test_random_skew(self, n, data):
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = data.draw(st.integers(-4, 4))
                A[i][j] = v
                A[j][i] = -v
        A = xl.mat(A)
        R, _, h = xl.alternating_normal_form_int(A)
        assert abs(xl.det(R)) == 1
        assert all(v > 0 for v in h)
        assert 2 * len(h) == xl.rank(A)
        assert R.T @ xl.canonical_alternating(h, n) @ R == A


class TestSymplecticFactor:
    def test_standard(self):
        J0 = xl.standard_symplectic(2)
        assert xl.symplectic_factor_rational(J0) == xl.eye(4)

    def test_scaled(self):
        A = xl.mat([[0, F2(1, 3)], [F2(-1, 3), 0]])
        assert xl.symplectic_factor_rational(A) == xl.diag([F2(1, 3), F(1)])
        B = xl.mat([[0, 2], [-2, 0]])
        assert xl.symplectic_factor_rational(B) == xl.diag([2, 1])

    def test_rejects(self):
        with pytest.raises(xl.Singular, match="^alternating form is degenerate$"):
            xl.symplectic_factor_rational(xl.zeros(2, 2))
        with pytest.raises(xl.ExactLinalgError, match="^symplectic factorization needs a skew-symmetric matrix$"):
            xl.symplectic_factor_rational(xl.eye(2))

    def test_random(self):
        rng = random.Random(5)
        for _ in range(25):
            p = rng.randint(1, 3)
            while True:
                A = [[0] * (2 * p) for _ in range(2 * p)]
                for i in range(2 * p):
                    for j in range(i + 1, 2 * p):
                        v = F(rng.randint(-6, 6), rng.randint(1, 6))
                        A[i][j] = v
                        A[j][i] = -v
                A = xl.mat(A)
                if xl.det(A) != 0:
                    break
            T = xl.symplectic_factor_rational(A)
            assert T.T @ xl.standard_symplectic(p) @ T == A


class TestExtGcd:
    def test_unit(self):
        assert xl.ext_gcd(1, 5) == (1, 1, 0)

    def test_coprime(self):
        assert xl.ext_gcd(3, 5) == (1, 2, -1)

    def test_negative(self):
        g, c, d = xl.ext_gcd(-4, 6)
        assert g == 2 and c * (-4) + d * 6 == 2
        assert 0 <= c < 3

    def test_zero_cases(self):
        assert xl.ext_gcd(-7, 0) == (7, -1, 0)
        assert xl.ext_gcd(0, 4) == (4, 0, 1)
        with pytest.raises(xl.ExactLinalgError, match=r"^gcd\(0, 0\) has no certificate$"):
            xl.ext_gcd(0, 0)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(-40, 40), b=st.integers(-40, 40))
    def test_certificate(self, a, b):
        if a == 0 and b == 0:
            return
        g, c, d = xl.ext_gcd(a, b)
        assert g > 0 and c * a + d * b == g
        assert a % g == 0 and b % g == 0
        if b != 0:
            assert 0 <= c < abs(b) // g


class TestSolveUnique:
    def test_pivot_order_independent(self):
        rng = random.Random(3)
        for _ in range(20):
            m, r = rng.randint(2, 4), rng.randint(1, 2)
            while True:
                A = xl.mat([[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)])
                if xl.rank(A) == r:
                    break
            X = xl.mat([[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)] for _ in range(r)])
            B = A @ X
            assert xl.solve_unique(A, B) == X

    def test_inconsistent(self):
        A = xl.mat([[1], [1]])
        B = xl.mat([[0], [1]])
        with pytest.raises(xl.Singular, match="^system has no exact solution$"):
            xl.solve_unique(A, B)
        with pytest.raises(xl.Singular, match="^coefficient matrix is column-rank deficient$"):
            xl.solve_unique(xl.mat([[1, 2], [2, 4]]), B)


def entries(M):
    """The entries of M in row-major order, as int or Fraction."""
    return [x for row in M.tolist() for x in row]


def from_rows(rows, r, c):
    """The r x c matrix whose leading entries are the given rows, zero elsewhere."""
    padded = [list(row) + [0] * (c - len(row)) for row in rows] + [[0] * c] * (r - len(rows))
    return xl.mat(padded) if r else xl.zeros(0, c)


def masked(M, mask):
    """M with the entries where mask holds 0 set to 0."""
    rows = [[x if keep else 0 for x, keep in zip(row, keep_row)] for row, keep_row in zip(M.tolist(), mask)]
    return from_rows(rows, *M.shape)


def to_sympy(M):
    return sympy.Matrix(*M.shape, [sympy.Rational(F(x).numerator, F(x).denominator) for x in entries(M)])


def from_sympy(S):
    return from_rows([[F(int(x.p), int(x.q)) for x in S.row(i)] for i in range(S.rows)], *S.shape)


def rational_matrices(shapes, max_inner=4):
    """Products L @ R of small rational matrices with a drawn inner size k,
    with a drawn set of entries then zeroed.

    The rank of L @ R is at most k, so full-rank, rank-deficient and empty
    (0 x m, m x 0) matrices are all drawn; the zeroed entries make zero
    pivots, and so row swaps, common.
    """
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)

    def lists(rows, cols, elements):
        return st.lists(st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows)

    def product(rck):
        r, c, k = rck
        parts = st.tuples(lists(r, k, entries), lists(k, c, entries), lists(r, c, st.sampled_from([0, 1, 1])))
        return parts.map(lambda lrm: masked(from_rows(lrm[0], r, k) @ from_rows(lrm[1], k, c), lrm[2]))

    return st.tuples(shapes, st.integers(0, max_inner)).map(lambda s: (*s[0], s[1])).flatmap(product)


SQUARE = st.integers(0, 4).map(lambda n: (n, n))
ANY_SHAPE = st.tuples(st.integers(0, 4), st.integers(0, 4))
TALL = ANY_SHAPE.map(lambda rc: (max(rc), min(rc)))


class TestEliminationOracle:
    """The elimination kernels against sympy's exact rational linear algebra."""

    @settings(max_examples=100, deadline=None)
    @given(M=rational_matrices(ANY_SHAPE))
    def test_rank(self, M):
        assert xl.rank(M) == to_sympy(M).rank()

    @settings(max_examples=100, deadline=None)
    @given(M=rational_matrices(SQUARE))
    def test_det_and_inverse(self, M):
        S = to_sympy(M)
        d, d_true = xl.det(M), S.det()
        assert d == F(int(d_true.p), int(d_true.q))
        if d == 0:
            with pytest.raises(xl.Singular, match="^matrix is singular$"):
                xl.rational_inverse(M)
        else:
            assert xl.rational_inverse(M) == from_sympy(S.inv())

    @settings(max_examples=100, deadline=None)
    @given(A=rational_matrices(TALL), data=st.data())
    def test_solve_unique(self, A, data):
        m, r = A.shape
        s = data.draw(st.integers(0, 2))
        if data.draw(st.booleans()):
            B = A @ data.draw(rational_matrices(st.just((r, s))))
        else:
            B = data.draw(rational_matrices(st.just((m, s))))
        SA, SB = to_sympy(A), to_sympy(B)
        if SA.rank() < r or SA.row_join(SB).rank() > r:
            message = "coefficient matrix is column-rank deficient" if SA.rank() < r else "system has no exact solution"
            with pytest.raises(xl.Singular, match=f"^{message}$"):
                xl.solve_unique(A, B)
        else:
            X_true = (SA.T * SA).inv() * SA.T * SB
            assert xl.solve_unique(A, B) == from_sympy(X_true)


def factor_chains():
    """1-4 factors of compatible shapes, sizes 0-3, mixing int and Fraction entries."""
    entries = st.one_of(st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=6))

    def chain(dims):
        return st.tuples(
            *[
                st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r).map(
                    lambda rows, r=r, c=c: from_rows(rows, r, c)
                )
                for r, c in zip(dims, dims[1:])
            ]
        )

    dims = st.integers(1, 4).flatmap(lambda k: st.lists(st.integers(0, 3), min_size=k + 1, max_size=k + 1))
    return dims.flatmap(chain)


def fraction_product(A, B):
    """Row-by-column product of two matrices with Fraction entries, as a Mat."""
    cols = list(zip(*B.tolist())) if B.shape[0] else [()] * B.shape[1]
    rows = [[sum((F(a) * b for a, b in zip(row, col)), F(0)) for col in cols] for row in A.tolist()]
    return from_rows(rows, A.shape[0], B.shape[1])


class TestMatmulOracle:
    """The common-denominator product against a Fraction-entry product and sympy."""

    @settings(max_examples=150, deadline=None)
    @given(mats=factor_chains())
    def test_matches_object_matmul_and_sympy(self, mats):
        P = xl.matmul(*mats)
        expect = functools.reduce(fraction_product, mats)
        assert P.shape == expect.shape == (mats[0].shape[0], mats[-1].shape[1])
        assert P == expect
        S = functools.reduce(lambda A, B: A * B, [to_sympy(M) for M in mats])
        assert S.shape == P.shape
        if P.shape[0] and P.shape[1]:
            assert P == from_sympy(S)
        if all(xl.is_integral(M) for M in mats):
            assert all(type(x) is int for x in entries(P))
        else:
            assert all(type(x) in (int, F) for x in entries(P))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            xl.matmul(xl.zeros(2, 3), xl.zeros(2, 3))


class TestWideEntries:
    """Bareiss elimination on entries of 100+ bits, beyond machine words."""

    @pytest.mark.parametrize("seed", range(4))
    def test_against_sympy(self, seed):
        rng = random.Random(seed)
        n = 5

        def wide():
            return F(rng.randint(-(2**130), 2**130), rng.randint(2**100, 2**110))

        M = from_rows([[wide() for _ in range(n)] for _ in range(n)], n, n)
        assert max(abs(x.numerator).bit_length() for x in entries(M)) >= 100
        S = to_sympy(M)
        d_true = S.det()
        assert xl.det(M) == F(int(d_true.p), int(d_true.q))
        assert xl.rational_inverse(M) == from_sympy(S.inv())
        B = from_rows([[wide()] for _ in range(n)], n, 1)
        assert xl.solve_unique(M, B) == from_sympy(S.inv() * to_sympy(B))
        # rank 2 from an inner size of 2: elimination runs out of pivots after two columns
        L = from_rows([[wide() for _ in range(2)] for _ in range(n)], n, 2)
        R = from_rows([[wide() for _ in range(n)] for _ in range(2)], 2, n)
        low = L @ R
        assert xl.rank(low) == 2 and xl.det(low) == 0
        with pytest.raises(xl.Singular, match="^matrix is singular$"):
            xl.rational_inverse(low)


class TestHelpers:
    def test_strict_upper_splits_skew(self):
        A = xl.mat([[0, 3, -2], [-3, 0, 5], [2, -5, 0]])
        U = xl.strict_upper(A)
        assert U - U.T == A

    def test_lcm_denominators(self):
        A = xl.mat([[F2(1, 2), F2(1, 3)], [2, F2(5, 6)]])
        assert A.den == 6
        assert xl.mat([[F2(1, 4), F2(1, 6)]]).den == 12

    def test_block_diag(self):
        B = xl.block_diag(xl.eye(2), xl.zeros(0, 0), xl.mat([[5]]))
        assert B.shape == (3, 3) and B[2, 2] == 5
        halves, thirds = xl.mat([[F2(1, 2), 1], [0, F2(3, 2)]]), xl.mat([[F2(2, 3)]])
        M = xl.block_diag(halves, thirds)
        assert M.den == 6 and M == xl.block([[halves, xl.zeros(2, 1)], [xl.zeros(1, 2), thirds]])

    @settings(max_examples=150, deadline=None)
    @given(rows=int_matrices(lo=-2, hi=2), den=st.integers(1, 3), i=st.integers(0, 3), j=st.integers(0, 3))
    def test_is_skew_matches_negated_transpose(self, rows, den, i, j):
        A = xl.mat([[F(x, den) if (r + c) % 2 else x for c, x in enumerate(row)] for r, row in enumerate(rows)])
        cases = [A]
        n = A.shape[0]
        if A.shape[1] == n:
            S = A - A.T
            bump = from_rows([[F(1, 2) if (r, c) == (i % n, j % n) else 0 for c in range(n)] for r in range(n)], n, n)
            cases += [S, S + bump]
        for M in cases:
            assert xl.is_skew(M) is (M.shape[0] == M.shape[1] and M == -M.T)
