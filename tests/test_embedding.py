import dataclasses
import json
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from nctorus import cli
from nctorus import documents as docs
from nctorus import embedding as eb
from nctorus import exact_linalg as xl
from nctorus import module_sim as ms
from nctorus import torus_group as tg


def flip2():
    return tg.sigma_flip([1, 2], 2)


def theta_third():
    return tg.make_theta([[0, F(1, 3)], [F(-1, 3), 0]])


def printed_chain_end(g, theta, res) -> xl.Mat:
    """Apply the four printed chain steps exactly to the printed source.

    The running value must reach the Heisenberg step's theta, and the end
    must be the printed target and g theta.
    """
    chain = docs.pipeline_doc(res)["chain"]
    assert [step["kind"] for step in chain["steps"]] == ["iso_rho", "heisenberg", "iso_rho", "iso_mu"]
    cur = docs.parse_rat_matrix(chain["source"])
    for step in chain["steps"]:
        if step["kind"] == "iso_rho":
            R = docs.parse_int_matrix(step["R"])
            cur = R @ cur @ R.T
        elif step["kind"] == "heisenberg":
            assert cur == docs.parse_rat_matrix(step["theta"])
            cur = docs.parse_rat_matrix(step["theta_prime"])
        else:
            cur = cur + docs.parse_int_matrix(step["N"])
    assert cur == docs.parse_rat_matrix(chain["target"]) == tg.act(g, theta).M
    return cur


class TestTorsionData:
    def test_zero_block(self):
        td = eb.build_torsion_data(xl.zeros(2, 2))
        assert td.m == 1 and td.k == 0
        T = xl.eye(2)
        assert eb._tbar(T, td, 0) == T

    def test_half(self):
        Z = xl.mat([[0, F(1, 2)], [F(-1, 2), 0]])
        td = eb.build_torsion_data(Z)
        assert td.m == 2 and list(td.h) == [1]
        assert (td.mj, td.nj) == ((1,), (2,))
        assert (td.cj, td.dj) == ((1,), (0,))

    def test_integer_block_collapses_torsion(self):
        Z = xl.mat([[0, 3], [-3, 0]])
        td = eb.build_torsion_data(Z)
        assert td.m == 1 and list(td.h) == [3]
        assert (td.mj, td.nj) == ((3,), (1,))
        assert td.cj[0] * 3 + td.dj[0] * 1 == 1

    def test_invariants_random(self):
        rng = random.Random(12)
        for _ in range(20):
            p = rng.randint(1, 3)
            Z = [[0] * (2 * p) for _ in range(2 * p)]
            for i in range(2 * p):
                for j in range(i + 1, 2 * p):
                    v = F(rng.randint(-4, 4), rng.randint(1, 5))
                    Z[i][j] = v
                    Z[j][i] = -v
            Z = xl.mat(Z)
            td = eb.build_torsion_data(Z)
            assert xl.is_integral(td.m * Z)
            assert td.R.T @ xl.canonical_alternating(list(td.h), 2 * p) @ td.R == td.m * Z
            for j in range(td.k):
                assert F(td.mj[j], td.nj[j]) == F(td.h[j], td.m)
                assert td.cj[j] * td.mj[j] + td.dj[j] * td.nj[j] == 1


class TestTorsionBlocks:
    """The two torsion block shapes, pinned on Z with one hyperbolic pair of ratio 1/2."""

    def torsion(self, p):
        Z = [[0] * (2 * p) for _ in range(2 * p)]
        Z[0][1], Z[1][0] = F(1, 2), F(-1, 2)
        td = eb.build_torsion_data(xl.mat(Z))
        assert (td.mj, td.nj, td.cj, td.dj) == ((1,), (2,), (1,), (0,))
        return td

    def test_torsion_diag_without_radical(self):
        assert eb._torsion_diag(self.torsion(1), (2,)) == xl.diag([2, 2])

    def test_torsion_diag_with_radical(self):
        td = self.torsion(2)
        assert eb._torsion_diag(td, (F(1, 2),)) == xl.diag([F(1, 2), F(1, 2), -1, -1])

    def test_corner_sign_of_gprime(self):
        """A' = [[0, -C, 0], [C, 0, 0], [0, 0, 0]] R^-t for C = diag(c_j), and D' the same form of diag(m_j) times R."""
        td = self.torsion(2)
        assert td.R == xl.eye(4)
        Ap, Bp, Cp, Dp = eb._gprime_closed_form(td, 0)
        corner = xl.mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        assert Ap == corner and Dp == corner
        assert Bp == xl.diag([0, 0, -1, -1]) and Cp == xl.diag([2, 2, -1, -1])

    def test_torsion_block_of_J(self):
        assert ms.build_forms(1, 0, (2, 3)) == xl.mat(
            [
                [0, 1, 0, 0, 0, 0],
                [-1, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, F(1, 2), 0],
                [0, 0, 0, 0, 0, F(1, 3)],
                [0, 0, F(-1, 2), 0, 0, 0],
                [0, 0, 0, F(-1, 3), 0, 0],
            ]
        )


class TestFlipWorkedExample:
    """The n=2 full-flip at theta_12 = 1/3, every matrix pinned."""

    def run(self):
        return eb.pipeline(flip2(), theta_third())

    def test_embedding_matrices(self):
        res = self.run()
        d = res
        assert d.descriptor.T == xl.diag([F(1, 3), F(1)])
        assert d.descriptor.S == xl.mat([[0, -1], [3, 0]])

    def test_theta_prime(self):
        res = self.run()
        assert res.theta_out.M == xl.mat([[0, -3], [3, 0]])

    def test_tangent_and_curvature(self):
        res = self.run()
        assert res.phi_star == xl.mat([[0, 3], [-3, 0]])
        assert res.curvature == xl.mat([[0, -3], [3, 0]])

    def test_gprime_and_factorization(self):
        res = self.run()
        d = res
        gp = d.g_prime
        assert xl.is_zero(gp.A) and xl.is_zero(gp.D)
        assert gp.B == -xl.eye(2) and gp.C == -xl.eye(2)
        assert xl.is_zero(d.shear)
        assert d.basis_change == -xl.eye(2)
        assert d.r0 == xl.eye(2)

    def test_all_certificates(self):
        res = self.run()
        assert res.all_passed()
        assert list(res.certificates) == eb.CERTIFICATE_NAMES

    def test_chain(self):
        printed_chain_end(flip2(), theta_third(), self.run())


class TestMixedExample:
    """n=3 flip on {1,2}: p=1, q=1, k=0, checked against hand computation."""

    def setup_method(self):
        self.g = tg.sigma_flip([1, 2], 3)
        self.theta = tg.make_theta(
            [[0, F(1, 2), F(1, 3)], [F(-1, 2), 0, F(1, 5)], [F(-1, 3), F(-1, 5), 0]]
        )

    def test_pipeline_values(self):
        res = eb.pipeline(self.g, self.theta)
        d = res
        assert d.special.p == 1 and d.special.q == 1 and d.torsion.k == 0
        assert d.curvature[:2, :2] == xl.mat([[0, F(-2)], [F(2), 0]])
        expected_tp = xl.mat(
            [[0, -2, F(2, 5)], [2, 0, F(-2, 3)], [F(-2, 5), F(2, 3), 0]]
        )
        assert d.theta_out.M == expected_tp
        gp = d.g_prime
        assert gp.A == xl.diag([0, 0, -1])
        assert gp.D == xl.diag([0, 0, -1])
        assert gp.B == xl.diag([-1, -1, 0])
        assert gp.C == xl.diag([-1, -1, 0])
        assert d.basis_change == -xl.eye(3)
        assert xl.is_zero(d.shear)
        assert d.all_passed()


class TestTorsionExample:
    """g = flip * mu(M) with M = [[0,1],[-1,0]]: k=1 with trivial torsion."""

    def setup_method(self):
        M = xl.mat([[0, 1], [-1, 0]])
        self.g = tg.compose(flip2(), tg.mu(M))
        self.theta = theta_third()

    def test_pipeline_values(self):
        res = eb.pipeline(self.g, self.theta)
        d = res
        td = d.torsion
        assert td.k == 1 and td.m == 1 and list(td.h) == [1]
        assert (td.mj, td.nj, td.cj, td.dj) == ((1,), (1,), (0,), (1,))
        expected_T = xl.mat([[F(4, 3), 0], [0, 1], [0, 1], [1, 0]])
        assert d.descriptor.T == expected_T
        expected_S = xl.mat([[1, 0], [0, F(-3, 4)], [0, -1], [0, 0]])
        assert d.descriptor.S == expected_S
        assert d.theta_out.M == xl.mat([[0, F(3, 4)], [F(-3, 4), 0]])
        gp = d.g_prime
        swap = xl.mat([[0, 1], [1, 0]])
        assert xl.is_zero(gp.A)
        assert gp.B == swap and gp.C == swap
        assert gp.D == xl.diag([-1, 1])
        assert d.basis_change == swap
        assert xl.is_zero(d.shear)
        assert d.all_passed()

    def test_descriptor_reflects_torsion(self):
        res = eb.pipeline(self.g, self.theta)
        assert res.descriptor.k == 1 and res.descriptor.orders == (1,)
        assert res.descriptor.p == 1 and res.descriptor.q == 0


class TestDegenerateClosure:
    def test_p_zero(self):
        N = tg.random_skew_int(random.Random(3), 3)
        g = tg.mu(N)
        theta = tg.random_theta(5, 3)
        res = eb.pipeline(g, theta)
        d = res
        assert d.special.p == 0
        assert d.theta_out == d.theta_in
        assert d.g_prime.M == -xl.eye(6)
        assert d.shear == N
        printed_chain_end(g, theta, res)
        assert d.all_passed()

    def test_q_zero(self):
        g = tg.sigma_flip([1, 2, 3, 4], 4)
        theta = tg.make_theta(
            [
                [0, F(1, 2), 0, 0],
                [F(-1, 2), 0, 0, 0],
                [0, 0, 0, F(2, 3)],
                [0, 0, F(-2, 3), 0],
            ]
        )
        res = eb.pipeline(g, theta)
        assert res.special.q == 0
        assert res.all_passed()

    def test_k_zero(self):
        res = eb.pipeline(flip2(), theta_third())
        assert res.torsion.k == 0
        assert res.all_passed()

    def test_mu_shift_endpoint(self):
        N = tg.random_skew_int(random.Random(9), 2)
        theta = tg.random_theta(10, 2)
        res = eb.pipeline(tg.mu(N), theta)
        assert printed_chain_end(tg.mu(N), theta, res) == theta.M + N


class TestRandomCampaignSmall:
    def test_random_words(self):
        passed = 0
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.choice([2, 3, 4])
            g = tg.random_element(f"emb{seed}", rng.randint(1, 6), n)
            theta = None
            for t in range(20):
                cand = tg.random_theta(f"embt{seed}:{t}", n)
                if tg.is_defined(g, cand):
                    theta = cand
                    break
            if theta is None:
                continue
            res = eb.pipeline(g, theta)
            assert res.all_passed()
            assert list(res.certificates) == eb.CERTIFICATE_NAMES
            # reassembly against the original element, not just g1
            d = res
            rebuilt = tg.compose(
                tg.mu(d.shear), tg.rho(d.basis_change), d.g_prime, tg.rho(xl.int_inverse(d.r0))
            )
            assert rebuilt == g
            passed += 1
        assert passed >= 25

    def test_undefined_raises(self):
        theta = tg.make_theta(xl.zeros(2, 2))
        with pytest.raises(tg.Undefined):
            eb.pipeline(flip2(), theta)


# ---------------------------------------------------------------------------
# verified closed forms


def acceptance_case(n, t):
    """g and the first theta in its domain of acceptance trial n:t."""
    rng = random.Random(f"acceptance:{n}:{t}")
    g = tg.random_element(f"acceptance:{n}:{t}:g", rng.randint(1, 8), n)
    for r in range(20):
        theta = tg.random_theta(f"acceptance:{n}:{t}:theta:{r}", n)
        if tg.is_defined(g, theta):
            return g, theta
    raise AssertionError("no theta in the domain")


def mixed_torsion_case():
    """Acceptance trial 5:15: g and theta with p = 2, q = 1, k = 2 and orders (6, 1)."""
    return acceptance_case(5, 15)


def radical_torsion_case():
    """Acceptance trial 5:132: g and theta with p = 2, q = 1, k = 1 and orders (5,), so 2k < 2p."""
    return acceptance_case(5, 132)


def defined_pipelines(g, seed, count):
    """pipeline(g, theta) for the first `count` drawn theta in the domain of g."""
    results = []
    for r in range(40):
        try:
            results.append(eb.pipeline(g, tg.random_theta(f"{seed}:theta:{r}", g.n)))
        except tg.Undefined:
            continue
        if len(results) == count:
            break
    return results


def one_entry(shape, i, j) -> xl.Mat:
    """The matrix of the given shape with 1/97 at (i, j) and zeros elsewhere."""
    r, c = shape
    return xl.Mat([[int((a, b) == (i, j)) for b in range(c)] for a in range(r)], 97, c)


def failed_certificate(g, theta) -> str:
    with pytest.raises(eb.EmbeddingError) as info:
        eb.pipeline(g, theta)
    return info.value.name


def cli_failure(tmp_path, command: str, case=mixed_torsion_case) -> str:
    """The certificate named by `command` on the case, exiting 1; decompose runs without theta."""
    g, theta = case()
    job = {"version": docs.FORMAT_VERSION, "g": docs.group_doc(g)}
    if command == "pipeline":
        job["theta"] = docs.theta_doc(theta)
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(docs.dumps(job))
    assert cli.main([command, "--input", str(inp), "--output", str(out)]) == 1
    error = json.loads(out.read_text())["error"]
    assert error["kind"] == "certificate"
    return error["name"]


def flipped(A, B, C, D, E):
    """The blocks of g' sigma for the flip sigma on coordinates 1 and 2."""
    gs = tg.compose(tg.check_membership(A, B, C, D), tg.sigma_flip([1, 2], A.shape[0]))
    return gs.A, gs.B, gs.C, gs.D


def odd_flipped(A, B, C, D, E):
    """The blocks of g' times the one-coordinate flip x_1 <-> x_{n+1}: integral, eta-preserving, det -1."""
    n = A.shape[0]
    M = xl.block([[A, B], [C, D]])[:, [n, *range(1, n), 0, *range(n + 1, 2 * n)]]
    return M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]


class TestVerifiedClosedForms:
    """S and g' come from closed forms checked against their defining systems,
    so a wrong closed form must fail a certificate."""

    def test_case_shape(self):
        for case, shape in ((mixed_torsion_case, (2, 1, 2, (6, 1))), (radical_torsion_case, (2, 1, 1, (5,)))):
            d = eb.pipeline(*case())
            assert (d.special.p, d.special.q, d.torsion.k, d.torsion.nj) == shape
            assert d.all_passed()

    @pytest.mark.parametrize("row", [0, 5, -1])  # rows of the u, a^ and w^ blocks
    def test_perturbed_dual_closed_form(self, monkeypatch, row):
        closed = eb._dual_closed_form

        def perturbed(*args):
            S = closed(*args)
            rows = [list(r) for r in S.rows]
            rows[row][0] += S.den
            return xl.Mat(rows, S.den, S.shape[1])

        monkeypatch.setattr(eb, "_dual_closed_form", perturbed)
        assert failed_certificate(*mixed_torsion_case()) == "S_closed_form"

    @pytest.mark.parametrize(
        "perturb, name",
        [
            # a half in D': not integral
            (lambda A, B, C, D, E: (A, B, C, D + F(1, 2) * E), "gprime_integral"),
            # a one in D': integral, but not a group member
            (lambda A, B, C, D, E: (A, B, C, D + E), "gprime_membership"),
            # g' mu(N) for a skew N: a group member that moves theta elsewhere
            (lambda A, B, C, D, E: (A, A @ (E - E.T) + B, C, C @ (E - E.T) + D), "gprime_action"),
            # g' sigma for a flip sigma: integral and a group member, but g (g' sigma)^-1 is not
            # block upper triangular
            (flipped, "decomp_ctilde_zero"),
            # g' times a one-coordinate flip: the relations hold, det = -1
            (odd_flipped, "gprime_membership"),
        ],
    )
    def test_perturbed_gprime_closed_form(self, monkeypatch, tmp_path, perturb, name):
        closed = eb._gprime_closed_form

        def perturbed(td, q):
            A, B, C, D = closed(td, q)
            n = A.shape[0]
            E = xl.Mat([[int((i, j) == (0, n - 1)) for j in range(n)] for i in range(n)], 1, n)
            return perturb(A, B, C, D, E)

        monkeypatch.setattr(eb, "_gprime_closed_form", perturbed)
        assert failed_certificate(*mixed_torsion_case()) == name
        if name in eb.FACTOR_CERTIFICATE_NAMES:
            assert cli_failure(tmp_path, "decompose") == name
        if perturb is odd_flipped:
            with pytest.raises(eb.EmbeddingError, match="assembled matrix must have determinant 1"):
                eb.factor(mixed_torsion_case()[0])

    def test_perturbed_torsion_reduction(self, monkeypatch, tmp_path):
        reduce = xl.alternating_normal_form_int

        def perturbed(A):
            R, R_inv, h = reduce(A)
            return R, R_inv, [h[0] + 1, *h[1:]]

        monkeypatch.setattr(xl, "alternating_normal_form_int", perturbed)
        assert failed_certificate(*mixed_torsion_case()) == "torsion_normal_form"
        assert cli_failure(tmp_path, "decompose") == "torsion_normal_form"

    def test_perturbed_dual_tangent(self, monkeypatch, tmp_path):
        """S is read from Phi*, so a wrong Phi* fails the system S solves first."""
        tangent = eb._dual_tangent

        def perturbed(*args):
            W, phi_star = tangent(*args)
            return W, phi_star + one_entry(phi_star.shape, 0, 1)

        monkeypatch.setattr(eb, "_dual_tangent", perturbed)
        assert failed_certificate(*mixed_torsion_case()) == "S_closed_form"
        assert cli_failure(tmp_path, "pipeline") == "S_closed_form"

    @pytest.mark.parametrize("block", ["W", "theta_22"])
    def test_perturbed_theta_prime_blocks(self, monkeypatch, tmp_path, block):
        original = eb.theta_prime

        def perturbed(S, StJ, td, theta, W, phi_star, certs):
            if block == "W":
                W = W + one_entry(W.shape, 0, W.shape[1] - 1)
            else:
                n = theta.M.shape[0]
                theta = tg.Theta(theta.M + one_entry((n, n), n - 1, n - 1))
            return original(S, StJ, td, theta, W, phi_star, certs)

        monkeypatch.setattr(eb, "theta_prime", perturbed)
        assert failed_certificate(*mixed_torsion_case()) == "theta_prime_blocks"
        assert cli_failure(tmp_path, "pipeline") == "theta_prime_blocks"

    def test_moved_target(self, monkeypatch, tmp_path):
        act = eb.act

        def moved(g, theta):
            n = g.n
            return tg.Theta(act(g, theta).M + one_entry((n, n), 0, 1) - one_entry((n, n), 1, 0))

        monkeypatch.setattr(eb, "act", moved)
        assert failed_certificate(*mixed_torsion_case()) == "chain_endpoint"
        assert cli_failure(tmp_path, "pipeline") == "chain_endpoint"

    def test_domain_reported_undefined(self, monkeypatch, tmp_path):
        monkeypatch.setattr(eb, "domain_check", lambda sf, theta: None)
        assert failed_certificate(*mixed_torsion_case()) == "domain_defined"
        assert cli_failure(tmp_path, "pipeline") == "domain_defined"

    def test_doubled_curvature(self, monkeypatch, tmp_path):
        """Only the curvature reads F11, so gprime_action passes and gprime_closed_form fails."""
        resolvent = eb.verify_resolvent

        def doubled(fac, theta, tp, phi_star, F11, certs):
            return resolvent(fac, theta, tp, phi_star, 2 * F11, certs)

        monkeypatch.setattr(eb, "verify_resolvent", doubled)
        assert failed_certificate(*mixed_torsion_case()) == "gprime_closed_form"
        assert cli_failure(tmp_path, "pipeline") == "gprime_closed_form"

    @pytest.mark.parametrize(
        "change, name",
        [
            # D~ doubled: C~ is still 0, but A~^t D~ = 2 I
            (lambda A, B, D, S: (A, B, 2 * D), "decomp_unimodular"),
            # A~ added to B~: N gains A~ A~^t, whose diagonal is positive
            (lambda A, B, D, S: (A, B + A, D), "decomp_shear_skew"),
            # g1 g'^-1 mu(S) for a skew S: a group member, but not g1 g'^-1
            (lambda A, B, D, S: (A, B + A @ S, D), "decomp_reassembly"),
        ],
    )
    def test_perturbed_quotient(self, monkeypatch, tmp_path, change, name):
        """A wrong g1 g'^-1 fails the factor certificate that reads the changed block first.

        For a group member with C~ = 0, A~^t D~ = I and the skew B~ A~^t follow
        from the relations, and the reassembly from the product, so these three
        can fail only on a wrong quotient.  decompose forms it with the one
        two-factor call of compose; the reassembly is a three-factor call.
        """
        compose = eb.compose

        def perturbed(g, h, *rest):
            gt = compose(g, h, *rest)
            if rest:
                return gt
            n = gt.n
            E = xl.Mat([[int((i, j) == (0, n - 1)) for j in range(n)] for i in range(n)], 1, n)
            A, B, D = change(gt.A, gt.B, gt.D, E - E.T)
            return tg.GroupElement(xl.block([[A, B], [gt.C, D]]))

        monkeypatch.setattr(eb, "compose", perturbed)
        with pytest.raises(eb.EmbeddingError) as info:
            eb.factor(mixed_torsion_case()[0])
        assert info.value.name == name
        assert cli_failure(tmp_path, "decompose") == name
        assert cli_failure(tmp_path, "pipeline") == name

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
    def test_tbar_determinant_factors(self, seed, n):
        """det Tbar = (-1)^q det T~ prod n_j^2 and det S~ = det T11 det F11 det R det blk3:
        S_tbar_invertible and S_tilde_invertible rest on these, as T_tilde_invertible
        rests on T11^t J0 T11 = theta_11 - Z."""
        g = tg.random_element(f"tbar{seed}", 1 + seed % 8, n)
        results = defined_pipelines(g, f"tbar{seed}", 1)
        assume(results)
        d = results[0]
        td = d.torsion
        orders = math.prod(nj**2 for nj in td.nj)
        T, S, n = d.descriptor.T, d.descriptor.S, d.descriptor.n
        assert xl.det(eb._tbar(T, td, d.special.q)) == (-1) ** d.special.q * xl.det(T[:n, :]) * orders
        # T~ = diag(T11, I_q), and T11^t J0 T11 = theta_11 - Z, which domain_check inverted
        c = 2 * d.special.p
        T11 = T[:c, :c]
        assert xl.det(T[:n, :]) == xl.det(T11)
        assert T11.T @ xl.standard_symplectic(d.special.p) @ T11 == d.theta_in.M[:c, :c] - d.special.Z
        # S~ = -T~ Phi* with Phi* = [[F11 R^t blk3, F11 theta_12], [0, -I_q]], F11 invertible and R unimodular
        F11 = d.curvature[: 2 * d.special.p, : 2 * d.special.p]
        blk3 = xl.diag([F(1, nj) for nj in td.nj] * 2 + [-1] * (2 * d.special.p - 2 * td.k))
        assert abs(xl.det(td.R)) == 1 and xl.det(F11) != 0
        assert xl.det(S[:n, :]) == xl.det(T11) * xl.det(F11) * xl.det(td.R) * xl.det(blk3)

    def pipeline_job(self, tmp_path):
        """The CLI pipeline arguments for mixed_torsion_case."""
        g, theta = mixed_torsion_case()
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        job = {"version": docs.FORMAT_VERSION, "g": docs.group_doc(g), "theta": docs.theta_doc(theta)}
        inp.write_text(docs.dumps(job))
        return ["pipeline", "--input", str(inp), "--output", str(out)]

    def test_elimination_counts(self, tmp_path):
        """One CLI pipeline job runs eight eliminations, one per fact: rank C for the
        membership of g, g theta, rho(R0), the special form, R from its congruence,
        rank C' for the membership of g', theta_11 - Z (whose inverse also decides
        T~, Tbar^t J and S~) and the stacked lattice basis.  The closed forms of
        g' run none."""
        td = eb.factor(mixed_torsion_case()[0]).torsion
        args = self.pipeline_job(tmp_path)
        with mock.patch.object(xl, "_row_reduce", wraps=xl._row_reduce) as eliminations:
            eb._gprime_closed_form(td, 1)
            assert eliminations.call_count == 0
            assert cli.main(args) == 0
            assert eliminations.call_count == 8

    def test_exact_product_count(self, tmp_path):
        """One CLI pipeline job on mixed_torsion_case forms 36 exact products:
        pairing_integral reads phi instead of forming S^t J T."""
        args = self.pipeline_job(tmp_path)
        with mock.patch.object(xl, "matmul", wraps=xl.matmul) as products:
            assert cli.main(args) == 0
            assert products.call_count == 36

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
    def test_closed_forms_equal_the_solved_systems(self, seed, n):
        """The inversions the certificates no longer perform give the same S and g'."""
        g = tg.random_element(f"solve{seed}", 1 + seed % 8, n)
        results = defined_pipelines(g, f"solve{seed}", 1)
        assume(results)
        d = results[0]
        td, p, q = d.torsion, d.special.p, d.special.q
        phi = eb._phi_matrices(td, p, q)
        gram = xl.matmul(eb._tbar(d.descriptor.T, td, q).T, d.descriptor.J)
        assert xl.matmul(xl.rational_inverse(gram), phi) == d.descriptor.S
        inv = xl.rational_inverse(d.phi_star)
        theta, theta_out = d.theta_in.M, d.theta_out.M
        Cp = xl.matmul(inv, d.curvature)
        Dp = inv - xl.matmul(Cp, theta)
        Ap = d.phi_star.T + xl.matmul(theta_out, Cp)
        Bp = xl.matmul(theta_out, inv) - xl.matmul(Ap, theta)
        assert xl.block([[Ap, Bp], [Cp, Dp]]) == d.g_prime.M


# ---------------------------------------------------------------------------
# every certificate can fail


def doubled_symplectic_factor(monkeypatch):
    """T11 doubled: T^t J T reads 4 (theta_11 - Z) + Z in its symplectic block."""
    factor = xl.symplectic_factor_rational
    monkeypatch.setattr(xl, "symplectic_factor_rational", lambda A: 2 * factor(A))


def rational_torsion_pair(monkeypatch):
    """T built from R with its first k rows divided by 97 and the next k multiplied by 97.

    That change fixes the canonical form, so T^t J T = theta still holds, but
    the w rows m_j R_j / 97 are not integral.
    """
    build_T = eb.build_T

    def rescaled(sf, td, theta, J, certs):
        k = td.k
        M = xl.diag([F(1, 97)] * k + [97] * k + [1] * (2 * td.p - 2 * k))
        return build_T(sf, dataclasses.replace(td, R=M @ td.R), theta, J, certs)

    monkeypatch.setattr(eb, "build_T", rescaled)


def rational_basis_change(monkeypatch, column):
    """phi and S both times diag(1, .., 1/97, .., 1), the 1/97 at column(td).

    (Tbar^t J) S M = phi M still holds, so S_closed_form passes.
    """
    phi_matrices, closed = eb._phi_matrices, eb._dual_closed_form

    def basis_change(n, td):
        j = column(td)
        return xl.diag([1] * j + [F(1, 97)] + [1] * (n - j - 1))

    monkeypatch.setattr(eb, "_phi_matrices", lambda td, p, q: phi_matrices(td, p, q) @ basis_change(2 * p + q, td))
    monkeypatch.setattr(eb, "_dual_closed_form", lambda td, T, *rest: closed(td, T, *rest) @ basis_change(T.shape[1], td))


def rational_lattice_basis(monkeypatch):
    """The 1/97 basis change at column k: the first w row of S M, [0, -I_k, 0] M, has -1/97.

    phi's first n rows are zero in that column, so pairing_integral would pass.
    """
    rational_basis_change(monkeypatch, lambda td: td.k)


def rational_radical_column(monkeypatch):
    """The 1/97 basis change at the radical column 2k < 2p (radical_torsion_case).

    S's a, w and w^ rows are zero in that column, so S_lattice_rows passes,
    but phi's first n rows there are R^t e_2k / 97, so S^t J T = -phi[:n]^t
    is not integral.
    """
    rational_basis_change(monkeypatch, lambda td: 2 * td.k)


def doubled_splitting_column(monkeypatch):
    """verify_duality reads phi with its first column doubled: integral, with |det| 2 in the stack."""
    verify = eb.verify_duality

    def doubled(T, td, phi, certs):
        return verify(T, td, phi @ xl.diag([2] + [1] * (phi.shape[1] - 1)), certs)

    monkeypatch.setattr(eb, "verify_duality", doubled)


def wrong_StJ_for_theta_prime(monkeypatch):
    """theta_prime reads S^t J with 1/97 added at (0, 0): -S^t J S is skew for every S, so only a wrong S^t J fails it."""
    original = eb.theta_prime

    def perturbed(S, StJ, *rest):
        return original(S, StJ + one_entry(StJ.shape, 0, 0), *rest)

    monkeypatch.setattr(eb, "theta_prime", perturbed)


# The fault that makes each certificate the first to fail, for TestEveryCertificateCanFail,
# on mixed_torsion_case unless FAULT_CASES names another case.
FAULTS = {
    "T_pullback": doubled_symplectic_factor,
    "T_lattice_rows": rational_torsion_pair,
    "S_lattice_rows": rational_lattice_basis,
    "pairing_integral": rational_radical_column,
    "dual_lattice_unimodular": doubled_splitting_column,
    "S_pullback": wrong_StJ_for_theta_prime,
}
FAULT_CASES = {"pairing_integral": radical_torsion_case}

# (certificate, a name it follows from) for each row of the table that lists any.
IMPLICATIONS = [(name, cause) for name, _, follows_from in eb.CERTIFICATES for cause in follows_from]


class RecordingLog(eb.CertificateLog):
    """One log for factor and embed that records a failed certificate instead of
    raising, and records the certificate `failing` as failed whatever its check says."""

    def __init__(self, failing=None):
        super().__init__()
        self.failing = failing
        self.failed = []

    def check(self, name, ok, message):
        (self.names if ok and name != self.failing else self.failed).append(name)


class TestEveryCertificateCanFail:
    @pytest.mark.parametrize("name", list(FAULTS))
    def test_fault_fails_first(self, monkeypatch, tmp_path, name):
        case = FAULT_CASES.get(name, mixed_torsion_case)
        FAULTS[name](monkeypatch)
        assert failed_certificate(*case()) == name
        assert cli_failure(tmp_path, "pipeline", case) == name

    @pytest.mark.parametrize("name, cause", IMPLICATIONS)
    def test_implied_certificate_fails_with_its_cause(self, monkeypatch, name, cause):
        """A certificate that follows from others fails under a fault of any of them:
        the fault of FAULTS where the cause has one, else its verdict recorded as failed.
        test_tbar_determinant_factors checks the identities these implications rest on."""
        if cause in FAULTS:
            FAULTS[cause](monkeypatch)
            log = RecordingLog()
        else:
            log = RecordingLog(failing=cause)
        monkeypatch.setattr(eb, "CertificateLog", lambda passed=(): log)
        eb.pipeline(*mixed_torsion_case())
        assert cause in log.failed and name in log.failed
        if cause == "T_pullback":
            implied = ["T_tilde_invertible", "S_tbar_invertible", "S_tilde_invertible"]
            assert log.failed[: log.failed.index("S_closed_form")] == ["T_pullback", *implied]


# The other tests that make a certificate the first to fail.
TRIPPED_BY = {
    "domain_defined": TestVerifiedClosedForms.test_domain_reported_undefined,
    "torsion_normal_form": TestVerifiedClosedForms.test_perturbed_torsion_reduction,
    "S_closed_form": TestVerifiedClosedForms.test_perturbed_dual_closed_form,
    "theta_prime_blocks": TestVerifiedClosedForms.test_perturbed_theta_prime_blocks,
    "gprime_integral": TestVerifiedClosedForms.test_perturbed_gprime_closed_form,
    "gprime_membership": TestVerifiedClosedForms.test_perturbed_gprime_closed_form,
    "gprime_action": TestVerifiedClosedForms.test_perturbed_gprime_closed_form,
    "gprime_closed_form": TestVerifiedClosedForms.test_doubled_curvature,
    "decomp_ctilde_zero": TestVerifiedClosedForms.test_perturbed_gprime_closed_form,
    "decomp_unimodular": TestVerifiedClosedForms.test_perturbed_quotient,
    "decomp_shear_skew": TestVerifiedClosedForms.test_perturbed_quotient,
    "decomp_reassembly": TestVerifiedClosedForms.test_perturbed_quotient,
    "chain_endpoint": TestVerifiedClosedForms.test_moved_target,
}

@pytest.mark.parametrize("name", eb.CERTIFICATE_NAMES)
def test_every_certificate_has_a_fault_or_an_implication(name):
    """A certificate that no fault can trip proves nothing, unless the names it follows
    from decide it (test_implied_certificate_fails_with_its_cause)."""
    implied = any(cause for implied, cause in IMPLICATIONS if implied == name)
    assert (name in FAULTS) + (name in TRIPPED_BY) + implied == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
def test_factorization_does_not_depend_on_theta(seed, n):
    """g', N, A~ and R0 are functions of g alone: two theta in the domain agree."""
    g = tg.random_element(f"indep{seed}", 1 + seed % 8, n)
    results = defined_pipelines(g, f"indep{seed}", 2)
    assume(len(results) == 2 and results[0].source != results[1].source)
    a, b = results
    assert a.g_prime == b.g_prime
    assert a.shear == b.shear
    assert a.basis_change == b.basis_change
    assert a.r0 == b.r0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
def test_printed_chain_reaches_g_theta(seed, n):
    """The chain a user reads, applied exactly, carries theta to g theta."""
    g = tg.random_element(f"chain{seed}", 1 + seed % 8, n)
    results = defined_pipelines(g, f"chain{seed}", 1)
    assume(results)
    printed_chain_end(g, results[0].source, results[0])
