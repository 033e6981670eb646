"""Construction of the dual pair of lattice embeddings and the companion
group element, with exact certificates at every step.

``factor(g)`` reads g alone.  It brings g to special form g rho(R0) and builds
the torsion data of the unique rational skew block Z, the companion element
g' from theta-independent closed forms (asserted integral and a group
member), and the factorization g rho(R0) = mu(N) rho(A) g'.
``embed(factorization, theta)`` then builds, for theta1 = R0^-1 theta R0^-t
and over the ambient phase space of dimension n + q + 2k:

  * the embedding matrix T with T^t J T = theta1,
  * the dual embedding S onto the annihilator lattice, taken from its closed
    form in the dual tangent matrix Phi* and verified against its linear system,
  * theta' = -S^t J S together with its displayed block formulas in Phi*,
  * the normalized curvature; g' is verified against it and Phi* by the
    resolvent formulas (theta' = g' theta1).

Every identity is checked in exact arithmetic, once, and a check that
passes is logged by name.  Where a value is the unique solution of a linear
system, its closed form is checked against that system instead of solving
it, which certifies the same fact without forming an inverse.  A failed
certificate raises with its name and a message.  ``factor`` returns a
``Factorization``, and ``embed`` a ``PipelineResult`` that extends it, each
holding every value built once and the names of the certificates that
passed.  ``pipeline(g, theta)`` is ``embed(factor(g), theta)``.  The Morita
chain it certifies is fixed, rho(R0^-1), the Heisenberg bimodule, rho(A),
mu(N), so the result stores the chain's matrices and not a list of steps.

The closed forms for the diagonal corner of A' and D' are taken as -I_q:
with +I_q the product identity theta' = g' theta fails on any example with
p > 0 and q > 0, while -I_q reproduces the resolvent-formula output exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction

from . import exact_linalg as xl
from .exact_linalg import Mat
from .module_sim import ModuleDescriptor, build_forms, non_integral_rows
from .normal_form import SpecialForm, domain_check, normalize
from .torus_group import (
    GroupElement,
    GroupError,
    Theta,
    act,
    check_membership,
    compose,
    invert_element,
    mu,
)


class EmbeddingError(Exception):
    """A named certificate failed; .name identifies it."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


class CertificateLog:
    """The names of the certificates that passed, in run order; a failure raises."""

    def __init__(self):
        self.names: list[str] = []

    def check(self, name: str, ok: bool, message: str):
        if not ok:
            raise EmbeddingError(name, message)
        self.names.append(name)


# ---------------------------------------------------------------------------
# torsion data


@dataclass(frozen=True, eq=False)
class TorsionData:
    """Normal-form data of the rational skew block Z.

    m clears the denominators of Z, R is the unimodular change of basis with
    m Z = R^t [[0, P, 0], [-P, 0, 0], [0, 0, 0]] R, P = diag(h), R_inv = R^-1, and each
    ratio h_j / m reduces to m_j / n_j with the Bezout pair (c_j, d_j).
    Torsion factors with n_j = 1 are kept so matrix shapes stay uniform.
    """

    m: int
    R: Mat
    R_inv: Mat
    h: tuple[int, ...]
    mj: tuple[int, ...]
    nj: tuple[int, ...]
    cj: tuple[int, ...]
    dj: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.R.shape[0] // 2

    @property
    def k(self) -> int:
        return len(self.h)

    @cached_property
    def T4(self) -> Mat:
        return xl.diag(self.nj + self.nj)


def build_torsion_data(Z: Mat) -> TorsionData:
    """Clear denominators, reduce the alternating form, and take Bezout data."""
    m = Z.den
    R, R_inv, h = xl.alternating_normal_form_int(m * Z)
    mj, nj, cj, dj = [], [], [], []
    for hj in h:
        g = math.gcd(hj, m)
        _, c, d = xl.ext_gcd(hj // g, m // g)
        mj.append(hj // g)
        nj.append(m // g)
        cj.append(c)
        dj.append(d)
    return TorsionData(m=m, R=R, R_inv=R_inv, h=tuple(h), mj=tuple(mj), nj=tuple(nj), cj=tuple(cj), dj=tuple(dj))


def _torsion_diag(td: TorsionData, x) -> Mat:
    """diag(x, x, -I) cut as (k, k, 2p - 2k), for a diagonal x of k ints or Fractions."""
    return xl.diag([*x, *x, *[-1] * (2 * td.p - 2 * td.k)])


# ---------------------------------------------------------------------------
# the embedding maps


def build_T(sf: SpecialForm, td: TorsionData, theta: Theta, J: Mat, certs: CertificateLog) -> Mat:
    """The embedding map for theta, with rows (u, u^, a, a^, w, w^).

    The symplectic block realizes theta_11 - Z against the standard form,
    the a^ rows carry theta_21 and a fixed strict-upper splitting of
    theta_22, and the torsion rows land the reduced basis multiples in the
    covering lattice of W x W^.  The projection T~ onto the (u, u^, a) rows
    is diag(T11, I_q), so det T11 != 0 decides it is invertible; Tbar^t J is
    invertible exactly when T~ is (see build_S), and so is the projection S~
    of S (see _dual_closed_form), so that one det certifies all three.
    """
    p, q, k = sf.p, sf.q, td.k
    Z = xl.zeros
    T11 = xl.symplectic_factor_rational(theta.M[: 2 * p, : 2 * p] - sf.Z)
    T31 = theta.M[2 * p :, : 2 * p]
    T32 = xl.strict_upper(theta.M[2 * p :, 2 * p :])
    T = xl.block([
        [T11, Z(2 * p, q)],
        [Z(q, 2 * p), xl.eye(q)],
        [T31, T32],
        [xl.diag(td.mj) @ td.R[:k, :], Z(k, q)],
        [td.R[k : 2 * k, :], Z(k, q)],
    ])
    # J T first: each row of J has one nonzero entry, so each row of J T is one scaled row of T
    certs.check("T_pullback", xl.matmul(T.T, xl.matmul(J, T)) == theta.M, "T^t J T != theta")
    certs.check("T_lattice_rows", non_integral_rows(T, p, q, k) is None, "integer rows of T not integral")
    invertible = xl.det(T11) != 0
    certs.check("T_tilde_invertible", invertible, "projection of T is singular")
    certs.check("S_tbar_invertible", invertible, "Tbar^t J is singular")
    certs.check("S_tilde_invertible", invertible, "projection of S is singular")
    return T


def _phi_matrices(td: TorsionData, p: int, q: int) -> Mat:
    """The embedding of the lattice into the ambient certificate coordinates.

    Coordinates are cut (2p, q, q, 2k); the middle q block is identically
    zero.  The first 2p rows then pick up the transposed reduction matrix.
    """
    k = td.k
    n = 2 * p + q
    phi1 = [[0] * n for _ in range(n + q + 2 * k)]
    for j in range(k):
        phi1[j][j] = -td.dj[j]
        phi1[2 * p + 2 * q + j][j] = td.cj[j]
        phi1[2 * p + 2 * q + k + j][k + j] = 1
    for i in range(2 * k, 2 * p):
        phi1[i][i] = 1
    for j in range(q):
        phi1[2 * p + q + j][2 * p + j] = 1
    return xl.block_diag(td.R.T, xl.eye(2 * q + 2 * k)) @ Mat(phi1, 1, n)


def _dual_tangent(td: TorsionData, theta: Theta, F11: Mat) -> tuple[Mat, Mat]:
    """W = [R^t blk3 | theta_12], blk3 = diag(P1, P1, -I) for P1 = diag(1/n_j), and Phi* = [[F11 W], [0, -I_q]].

    S, theta' and the resolvent check of g' all read this one Phi*.
    """
    c = 2 * td.p
    q = theta.M.shape[0] - c
    W = xl.block([[xl.matmul(td.R.T, _torsion_diag(td, [Fraction(1, n) for n in td.nj])), theta.M[:c, c:]]])
    return W, xl.block([[xl.matmul(F11, W)], [xl.zeros(q, c), -xl.eye(q)]])


def _dual_closed_form(td: TorsionData, T: Mat, phi_star: Mat, q: int) -> Mat:
    """The closed-form blocks of the dual embedding S.

    T11^t J0 T11 = theta_11 - Z = F11^-1 and J0^2 = -I give J0 T11^-t =
    -T11 F11, so the projection S~ onto the (u, u^, a) rows is -T~ Phi* for
    T~ = diag(T11, I_q) and the Phi* = [[F11 W], [0, -I_q]] of _dual_tangent,
    and no inverse is formed.  F11 and blk3 are invertible and R unimodular,
    so det S~ != 0 exactly when det T11 != 0, which build_T certified as
    S_tilde_invertible.
    """
    n, k = T.shape[1], td.k
    Z = xl.zeros
    return xl.block([
        [-xl.matmul(T[:n, :], phi_star)],
        [Z(q, 2 * td.p), T[n : n + q, 2 * td.p :].T],
        [Z(k, k), -xl.eye(k), Z(k, n - 2 * k)],
        [xl.diag(td.cj), Z(k, n - k)],
    ])


def _tbar(T: Mat, td: TorsionData, q: int) -> Mat:
    """T extended to the ambient square, block lower triangular with diagonal (T~, -I_q, T4)."""
    n, k = T.shape[1], td.k
    Z = xl.zeros
    return xl.block([
        [T[:n, :], Z(n, q), Z(n, 2 * k)],
        [T[n : n + q, :], -xl.eye(q), Z(q, 2 * k)],
        [T[n + q :, :], Z(2 * k, q), td.T4],
    ])


def build_S(
    sf: SpecialForm,
    td: TorsionData,
    T: Mat,
    J: Mat,
    phi: Mat,
    phi_star: Mat,
    certs: CertificateLog,
) -> tuple[Mat, Mat]:
    """The dual embedding S onto the annihilator of the image lattice, and S^t J.

    S is the unique solution of (Tbar^t J) S = phi, the lattice splitting
    phi pulled back through the dual Gram matrix.  Tbar is block lower
    triangular with diagonal blocks T~, -I_q and T4 = diag(n_j, n_j), and J
    is nonsingular, so Tbar^t J is invertible exactly when det T~ != 0, which
    build_T certified as S_tbar_invertible.  The closed form is then verified
    against the system instead of solving it: given invertibility,
    (Tbar^t J) S_closed = phi proves S_closed is the solution.  J is skew, so
    S^t J = -(J S)^t reuses the product that check forms.
    """
    p, q, k = sf.p, sf.q, td.k
    S = _dual_closed_form(td, T, phi_star, q)
    JS = xl.matmul(J, S)
    certs.check(
        "S_closed_form",
        xl.matmul(_tbar(T, td, q).T, JS) == phi,
        "closed-form dual map does not solve Tbar^t J S = phi",
    )
    certs.check("S_lattice_rows", non_integral_rows(S, p, q, k) is None, "integer rows of S not integral")
    return S, -JS.T


def verify_duality(T: Mat, StJ: Mat, td: TorsionData, phi: Mat, certs: CertificateLog) -> None:
    """Two exact duality checks.

    (a) S^t J T integral: the skew bicharacter pairs the two image lattices
        trivially.
    (b) The stacked basis of the kernel sublattice and the embedded lattice
        phi (the splitting build_S used) is a basis of the full certificate
        lattice: determinant +-1.
    """
    certs.check("pairing_integral", xl.is_integral(xl.matmul(StJ, T)), "S^t J T has a non-integer entry")
    n, p, k = T.shape[1], td.p, td.k
    q = n - 2 * p
    delta = xl.block([[T[n + q :, :].T], [xl.zeros(q, 2 * k)], [td.T4]])
    stack = xl.block([[delta, phi]])
    keep = list(range(2 * p)) + list(range(2 * p + q, n + q + 2 * k))
    square = stack[keep, :]
    stray = not xl.is_zero(stack[2 * p : 2 * p + q, :])
    certs.check(
        "dual_lattice_unimodular",
        not stray and xl.is_integral(square) and abs(xl.det(square)) == 1,
        "stack has entries in the zero block" if stray else "stacked lattice basis is not unimodular",
    )


def theta_prime(S: Mat, StJ: Mat, td: TorsionData, theta: Theta, W: Mat, phi_star: Mat, certs: CertificateLog) -> Theta:
    """theta' = -S^t J S, cross-checked against the four displayed blocks.

    Since -theta_21 = theta_12^t, they are W^t Phi*_1 + diag(corner, theta_22),
    with corner the canonical alternating form of the diagonal -c_j / n_j and
    Phi*_1 = F11 W the top 2p rows of the dual tangent matrix.
    """
    c = 2 * td.p
    tp = -xl.matmul(StJ, S)
    certs.check("S_pullback", xl.is_skew(tp), "-S^t J S is not skew")
    corner = xl.canonical_alternating([Fraction(-cj, nj) for cj, nj in zip(td.cj, td.nj)], c)
    expect = xl.matmul(W.T, phi_star[:c, :]) + xl.block_diag(corner, theta.M[c:, c:])
    certs.check("theta_prime_blocks", tp == expect, "block formulas for theta' disagree with -S^t J S")
    return Theta(tp)  # S_pullback certified tp skew


def _gprime_closed_form(td: TorsionData, q: int) -> tuple[Mat, Mat, Mat, Mat]:
    """The theta-independent closed forms of the blocks A', B', C', D' of g'."""
    c, Rt_inv = 2 * td.p, td.R_inv.T
    Ap = xl.block_diag(xl.canonical_alternating([-cj for cj in td.cj], c) @ Rt_inv, -xl.eye(q))
    Bp = xl.block_diag(_torsion_diag(td, td.dj) @ td.R, xl.zeros(q, q))
    Cp = xl.block_diag(_torsion_diag(td, td.nj) @ Rt_inv, xl.zeros(q, q))
    Dp = xl.block_diag(xl.canonical_alternating([-mj for mj in td.mj], c) @ td.R, -xl.eye(q))
    return Ap, Bp, Cp, Dp


def build_gprime(td: TorsionData, q: int, certs: CertificateLog) -> GroupElement:
    """g' from its theta-independent closed forms, asserted integral and a group member."""
    blocks = _gprime_closed_form(td, q)
    certs.check("gprime_integral", all(map(xl.is_integral, blocks)), "closed forms of g' are not integral")
    gp = None
    detail = ""
    try:
        gp = check_membership(*blocks)
    except GroupError as e:
        detail = str(e)
    certs.check("gprime_membership", gp is not None, detail)
    return gp


def verify_resolvent(fac: Factorization, theta: Theta, tp: Theta, phi_star: Mat, F11: Mat, certs: CertificateLog) -> Mat:
    """The normalized curvature, with g' verified against it and the Phi* of _dual_tangent.

    g', which build_gprime took from its closed forms, is verified against
    the resolvent formulas

        C' = Phi*^-1 curv,  D' = Phi*^-1 - C' theta,
        A' = Phi*^t + theta' C',  B' = theta' Phi*^-1 - A' theta

    without forming Phi*^-1.  With X = D' + C' theta, gprime_action checks
    Phi* X = I, so X is invertible with inverse Phi*, and A' theta + B' =
    theta' X, which is g' theta = theta'.  gprime_closed_form checks
    Phi* C' = curv and A' = Phi*^t + theta' C'.  Given Phi* X = I, these four
    identities are exactly the resolvent formulas.
    """
    gp = fac.g_prime
    curvature = xl.block_diag(F11, xl.zeros(fac.special.q, fac.special.q))
    Ap, Bp, Cp, Dp = gp.A, gp.B, gp.C, gp.D
    X = Dp + xl.matmul(Cp, theta.M)
    certs.check(
        "gprime_action",
        xl.matmul(phi_star, X) == xl.eye(gp.n) and xl.matmul(Ap, theta.M) + Bp == xl.matmul(tp.M, X),
        "g' theta != theta'",
    )
    certs.check(
        "gprime_closed_form",
        xl.matmul(phi_star, Cp) == curvature and Ap == phi_star.T + xl.matmul(tp.M, Cp),
        "closed forms of g' disagree with the resolvent formulas",
    )
    return curvature


def decompose(g: GroupElement, gp: GroupElement, certs: CertificateLog) -> tuple[Mat, Mat]:
    """Factor g = mu(N) rho(A) g' and verify the reassembly exactly."""
    gt = compose(g, invert_element(gp))
    A, D = gt.A, gt.D
    certs.check("decomp_ctilde_zero", xl.is_zero(gt.C), "C block of g (g')^-1 is nonzero")
    certs.check("decomp_unimodular", A.T @ D == xl.eye(g.n), "A^t D != I in the triangular factor")
    N = gt.B @ A.T
    certs.check("decomp_shear_skew", xl.is_skew(N), "B A^t is not skew")
    # A^t D = I makes D = A^-t, so diag(A, D) is rho(A) without an inverse.
    rebuilt = compose(mu(N), GroupElement(xl.block_diag(A, D)), gp)
    certs.check("decomp_reassembly", rebuilt == g, "mu(N) rho(A) g' does not reproduce g")
    return N, A


# ---------------------------------------------------------------------------
# factorization and full pipeline


@dataclass(frozen=True, eq=False)
class Factorization:
    """Everything factor(g) builds from g alone, each value held once.

    g rho(r0) = mu(shear) rho(basis_change) g_prime.  ``certificates`` names
    the checks that passed, in the fixed order of CERTIFICATE_NAMES.
    """

    g: GroupElement
    r0: Mat
    r0_inv: Mat
    special: SpecialForm
    torsion: TorsionData
    g_prime: GroupElement
    shear: Mat
    basis_change: Mat
    certificates: tuple[str, ...]

    def all_passed(self) -> bool:
        """Every certificate ran and passed (a failing one raises instead)."""
        return list(self.certificates) == FACTOR_CERTIFICATE_NAMES


@dataclass(frozen=True, eq=False)
class PipelineResult(Factorization):
    """The factorization of g together with everything embed builds at theta.

    The Morita chain is fixed: rho(R0^-1) carries source to theta_in, the
    Heisenberg bimodule carries theta_in to theta_out, and rho(basis_change)
    then mu(shear) carry theta_out to target = g theta.  ``certificates``
    names the checks of both steps that passed.
    """

    source: Theta
    target: Theta
    phi_star: Mat
    curvature: Mat
    descriptor: ModuleDescriptor

    @property
    def theta_in(self) -> Theta:
        return self.descriptor.theta

    @property
    def theta_out(self) -> Theta:
        return self.descriptor.theta_prime

    def all_passed(self) -> bool:
        return list(self.certificates) == CERTIFICATE_NAMES


def factor(g: GroupElement) -> Factorization:
    """Normalize g, reduce its torsion, build g' and factor g rho(R0) = mu(N) rho(A) g'.

    Runs the seven certificates that read g alone; raises EmbeddingError if one fails.
    """
    certs = CertificateLog()
    R0, rho_R0, g1, sf = normalize(g)
    td = build_torsion_data(sf.Z)
    certs.check(
        "torsion_normal_form",
        td.R.T @ xl.canonical_alternating(list(td.h), 2 * td.p) @ td.R == td.m * sf.Z,
        "alternating reduction does not reproduce m Z",
    )
    gp = build_gprime(td, sf.q, certs)
    N, A = decompose(g1, gp, certs)
    R0_inv = rho_R0.D.T  # rho(R0) = diag(R0, R0^-t)
    return Factorization(g, R0, R0_inv, sf, td, gp, N, A, tuple(certs.names))


def embed(fac: Factorization, theta: Theta) -> PipelineResult:
    """Build the dual embeddings at theta and certify the chain to g theta.

    Raises:
        Undefined: if the action of g at theta is not defined.
        EmbeddingError: if any exact certificate fails.
    """
    return _embed(act(fac.g, theta), fac, theta)


def _embed(target: Theta, fac: Factorization, theta: Theta) -> PipelineResult:
    certs = CertificateLog()
    sf, td, R0_inv = fac.special, fac.torsion, fac.r0_inv
    theta1 = Theta(xl.matmul(R0_inv, theta.M, R0_inv.T))  # skew, as theta is
    F11 = domain_check(sf, theta1)
    certs.check("domain_defined", F11 is not None, "theta_11 - Z is singular")
    J = build_forms(sf.p, sf.q, td.nj)
    T = build_T(sf, td, theta1, J, certs)
    phi = _phi_matrices(td, sf.p, sf.q)
    W, phi_star = _dual_tangent(td, theta1, F11)
    S, StJ = build_S(sf, td, T, J, phi, phi_star, certs)
    verify_duality(T, StJ, td, phi, certs)
    tp = theta_prime(S, StJ, td, theta1, W, phi_star, certs)
    curvature = verify_resolvent(fac, theta1, tp, phi_star, F11, certs)
    # The first step carries theta to theta1 by construction and the certified
    # embedding carries theta1 to tp, so the chain ends at g theta exactly when
    # the last two steps carry tp there.
    At = fac.basis_change
    certs.check(
        "chain_endpoint",
        xl.matmul(At, tp.M, At.T) + fac.shear == target.M,
        "composed chain does not reach g theta",
    )
    passed = {*fac.certificates, *certs.names}
    factored = {f.name: getattr(fac, f.name) for f in fields(Factorization)}
    factored["certificates"] = tuple(name for name in CERTIFICATE_NAMES if name in passed)
    return PipelineResult(
        **factored,
        source=theta,
        target=target,
        phi_star=phi_star,
        curvature=curvature,
        descriptor=ModuleDescriptor(
            p=sf.p,
            q=sf.q,
            orders=td.nj,
            T=T,
            S=S,
            theta=theta1,
            theta_prime=tp,
        ),
    )


def pipeline(g: GroupElement, theta: Theta) -> PipelineResult:
    """embed(factor(g), theta), raising Undefined (before g is factored) or EmbeddingError as they do."""
    return _embed(act(g, theta), factor(g), theta)


CERTIFICATE_NAMES = [
    "domain_defined",
    "torsion_normal_form",
    "T_pullback",
    "T_lattice_rows",
    "T_tilde_invertible",
    "S_tbar_invertible",
    "S_closed_form",
    "S_lattice_rows",
    "S_tilde_invertible",
    "pairing_integral",
    "dual_lattice_unimodular",
    "S_pullback",
    "theta_prime_blocks",
    "gprime_integral",
    "gprime_membership",
    "gprime_action",
    "gprime_closed_form",
    "decomp_ctilde_zero",
    "decomp_unimodular",
    "decomp_shear_skew",
    "decomp_reassembly",
    "chain_endpoint",
]

# The certificates factor runs, which read g alone.
FACTOR_CERTIFICATE_NAMES = [
    "torsion_normal_form",
    "gprime_integral",
    "gprime_membership",
    "decomp_ctilde_zero",
    "decomp_unimodular",
    "decomp_shear_skew",
    "decomp_reassembly",
]
