"""Special-form detection and right normalization of group elements.

An element is in special form when its C block has exactly the shape
[C11 0; C21 0] with the leading 2p columns of full column rank and the
leading 2p columns of D equal to -C Z for a (then unique, rational,
skew-symmetric) 2p x 2p matrix Z.  Every element can be brought to this
shape by right multiplication with rho(R0) for a unimodular R0 assembled
from a completed integer kernel basis of C.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact_linalg as xl
from .exact_linalg import Mat
from .torus_group import GroupElement, GroupError, Theta, compose, rho


@dataclass(frozen=True, eq=False)
class SpecialForm:
    n: int
    p: int
    Z: Mat  # 2p x 2p rational skew

    @property
    def q(self) -> int:
        return self.n - 2 * self.p


def detect_special_form(g: GroupElement) -> SpecialForm:
    """Read off (p, Z) or explain why the shape is wrong.

    The width of the leading block is fixed as n minus the number of
    trailing all-zero columns of C.  One solve of [C11 D12; C21 D22] X =
    -D[:, :width] decides the rest: the mixed matrix is invertible (so the
    leading columns of C have full rank), and -C Z = D[:, :width] is solvable
    exactly when the bottom rows of X vanish; Z is its top rows.  The width
    is then rank C, even for g from check_membership or the generators (see
    check_membership); for g with det -1 the result is undefined.

    Raises:
        GroupError: mixed C/D matrix singular, no exact solution for Z,
            or Z not skew.
    """
    C, D = g.C, g.D
    width = g.n
    while width > 0 and xl.is_zero(C[:, width - 1 : width]):
        width -= 1
    try:
        X = xl.solve_unique(xl.block([[C[:, :width], D[:, width:]]]), -D[:, :width])
    except xl.Singular:
        raise GroupError("mixed block matrix [C11 D12; C21 D22] is singular") from None
    if not xl.is_zero(X[width:, :]):
        raise GroupError("leading columns of D are not -C Z for any Z")
    Z = X[:width, :]
    if not xl.is_skew(Z):
        raise GroupError("solved Z is not skew-symmetric")
    return SpecialForm(n=g.n, p=width // 2, Z=Z)


def normalize_right(g: GroupElement) -> Mat:
    """Unimodular R0 such that g * rho(R0) is in special form.

    The trailing columns of R0 are a primitive basis of the integer kernel
    of C, so C R0 keeps its nonzero columns in the leading even-rank block.
    complete_basis returns R0 unchecked; normalize decides it: rho(R0)
    raises GroupError if R0 is not unimodular, and detect_special_form on
    g * rho(R0) if the shape is wrong.
    """
    return xl.complete_basis(g.C)


def normalize(g: GroupElement) -> tuple[Mat, GroupElement, GroupElement, SpecialForm]:
    """The R0 of normalize_right, rho(R0), g rho(R0) and its special form."""
    R0 = normalize_right(g)
    rho_R0 = rho(R0)
    g1 = compose(g, rho_R0)
    return R0, rho_R0, g1, detect_special_form(g1)


def domain_check(sf: SpecialForm, theta: Theta) -> Mat | None:
    """Decide definedness of the action from theta_11 - Z alone.

    Returns F11 = (theta_11 - Z)^-1, or None where the action is undefined;
    undefined is a value, not an error.  That (C theta + D)^-1 C =
    blk(F11, 0; 0, 0) with F11 skew is a lemma of the construction, asserted
    in the tests: the pipeline never uses (C theta + D)^-1 C, and F11 itself
    is certified downstream through the dual tangent matrix Phi* it builds,
    by S_closed_form, theta_prime_blocks, gprime_action and gprime_closed_form.
    """
    c = 2 * sf.p
    try:
        return xl.rational_inverse(theta.M[:c, :c] - sf.Z)
    except xl.Singular:
        return None
