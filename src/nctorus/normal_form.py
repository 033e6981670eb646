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
from .torus_group import GroupElement, Theta, compose, rho


class NormalFormError(Exception):
    pass


class NotSpecialForm(NormalFormError):
    """C/D blocks do not have the required shape; normalize first."""


class OddRank(NormalFormError):
    """rank(C) came out odd, which valid input cannot produce."""


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
    trailing all-zero columns of C; an interior zero column therefore shows
    up as a rank-deficient leading block and is rejected.

    Raises:
        NotSpecialForm: leading block rank-deficient, no exact solution for
            Z, Z not skew, or the mixed C/D matrix singular.
        OddRank: full-rank leading block of odd width (corrupted input).
    """
    n = g.n
    C, D = g.C, g.D
    width = n
    while width > 0 and xl.is_zero(C[:, width - 1 : width]):
        width -= 1
    lead = C[:, :width]
    r = xl.rank(lead)
    if r < width:
        raise NotSpecialForm("leading columns of C are rank-deficient")
    if width % 2 != 0:
        raise OddRank("rank of C is odd")
    p = width // 2
    try:
        Z = xl.solve_unique(-lead, D[:, :width])
    except xl.Inconsistent:
        raise NotSpecialForm("leading columns of D are not -C Z for any Z") from None
    if not xl.is_skew(Z):
        raise NotSpecialForm("solved Z is not skew-symmetric")
    if xl.det(xl.block([[lead, D[:, width:]]])) == 0:
        raise NotSpecialForm("mixed block matrix [C11 D12; C21 D22] is singular")
    return SpecialForm(n=n, p=p, Z=Z)


def normalize_right(g: GroupElement) -> Mat:
    """Unimodular R0 such that g * rho(R0) is in special form.

    The trailing columns of R0 are a primitive basis of the integer kernel
    of C, so C R0 keeps its nonzero columns in the leading even-rank block.
    normalize confirms the shape with detect_special_form on g * rho(R0), which
    raises OddRank or NotSpecialForm if it is wrong.
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
    is certified downstream by theta_prime_blocks, gprime_action and
    gprime_closed_form.
    """
    c = 2 * sf.p
    try:
        return xl.rational_inverse(theta.M[:c, :c] - sf.Z)
    except xl.Singular:
        return None
