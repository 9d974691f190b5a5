"""Menu transformations that never lose revenue, with runtime-checked certificates.

Each construction returns a certificate recording the branch taken and the
exact revenues involved; the dominance conclusion is asserted at construction
time so a falsifying instance cannot pass silently.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .buyer import expected_revenues
from .model import (
    Menu,
    SingleItemDistribution,
    menu2,
    normalize,
    product,
)


class CertificateError(RuntimeError):
    """Raised when a construction's dominance claim fails; carries full diagnostics."""


@dataclass(frozen=True)
class ConstructionCertificate:
    input_menu: Menu
    outputs: Tuple[Menu, ...]
    best: Menu
    branch: str
    input_revenue: Fraction
    output_revenues: Tuple[Fraction, ...]

    @property
    def margin(self) -> Fraction:
        return max(self.output_revenues) - self.input_revenue


def _certificate(branch: str, m: Menu, outputs: Sequence[Menu], base: Fraction,
                 revs: Sequence[Fraction]) -> ConstructionCertificate:
    """Certify outputs earning `revs` against the input m earning `base`: a
    single output must earn at least `base`, and so must the best of several."""
    revs = tuple(revs)
    if max(revs) < base:
        if len(revs) == 1:
            raise CertificateError(
                f"branch {branch!r}: output {outputs[0].prices} earns {revs[0]} "
                f"< input {m.prices} earning {base}")
        raise CertificateError(
            f"branch {branch!r}: no candidate beats input {m.prices} "
            f"(input revenue {base}, candidates {list(revs)})")
    best_idx = max(range(len(revs)), key=lambda i: (revs[i], -i))
    return ConstructionCertificate(m, tuple(outputs), outputs[best_idx], branch, base, revs)


def submodularize2(m: Menu, d1: SingleItemDistribution,
                   d2: SingleItemDistribution) -> ConstructionCertificate:
    """Replace a supermodular 2-item menu by an additive one that earns at least
    as much under the independent product d1 x d2.

    With item prices relabeled so a <= b and pair price c > a+b, the additive
    menu (a, b, a+b) wins when

        Pr[a <= v1 < c-b] * a  >=  Pr[v1 >= c-b] * (c - (a+b)),

    and the additive menu (c-b, b, c) wins otherwise; ties take the first
    branch. Already-submodular menus pass through unchanged.
    """
    if m.n != 2:
        raise ValueError("submodularize2 is defined for 2-item menus")
    branch, out = _submodularize(m, d1, d2)
    base, rev = expected_revenues([m, out], product([d1, d2]))
    return _certificate(branch, m, [out], base, [rev])


def _submodularize(m: Menu, d1: SingleItemDistribution,
                   d2: SingleItemDistribution) -> Tuple[str, Menu]:
    """The branch and the output menu of `submodularize2` on m, unscored."""
    a, b, c = m.prices
    if c <= a + b:
        return "already-submodular", m
    swapped = a > b
    if swapped:
        d1, a, b = d2, b, a
    lhs = d1.prob_in(a, c - b) * a
    rhs = d1.tail(c - b) * (c - (a + b))
    if lhs >= rhs:
        branch, (x, y, z) = "item-prices", (a, b, a + b)
    else:
        branch, (x, y, z) = "bundle-margin", (c - b, b, c)
    return branch, menu2(y, x, z) if swapped else menu2(x, y, z)


def symmetrize2(m: Menu, f: SingleItemDistribution) -> ConstructionCertificate:
    """Replace an asymmetric 2-item menu by a symmetric one that earns at least
    as much when both items are drawn i.i.d. from f.

    A symmetric menu is its own candidate ("identity"). Any other menu is
    normalized and, if supermodular, submodularized first; a working menu
    that comes out symmetric is the one candidate ("normalized-symmetric").
    Otherwise, with a < b <= c <= a+b, the branches are:

      * c <= 2a: the better of (a,a,c) and (b,b,c); their revenues average to
        the asymmetric menu's revenue exactly, which is asserted.
      * c > 2a and 2a*Pr[a <= v < c-a] >= (c-2a)*Pr[v >= c-a]: the better of
        (b,b,c) and (a,a,2a).
      * c > 2a otherwise: the better of (b,b,c) and (c-a,c-a,2c-2a).

    The candidates depend only on the prices and on f, so the input menu,
    the working menu and the candidates are scored in one call on the
    product f x f. A submodularized working menu is certified from that
    call too: its input, the normalized menu, earns what m earns (normalize
    keeps every buyer's payment), and relabeling the items keeps the
    revenue under f x f.
    """
    if m.n != 2:
        raise ValueError("symmetrize2 is defined for 2-item menus")
    work, sub = m, None
    symmetric = m.prices[0] == m.prices[1]
    if not symmetric:
        work = normalize(m)
        a, b, c = work.prices
        if c > a + b:
            sub = (work, *_submodularize(work, f, f))
            a, b, c = sub[2].prices
        work = menu2(min(a, b), max(a, b), c)
    a, b, c = work.prices
    if a == b:
        branch = "identity" if symmetric else "normalized-symmetric"
        cands = [work]
    elif c <= 2 * a:
        branch, cands = "c<=2a", [menu2(a, a, c), menu2(b, b, c)]
    elif 2 * a * f.prob_in(a, c - a) >= (c - 2 * a) * f.tail(c - a):
        branch, cands = "c>2a-low", [menu2(b, b, c), menu2(a, a, 2 * a)]
    else:
        branch, cands = "c>2a-high", [menu2(b, b, c), menu2(c - a, c - a, 2 * (c - a))]

    base_rev, work_rev, *revs = expected_revenues([m, work, *cands], product([f, f]))
    if sub is not None:
        normalized, sub_branch, out = sub
        _certificate(sub_branch, normalized, [out], base_rev, [work_rev])
    if branch == "c<=2a" and revs[0] + revs[1] != 2 * work_rev:
        raise CertificateError(
            f"averaging identity failed for {work.prices}: "
            f"{revs[0]} + {revs[1]} != 2 * {work_rev}")
    if len(revs) == 2 and revs[0] + revs[1] < 2 * work_rev:
        raise CertificateError(
            f"branch {branch!r}: {cands[0].prices} + {cands[1].prices} earn "
            f"{revs[0]} + {revs[1]} < twice the revenue of {work.prices}")
    # The chain normalize -> submodularize -> symmetrize may only gain revenue,
    # so certify against the original menu.
    return _certificate(branch, m, cands, base_rev, revs)


def three_halves_decomposition(m: Menu) -> Tuple[Menu, Menu]:
    """Split a strictly supermodular 2-item menu into an additive menu and a
    bundle-only menu at price 2*c - a - b; for every joint distribution the
    input's revenue is at most the additive revenue plus half the bundle-only
    revenue.
    """
    if m.n != 2:
        raise ValueError("three_halves_decomposition is defined for 2-item menus")
    a, b, c = m.prices
    if c <= a + b:
        raise ValueError(f"menu {m.prices} is not strictly supermodular")
    bundle_price = 2 * c - a - b
    additive = menu2(a, b, a + b)
    bundle_only = menu2(bundle_price, bundle_price, bundle_price)
    return additive, bundle_only
