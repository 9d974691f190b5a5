"""Valuation-space partition induced by a 2-item menu, plus SVG/ASCII rendering.

The four closed regions below are derived from the menu geometry alone; they
must agree pointwise with the buyer's choice (the readable reference is
`reference.choice` in `benchmark/reference.py`), which the test suite checks
on dense random grids including boundary points.

Every half-plane coefficient is -1, 0 or 1 and only the right-hand sides are
Fractions, so `RegionPartition2.regions_of` scales the right-hand sides and
a whole batch of points by one common multiple of their denominators and
tests each point with Python-int sums. It shares no choice logic with the
buyer's evaluator: only the check that coordinates are rationals and the
scaling rule `rational.over_common_denominator`, so `verify_against_buyer`
is an independent check of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .buyer import _coordinate_columns, batch_choice
from .model import Bundle, Menu, Valuation, all_bundles, is_normalized2
from .rational import over_common_denominator

# A half-plane constraint (a1, a2, op, rhs) means  a1*v1 + a2*v2  op  rhs,
# with a1, a2 in {-1, 0, 1} and op one of ">=", "<=".
HalfPlane = Tuple[int, int, str, Fraction]

_F0 = Fraction(0)
Point = Tuple[Fraction, Fraction]


def _hp(a1: int, a2: int, op: str, rhs) -> HalfPlane:
    return (a1, a2, op, Fraction(rhs))


@dataclass(frozen=True)
class RegionPartition2:
    """Partition of the nonnegative quadrant into the four purchase regions.

    Boundary points belong to the neighboring region with the higher payment
    (then the larger bundle, then lexicographic order), matching the buyer's
    tie-breaking.
    """

    menu: Menu
    kind: str  # "submodular" | "supermodular" | "additive"
    constraints: Dict[Bundle, Tuple[HalfPlane, ...]]

    def region_of(self, v: Valuation) -> Bundle:
        return self.regions_of([v])[0]

    def regions_of(self, points: Sequence[Valuation]) -> List[Bundle]:
        """The region of each point: the first region, in the tie-break
        order, whose half-planes all hold at it; () if none does.

        The right-hand sides and the coordinates are scaled by L, the lcm of
        their denominators, and each half-plane is turned into the form
        a1*x + a2*y >= r, so every test is an integer sum and a compare.
        """
        xs, ys = _coordinate_columns(2, points)
        price = self.menu.as_dict()
        price[()] = _F0
        order = sorted(self.constraints, key=lambda b: (-price[b], -len(b), b))
        size = len(xs)
        _, scaled = over_common_denominator(chain(
            xs, ys, (hp[3] for b in order for hp in self.constraints[b])))
        rhs = iter(scaled[2 * size:])  # zip takes from it only while b has half-planes
        tests = [(b, [(a1, a2, r) if op == ">=" else (-a1, -a2, -r)
                      for (a1, a2, op, _), r in zip(self.constraints[b], rhs)])
                 for b in order]
        out: List[Bundle] = []
        for x, y in zip(scaled[:size], scaled[size:2 * size]):
            for bundle, halves in tests:
                if all(a1 * x + a2 * y >= r for a1, a2, r in halves):
                    out.append(bundle)
                    break
            else:
                out.append(())
        return out

    def polygons(self, frame: Fraction) -> Dict[Bundle, List[Point]]:
        """Closed polygon outline of each region clipped to [0, frame]^2."""
        a, b, c = self.menu.prices
        h = frame

        def pt(x, y) -> Point:
            return (min(Fraction(x), h), min(Fraction(y), h))

        if self.kind == "supermodular":
            return {
                (): [pt(0, 0), pt(a, 0), pt(a, b), pt(0, b)],
                (1,): [pt(a, 0), pt(h, 0), pt(h, c - a), pt(c - b, c - a), pt(a, b)],
                (2,): [pt(0, b), pt(a, b), pt(c - b, c - a), pt(c - b, h), pt(0, h)],
                (1, 2): [pt(c - b, c - a), pt(h, c - a), pt(h, h), pt(c - b, h)],
            }
        if self.kind == "submodular":
            return {
                (): [pt(0, 0), pt(a, 0), pt(a, c - a), pt(c - b, b), pt(0, b)],
                (1,): [pt(a, 0), pt(h, 0), pt(h, c - a), pt(a, c - a)],
                (2,): [pt(0, b), pt(c - b, b), pt(c - b, h), pt(0, h)],
                (1, 2): [pt(c - b, h), pt(c - b, b), pt(a, c - a), pt(h, c - a), pt(h, h)],
            }
        return {
            (): [pt(0, 0), pt(a, 0), pt(a, b), pt(0, b)],
            (1,): [pt(a, 0), pt(h, 0), pt(h, b), pt(a, b)],
            (2,): [pt(0, b), pt(a, b), pt(a, h), pt(0, h)],
            (1, 2): [pt(a, b), pt(h, b), pt(h, h), pt(a, h)],
        }


def region_partition_2(m: Menu) -> RegionPartition2:
    if m.n != 2:
        raise ValueError("region geometry is defined for 2-item menus")
    if not is_normalized2(m):
        raise ValueError("menu must be normalized (pair price >= each item price)")
    a, b, c = m.prices
    if c > a + b:
        kind = "supermodular"
    elif c < a + b:
        kind = "submodular"
    else:
        kind = "additive"

    constraints: Dict[Bundle, Tuple[HalfPlane, ...]] = {
        (1, 2): (_hp(1, 1, ">=", c), _hp(1, 0, ">=", c - b), _hp(0, 1, ">=", c - a)),
        (1,): (_hp(1, 0, ">=", a), _hp(0, 1, "<=", c - a), _hp(-1, 1, "<=", b - a)),
        (2,): (_hp(0, 1, ">=", b), _hp(1, 0, "<=", c - b), _hp(1, -1, "<=", a - b)),
        (): (_hp(1, 0, "<=", a), _hp(0, 1, "<=", b), _hp(1, 1, "<=", c)),
    }
    return RegionPartition2(m, kind, constraints)


def verify_against_buyer(part: RegionPartition2, points: Sequence[Valuation]) -> List[Valuation]:
    """Return the points where the geometric region disagrees with the buyer's choice."""
    options = ((),) + all_bundles(2)
    chosen = batch_choice(part.menu, points)
    regions = part.regions_of(points)
    return [v for v, k, r in zip(points, chosen.options, regions) if r != options[k]]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_REGION_LABELS = {(): "0", (1,): "1", (2,): "2", (1, 2): "B"}
_REGION_COLORS = {(): "#f5f5f5", (1,): "#9ecae1", (2,): "#a1d99b", (1, 2): "#fdae6b"}
# the SVG plot's side in pixels, and the ASCII plot's side in cells
_SVG_WIDTH = 420
_ASCII_SIZE = 24


def _frame(part: RegionPartition2) -> Fraction:
    a, b, c = part.menu.prices
    hi = max(a, b, c - a, c - b, Fraction(1))
    return hi * Fraction(5, 4)


def _centroid(poly: List[Point]) -> Point:
    n = len(poly)
    return (sum(p[0] for p in poly) / n, sum(p[1] for p in poly) / n)


def render_svg(part: RegionPartition2) -> str:
    """Standalone SVG: one polygon per region, with the a / b / c-a / c-b marks."""
    frame = _frame(part)
    scale = Fraction(_SVG_WIDTH) / frame
    margin = 48
    total = _SVG_WIDTH + 2 * margin

    def sx(x: Fraction) -> float:
        return float(margin + x * scale)

    def sy(y: Fraction) -> float:
        return float(margin + _SVG_WIDTH - y * scale)

    parts: List[str] = []
    for bundle, poly in part.polygons(frame).items():
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in poly)
        parts.append(f'<polygon points="{pts}" fill="{_REGION_COLORS[bundle]}" '
                     f'stroke="black" stroke-width="1"/>')
        cx, cy = _centroid(poly)
        parts.append(f'<text x="{sx(cx):.2f}" y="{sy(cy):.2f}" text-anchor="middle" '
                     f'font-size="15">{_REGION_LABELS[bundle]}</text>')

    a, b, c = part.menu.prices
    marks = [("a", a, "x"), ("c-b", c - b, "x"), ("b", b, "y"), ("c-a", c - a, "y")]
    seen = set()
    for name, coord, axis in marks:
        if not (0 <= coord <= frame) or (axis, coord) in seen:
            continue
        seen.add((axis, coord))
        if axis == "x":
            parts.append(f'<line x1="{sx(coord):.2f}" y1="{sy(_F0):.2f}" '
                         f'x2="{sx(coord):.2f}" y2="{sy(_F0) + 6:.2f}" stroke="black"/>')
            parts.append(f'<text x="{sx(coord):.2f}" y="{sy(_F0) + 20:.2f}" '
                         f'text-anchor="middle" font-size="12">{name}</text>')
        else:
            parts.append(f'<line x1="{sx(_F0):.2f}" y1="{sy(coord):.2f}" '
                         f'x2="{sx(_F0) - 6:.2f}" y2="{sy(coord):.2f}" stroke="black"/>')
            parts.append(f'<text x="{sx(_F0) - 9:.2f}" y="{sy(coord) + 4:.2f}" '
                         f'text-anchor="end" font-size="12">{name}</text>')

    title = f"menu ({a}, {b}, {c}) - {part.kind}"
    key = (f'<text x="{margin}" y="{total - 12}" font-size="12">'
           f"0 = no sale, 1 = item 1, 2 = item 2, B = both</text>")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total}" height="{total}" '
        f'viewBox="0 0 {total} {total}">\n'
        f"<title>{title}</title>\n" + "\n".join(parts) + "\n" + key + "\n</svg>\n"
    )


def render_ascii(part: RegionPartition2) -> str:
    frame = _frame(part)
    cell = frame / _ASCII_SIZE
    mids = [((i + Fraction(1, 2)) * cell, (j + Fraction(1, 2)) * cell)
            for j in range(_ASCII_SIZE - 1, -1, -1) for i in range(_ASCII_SIZE)]
    labels = [_REGION_LABELS[r] for r in part.regions_of(mids)]
    rows = ["".join(labels[k:k + _ASCII_SIZE]) for k in range(0, len(labels), _ASCII_SIZE)]
    a, b, c = part.menu.prices
    header = f"menu ({a}, {b}, {c})  [{part.kind}]  frame [0, {frame}]^2"
    return header + "\n" + "\n".join(rows) + "\n"
