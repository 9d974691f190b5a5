"""Valuation-space partition induced by a 2-item menu, plus SVG/ASCII rendering.

`_purchase_regions` derives the purchase region of each option S (the empty
bundle included) from its definition: v(S) - p_S >= v(T) - p_T for every
other option T, strict where the buyer's tie-break ranks T above S. The
tie-break is a total order, so every valuation satisfies the rows of exactly
one region, the buyer's choice; the test suite checks this against the
readable reference `reference.choice` in `benchmark/reference.py` on dense
random grids including boundary points.

Every row's coefficients are -1, 0 or 1 and only the right-hand sides are
Fractions, so `RegionPartition2.regions_of` scales the right-hand sides and
a whole batch of points by one common multiple of their denominators and
tests each point with Python-int sums. It shares no choice logic with the
buyer's evaluator: only the check that coordinates are rationals and the
scaling rule `rational.over_common_denominator`, so `verify_against_buyer`
is an independent check of it. `polygons` clips the frame square by each
region's rows, taken as closed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .buyer import _scaled, batch_choice
from .model import Bundle, Menu, Valuation, all_bundles, is_normalized2

# A row (a, r, strict) means  sum_i a_i * v_i >= r, or > r when strict,
# with each a_i in {-1, 0, 1}.
_Row = Tuple[Tuple[int, ...], Fraction, bool]

_F0 = Fraction(0)
Point = Tuple[Fraction, Fraction]


def _purchase_regions(m: Menu) -> Tuple[Tuple[Bundle, Tuple[_Row, ...]], ...]:
    """(option, the rows of its purchase region) pairs, the options in the
    buyer's tie-break order: higher payment, then larger bundle, then the
    lexicographically smaller one. S's row for T is v(S) - p_S >= v(T) - p_T,
    strict where T ranks above S."""
    price = m.as_dict()
    price[()] = _F0
    options = sorted(price, key=lambda b: (-price[b], -len(b), b))
    items = range(1, m.n + 1)
    return tuple((s, tuple((tuple(int(i in s) - int(i in t) for i in items), price[s] - price[t], k < j)
                           for k, t in enumerate(options) if t != s))
                 for j, s in enumerate(options))


@dataclass(frozen=True)
class RegionPartition2:
    """Partition of the valuation plane into the four purchase regions.

    Boundary points belong to the neighboring region with the higher payment
    (then the larger bundle, then lexicographic order), matching the buyer's
    tie-breaking.
    """

    menu: Menu
    rows: Tuple[Tuple[Bundle, Tuple[_Row, ...]], ...]  # by `_purchase_regions`, hashable

    def region_of(self, v: Valuation) -> Bundle:
        return self.regions_of([v])[0]

    def regions_of(self, points: Sequence[Valuation]) -> List[Bundle]:
        """The region of each point: the one whose rows all hold at it.

        The right-hand sides and the coordinates are scaled by L, the lcm of
        their denominators, so every test is an integer sum and a compare; a
        strict row a.x > r becomes a.x >= r + 1. The regions are tried in
        the tie-break order, and as they partition the plane, the last one,
        the empty bundle, needs no test.
        """
        *tried, (last, _) = self.rows
        _, (xs, ys), rhs = _scaled(2, points, [r for _, rows in tried for _, r, _ in rows])
        rhs = iter(rhs)
        tests = [(b, [(a1, a2, next(rhs) + strict) for (a1, a2), _, strict in rows])
                 for b, rows in tried]
        out: List[Bundle] = []
        for x, y in zip(xs, ys):
            for bundle, rows in tests:
                if all(a1 * x + a2 * y >= r for a1, a2, r in rows):
                    out.append(bundle)
                    break
            else:
                out.append(last)
        return out

    def polygons(self, frame: Fraction) -> Dict[Bundle, List[Point]]:
        """Closed polygon outline of each region clipped to [0, frame]^2, by
        Sutherland-Hodgman over Fractions; repeated vertices are dropped."""
        square = [(_F0, _F0), (frame, _F0), (frame, frame), (_F0, frame)]
        out: Dict[Bundle, List[Point]] = {}
        rows = dict(self.rows)
        for bundle in ((),) + all_bundles(2):
            poly = square
            for (a1, a2), r, _ in rows[bundle]:
                side = [a1 * x + a2 * y - r for x, y in poly]
                clipped = []
                for p, q, sp, sq in zip(poly, poly[1:] + poly[:1], side, side[1:] + side[:1]):
                    if sp >= 0:
                        clipped.append(p)
                    if sp * sq < 0:
                        t = sp / (sp - sq)
                        clipped.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
                poly = list(dict.fromkeys(clipped))
            out[bundle] = poly
        return out


def region_partition_2(m: Menu) -> RegionPartition2:
    if m.n != 2:
        raise ValueError("region geometry is defined for 2-item menus")
    if not is_normalized2(m):
        raise ValueError("menu must be normalized (pair price >= each item price)")
    return RegionPartition2(m, _purchase_regions(m))


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


def _shape(m: Menu) -> str:
    """How the pair price compares with the sum of the item prices."""
    a, b, c = m.prices
    return "supermodular" if c > a + b else "submodular" if c < a + b else "additive"


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

    title = f"menu ({a}, {b}, {c}) - {_shape(part.menu)}"
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
    header = f"menu ({a}, {b}, {c})  [{_shape(part.menu)}]  frame [0, {frame}]^2"
    return header + "\n" + "\n".join(rows) + "\n"
