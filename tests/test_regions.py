import math
import random
from fractions import Fraction as F

import pytest

import reference
from menurev import menu2, regions
from menurev.instances import (
    random_fraction,
    random_menu,
    random_submodular_menu,
    random_supermodular_menu,
)
from menurev.regions import (
    region_partition_2,
    render_ascii,
    render_svg,
    verify_against_buyer,
)


def _sample_points(m, rng, count):
    a, b, c = m.prices
    specials = sorted({F(0), a, b, c, c - a, c - b, a + b})
    pts = [(x, y) for x in specials for y in specials if x >= 0 and y >= 0]
    hi = max(c, a + b, F(1)) * 2
    for _ in range(count):
        pts.append((random_fraction(rng, int(hi) + 1, 6), random_fraction(rng, int(hi) + 1, 6)))
    # points sliding along each boundary segment
    for x in specials:
        if x < 0:
            continue
        for t in range(8):
            y = hi * F(t, 8)
            pts.append((x, y))
            pts.append((y, x))
    return pts


def test_kinds():
    for prices, kind in (((15, 45, 80), "supermodular"), ((27, 70, 85), "submodular"),
                         ((2, 3, 5), "additive")):
        part = region_partition_2(menu2(*prices))
        assert render_ascii(part).splitlines()[0].split("  ")[1] == f"[{kind}]"
        assert f"<title>menu {prices} - {kind}</title>" in render_svg(part)


def test_partitions_hash_and_compare_by_value():
    # a frozen dataclass promises a hash; equal menus give equal partitions
    part = region_partition_2(menu2(2, 3, 5))
    again = region_partition_2(menu2(2, 3, 5))
    other = region_partition_2(menu2(2, 4, 5))
    assert part == again and part is not again and hash(part) == hash(again)
    assert part != other and len({part, again, other}) == 2
    assert {part: 1}[again] == 1


def test_requires_normalized_menu():
    with pytest.raises(ValueError, match="normalized"):
        region_partition_2(menu2(5, 1, 3))


def test_reference_points():
    supermod = region_partition_2(menu2(15, 45, 80))
    assert supermod.region_of((F(50), F(60))) == (1,)
    submod = region_partition_2(menu2(27, 70, 85))
    assert submod.region_of((F(27), F(0))) == (1,)  # boundary owned by the sale
    additive = region_partition_2(menu2(2, 3, 5))
    assert additive.region_of((F(2), F(3))) == (1, 2)
    assert additive.region_of((F(2), F(1))) == (1,)


def test_agreement_with_buyer_reference_menus(rng):
    # 10k points per menu, boundary segments included
    for m in (menu2(15, 45, 80), menu2(27, 70, 85), menu2(2, 3, 5)):
        part = region_partition_2(m)
        pts = _sample_points(m, rng, 10_000)
        assert len(pts) >= 10_000
        assert verify_against_buyer(part, pts) == []
    for m in (menu2(0, 0, 0), menu2(5, 5, 5), menu2(4, 4, 4)):
        part = region_partition_2(m)
        assert verify_against_buyer(part, _sample_points(m, rng, 400)) == []


def test_agreement_with_buyer_random_menus():
    rng = random.Random(20260809)
    total = 0
    for _ in range(60):
        a = random_fraction(rng, 20, 3)
        b = random_fraction(rng, 20, 3)
        c = max(a, b) + random_fraction(rng, 25, 3)
        part = region_partition_2(menu2(a, b, c))
        pts = _sample_points(part.menu, rng, 160)
        total += len(pts)
        assert verify_against_buyer(part, pts) == []
    assert total > 10_000


def test_svg_has_one_polygon_per_region():
    svg = render_svg(region_partition_2(menu2(15, 45, 80)))
    assert svg.count("<polygon") == 4
    assert "c-b" in svg and "c-a" in svg
    svg_sub = render_svg(region_partition_2(menu2(27, 70, 85)))
    assert svg_sub.count("<polygon") == 4


def test_ascii_shapes():
    art = render_ascii(region_partition_2(menu2(2, 3, 5)))
    assert "B" in art and "0" in art and "1" in art and "2" in art


@pytest.mark.parametrize("prices", [(15, 45, 80), (27, 70, 85), (2, 3, 5), (1, 2, 3)])
def test_ascii_cells_are_the_buyer_choice_at_their_midpoints(prices):
    m = menu2(*prices)
    art = render_ascii(region_partition_2(m)).splitlines()
    a, b, c = m.prices
    frame = max(a, b, c - a, c - b, F(1)) * F(5, 4)
    labels = {(): "0", (1,): "1", (2,): "2", (1, 2): "B"}
    assert len(art) == 25
    for j, row in enumerate(art[1:]):
        y = (23 - j + F(1, 2)) * frame / 24
        assert row == "".join(
            labels[reference.choice(m.as_dict(), ((i + F(1, 2)) * frame / 24, y))[0]]
            for i in range(24))


def _holds(row, v):
    """Whether v satisfies a row, in Fractions."""
    coefs, rhs, strict = row
    lhs = sum(a * x for a, x in zip(coefs, v))
    return lhs > rhs if strict else lhs >= rhs


def _row_oracle(rows, v):
    """The one region whose rows all hold at v; fails unless there is exactly one."""
    (region,) = [b for b, rs in rows if all(_holds(r, v) for r in rs)]
    return region


# two denominators whose product is past 2^63
_BIG = (F(1, 2 ** 61 - 1), F(1, 3 ** 40))


def _boundary_points(part, rng):
    """The grid of special coordinates (every region corner lies on it), points
    along every half-plane boundary, and both nudged by tiny amounts over
    denominators whose lcm is past 2^63."""
    a, b, c = part.menu.prices
    specials = sorted({F(0), a, b, c, c - a, c - b, a + b})
    pts = [(x, y) for x in specials for y in specials]
    hi = 2 * max(c, F(1))
    for _, rows in part.rows:
        for (a1, a2), rhs, _ in rows:
            for t in range(9):
                s = hi * F(t, 8)
                if a2:
                    pts.append((s, (rhs - a1 * s) / a2))
                if a1:
                    pts.append(((rhs - a2 * s) / a1, s))
    nudged = [(x + rng.choice((-1, 0, 1)) * rng.choice(_BIG),
               y + rng.choice((-1, 0, 1)) * rng.choice(_BIG)) for x, y in pts]
    return [(x, y) for x, y in pts + nudged if x >= 0 and y >= 0]


def test_regions_of_matches_buyer_and_half_plane_oracle():
    rng = random.Random(20261018)
    kinds = {}
    dens = set()
    for i in range(45):
        if i % 3 == 0:
            m = random_supermodular_menu(rng)
        elif i % 3 == 1:
            m = random_submodular_menu(rng)
        else:
            a, b = random_fraction(rng, 30, 5), random_fraction(rng, 30, 5)
            m = menu2(a, b, a + b)
        part = region_partition_2(m)
        kind = regions._shape(m)
        kinds[kind] = kinds.get(kind, 0) + 1
        pts = _boundary_points(part, rng)
        got = part.regions_of(pts)
        assert got == [_row_oracle(part.rows, v) for v in pts], m.prices
        assert got == [reference.choice(m.as_dict(), v)[0] for v in pts], m.prices
        assert [part.region_of(v) for v in pts[::25]] == got[::25]
        # the strict rows make the regions disjoint, so no order of trying them matters
        backward = regions.RegionPartition2(m, tuple(reversed(part.rows)))
        assert backward.regions_of(pts) == got, m.prices
        dens.update(x.denominator for v in pts for x in v)
    assert set(kinds) == {"supermodular", "submodular", "additive"}
    assert math.lcm(*dens) > 2 ** 63


def _shoelace(poly):
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]))) / 2


@pytest.mark.parametrize("prices", [(15, 45, 80), (27, 70, 85), (2, 3, 5), (0, 0, 0), (5, 5, 5),
                                    (0, 3, 3), (5, 1, 10), (F(7, 3), F(1, 2), F(11, 4))])
def test_polygons_tile_the_frame_and_hold_their_own_centroid(prices):
    m = menu2(*prices)
    part = region_partition_2(m)
    frame = regions._frame(part)
    polys = part.polygons(frame)
    assert list(polys) == [(), (1,), (2,), (1, 2)]
    assert sum(_shoelace(poly) for poly in polys.values()) == frame ** 2
    for bundle, poly in polys.items():
        assert len(set(poly)) == len(poly) >= 1
        assert all(0 <= x <= frame and 0 <= y <= frame for x, y in poly)
        if _shoelace(poly):
            center = regions._centroid(poly)
            assert part.region_of(center) == bundle
            assert reference.choice(m.as_dict(), center)[0] == bundle


@pytest.mark.parametrize("n", [1, 2, 3])
def test_purchase_region_rows_give_the_buyer_choice(n):
    rng = random.Random(20261020 + n)
    for _ in range(40):
        m = random_menu(rng, n, max_price=8)
        rows, table = regions._purchase_regions(m), m.as_dict()
        assert sorted(b for b, _ in rows) == sorted({(), *table})
        # integer points hit the ties between options, fractional ones the interiors
        pts = [tuple(F(rng.randint(0, 10)) for _ in range(n)) for _ in range(60)]
        pts += [tuple(random_fraction(rng, 30, 4) for _ in range(n)) for _ in range(60)]
        for v in pts:
            assert _row_oracle(rows, v) == reference.choice(table, v)[0], (m.prices, v)
