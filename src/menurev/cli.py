"""Command-line interface: eval, search, reproduce, plot.

Exit codes: 0 on success, 1 when a reproduction check fails, 2 on input errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .buyer import sale_probabilities
from .model import normalize
from .randomized import COMBINATION_RULES, MAX_FALSE_NAME_PICKS
from .rational import ParseError, decimal_with_flag, format_rational, parse_nonnegative
from .regions import region_partition_2, render_ascii, render_svg
from .reproduce import _REGISTRY, ER_GAP_PARAMS, TARGETS, run_target
from .search import CONSTRAINTS, SearchError, candidate_grid, search_optimal
from .serialize import bundle_key, dumps, parse_distribution, parse_grid, parse_menu


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(path, f"cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not UTF-8 text: {exc.reason} at offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"malformed JSON: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError("--out", f"cannot write {out}: {exc.strerror}") from None


def cmd_eval(args) -> int:
    menu = parse_menu(_read_json(args.menu))
    dist = parse_distribution(_read_json(args.distribution))
    if menu.n != dist.n:
        raise ParseError("menu.items", f"menu has {menu.n} items but distribution has {dist.n}")
    sales = sale_probabilities(menu, dist)
    revenue = sum((menu.price(b) * p for b, p in sales.items() if b), Fraction(0))
    if args.format == "json":
        doc = {
            "revenue": format_rational(revenue),
            "revenue_decimal": decimal_with_flag(revenue),
            "sale_probabilities": {
                (bundle_key(b) if b else "none"): format_rational(p)
                for b, p in sales.items()
            },
        }
        _emit(dumps(doc), args.out)
    else:
        lines = [f"expected revenue: {revenue} ({decimal_with_flag(revenue)})"]
        for b, p in sales.items():
            label = bundle_key(b) if b else "none"
            lines.append(f"  sells {{{label}}} with probability {p}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_search(args) -> int:
    dist = parse_distribution(_read_json(args.distribution))
    max_price = None if args.max_price is None else parse_nonnegative(args.max_price, "--max-price")
    if args.grid == "file":
        if not args.grid_file:
            raise ParseError("--grid-file", "required when --grid file is used")
        explicit = parse_grid(_read_json(args.grid_file), dist.n)
        grid = candidate_grid(dist, "explicit", explicit=explicit, max_price=max_price)
    else:
        if args.grid_file is not None:
            raise ParseError("--grid-file", "read only with --grid file")
        mode = "integer-grid" if args.grid == "integer" else "support-sums"
        grid = candidate_grid(dist, mode, max_price=max_price)
    constraints = args.constraint or ["unrestricted"]
    results = [search_optimal(dist, c, grid) for c in constraints]
    if args.format == "json":
        doc = [r.to_json_dict() for r in results]
        _emit(dumps(doc), args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["constraint", "menu", "revenue", "revenue_decimal",
                         "menus_examined", "menus_skipped", "wall_time_s"])
        for r in results:
            writer.writerow([r.constraint, " ".join(format_rational(p) for p in r.best.prices),
                             format_rational(r.revenue), decimal_with_flag(r.revenue),
                             r.examined, r.skipped, f"{r.elapsed:.6f}"])
        _emit(buf.getvalue(), args.out)
    else:
        lines = []
        for r in results:
            menu_txt = ", ".join(format_rational(p) for p in r.best.prices)
            lines.append(f"{r.constraint}: revenue {r.revenue} "
                         f"({decimal_with_flag(r.revenue)}) at menu ({menu_txt}); "
                         f"{r.examined} menus examined ({r.skipped} skipped by the "
                         f"revenue bound) in {r.elapsed:.3f}s"
                         + ("; items exchangeable, only ascending single prices searched"
                            if r.exchangeable else ""))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# each `menurev reproduce` flag and the runner argument it sets
_REPRODUCE_FLAGS = (("--trials", "trials"), ("--cap", "params"), ("--grid-points", "params"),
                    ("--rule", "rule"), ("--k", "k"))


def cmd_reproduce(args) -> int:
    for flag, name in _REPRODUCE_FLAGS:
        if getattr(args, flag[2:].replace("-", "_")) is None:
            continue
        readers = [t for t in TARGETS if name in _REGISTRY[t][1]]
        if not set(readers) & set(args.target):
            raise ParseError(flag, f"read only by {', '.join(readers)}")
    params = None  # the registry's default unless --cap or --grid-points is given
    for flag, field in (("--cap", "cap"), ("--grid-points", "grid_points")):
        value = getattr(args, field)
        if value is not None:
            try:
                params = dataclasses.replace(params or ER_GAP_PARAMS, **{field: value})
            except ValueError as exc:
                raise ParseError(flag, str(exc)) from None
    failures = 0
    lines: List[str] = []
    rows_doc = []
    for target in args.target:
        rows = run_target(target, trials=args.trials, params=params,
                          rule=args.rule, k=args.k)
        for row in rows:
            if not row.ok:
                failures += 1
            lines.append(row.line(target))
            rows_doc.append({"target": target, "check": row.name, "ok": row.ok,
                             "expected": row.expected, "actual": row.actual,
                             "note": row.note})
    if args.format == "json":
        _emit(dumps(rows_doc), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def cmd_plot(args) -> int:
    menu = parse_menu(_read_json(args.menu))
    if menu.n != 2:
        raise ParseError("menu.items", "region plots require a 2-item menu")
    part = region_partition_2(normalize(menu))
    text = render_ascii(part) if args.ascii else render_svg(part)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="menurev",
        description="Revenue-optimal menus for an additive buyer: evaluate, "
                    "search, reproduce reference results, and plot regions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="expected revenue of a menu under a distribution")
    p_eval.add_argument("menu")
    p_eval.add_argument("distribution")
    p_eval.add_argument("--format", choices=["text", "json"], default="text")
    p_eval.add_argument("--out")
    p_eval.set_defaults(fn=cmd_eval)

    p_search = sub.add_parser("search", help="grid search for optimal menus")
    p_search.add_argument("distribution")
    p_search.add_argument("--constraint", action="append", choices=CONSTRAINTS)
    p_search.add_argument("--grid", choices=["integer", "support-sums", "file"],
                          default="support-sums")
    p_search.add_argument("--grid-file")
    p_search.add_argument("--max-price", type=int)
    p_search.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_search.add_argument("--out")
    p_search.set_defaults(fn=cmd_search)

    p_rep = sub.add_parser("reproduce", help="run reference checks (PASS/FAIL per row)")
    p_rep.add_argument("target", nargs="+", choices=list(TARGETS) + ["all"])
    p_rep.add_argument("--trials", type=int,
                       help="random instances per property target (default: the target's own)")
    p_rep.add_argument("--cap", type=float)
    p_rep.add_argument("--grid-points", type=int)
    p_rep.add_argument("--rule", choices=COMBINATION_RULES)
    p_rep.add_argument("--k", type=int, choices=range(1, MAX_FALSE_NAME_PICKS + 1))
    p_rep.add_argument("--format", choices=["text", "json"], default="text")
    p_rep.add_argument("--out")
    p_rep.set_defaults(fn=cmd_reproduce)

    p_plot = sub.add_parser("plot", help="render the valuation-space partition of a 2-item menu")
    p_plot.add_argument("menu")
    p_plot.add_argument("--ascii", action="store_true")
    p_plot.add_argument("--out")
    p_plot.set_defaults(fn=cmd_plot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "target", None) and "all" in args.target:
        args.target = list(TARGETS)
    try:
        return args.fn(args)
    except (ParseError, SearchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
