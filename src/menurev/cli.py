"""Command-line interface: eval, search, reproduce, plot.

Exit codes: 0 on success, 1 when a reproduction check fails, 2 on input errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional

from .buyer import expected_revenue, sale_probabilities
from .continuous import NumericParams
from .model import normalize
from .rational import decimal_with_flag, format_rational
from .regions import region_partition_2, render_ascii, render_svg
from .reproduce import TARGETS, run_target
from .search import CONSTRAINTS, SearchError, candidate_grid, search_optimal
from .serialize import ParseError, bundle_key, parse_distribution, parse_grid, parse_menu

_CONSTRAINT_CHOICES = list(CONSTRAINTS) + ["symmetric-submodular"]


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(path, "file not found")
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"malformed JSON: {exc}")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    menu = parse_menu(_read_json(args.menu))
    dist = parse_distribution(_read_json(args.distribution))
    revenue = expected_revenue(menu, dist)
    sales = sale_probabilities(menu, dist)
    if args.format == "json":
        doc = {
            "revenue": format_rational(revenue),
            "revenue_decimal": decimal_with_flag(revenue),
            "sale_probabilities": {
                (bundle_key(b) if b else "none"): format_rational(p)
                for b, p in sales.items()
            },
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"expected revenue: {revenue} ({decimal_with_flag(revenue)})"]
        for b, p in sales.items():
            label = bundle_key(b) if b else "none"
            lines.append(f"  sells {{{label}}} with probability {p}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_search(args) -> int:
    dist = parse_distribution(_read_json(args.distribution))
    if args.grid == "file":
        if not args.grid_file:
            raise ParseError("--grid-file", "required when --grid file is used")
        explicit = parse_grid(_read_json(args.grid_file), dist.n)
        grid = candidate_grid(dist, "explicit", explicit=explicit, max_price=args.max_price)
    else:
        mode = "integer-grid" if args.grid == "integer" else "support-sums"
        grid = candidate_grid(dist, mode, max_price=args.max_price)
    constraints = args.constraint or ["unrestricted"]
    results = [search_optimal(dist, c, grid) for c in constraints]
    if args.format == "json":
        doc = [r.to_json_dict() for r in results]
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["constraint", "menu", "revenue", "revenue_decimal",
                         "menus_examined", "wall_time_s"])
        for r in results:
            writer.writerow([r.constraint, " ".join(format_rational(p) for p in r.best.prices),
                             format_rational(r.revenue), decimal_with_flag(r.revenue),
                             r.examined, f"{r.elapsed:.6f}"])
        _emit(buf.getvalue(), args.out)
    else:
        lines = []
        for r in results:
            menu_txt = ", ".join(format_rational(p) for p in r.best.prices)
            lines.append(f"{r.constraint}: revenue {r.revenue} "
                         f"({decimal_with_flag(r.revenue)}) at menu ({menu_txt}); "
                         f"{r.examined} menus examined in {r.elapsed:.3f}s")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_reproduce(args) -> int:
    params = None
    if args.cap is not None or args.grid_points is not None:
        params = NumericParams(cap=1e4 if args.cap is None else args.cap,
                               grid_points=2400 if args.grid_points is None else args.grid_points)
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
        _emit(json.dumps(rows_doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def cmd_plot(args) -> int:
    menu = parse_menu(_read_json(args.menu))
    if menu.n != 2:
        raise ParseError("menu", "region plots require a 2-item menu")
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
    p_search.add_argument("--constraint", action="append", choices=_CONSTRAINT_CHOICES)
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
    p_rep.add_argument("--rule", choices=["capped", "independent"], default="independent")
    p_rep.add_argument("--k", type=int, default=2)
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
