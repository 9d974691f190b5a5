import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import menurev
from menurev import cli
from menurev import candidate_grid, search_optimal
from menurev.cli import main
from menurev.instances import load_distribution
from menurev.reproduce import ER_GAP_PARAMS, TARGETS, run_target

DATA = str(Path(menurev.__file__).parent / "data")


def test_eval_text(capsys):
    code = main(["eval", f"{DATA}/example4_menu.json", f"{DATA}/example4_distribution.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "6293/1000 (6.293)" in out


def test_eval_json(capsys):
    code = main(["eval", f"{DATA}/example6_menu.json", f"{DATA}/example6_eps10.json",
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["revenue"] == "61/25"
    assert doc["revenue_decimal"] == "2.44"
    assert doc["sale_probabilities"]["1,2"] == "1/100"
    assert doc == {"revenue": "61/25", "revenue_decimal": "2.44",
                   "sale_probabilities": {"none": "0", "1": "47/50", "2": "1/20",
                                          "1,2": "1/100"}}
    code = main(["eval", f"{DATA}/example4_menu.json", f"{DATA}/example4_distribution.json",
                 "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "revenue": "6293/1000", "revenue_decimal": "6.293",
        "sale_probabilities": {"none": "61/250", "1": "3/1000", "2": "3/500", "3": "3/500",
                               "1,2": "27/250", "1,3": "21/200", "2,3": "1/25",
                               "1,2,3": "61/125"}}


def test_eval_evaluates_the_distribution_once(monkeypatch, capsys):
    # one run of the buyer's choice rule, over the 125 atoms
    calls = []
    real = menurev.buyer._choose
    monkeypatch.setattr(menurev.buyer, "_choose", lambda n, prices, columns, unit: calls.append(
        len(next(iter(columns.values())))) or real(n, prices, columns, unit))
    assert main(["eval", f"{DATA}/example4_menu.json",
                 f"{DATA}/example4_distribution.json"]) == 0
    assert calls == [125]
    assert "6293/1000 (6.293)" in capsys.readouterr().out


def test_eval_bad_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"items": 1, "kind": "joint", "atoms": ['
                   '{"values": ["1"], "prob": "1/2"}, {"values": ["2"], "prob": "1/3"}]}')
    code = main(["eval", f"{DATA}/example6_menu.json", str(bad)])
    assert code == 2
    assert "mass 5/6 != 1" in capsys.readouterr().err


@pytest.mark.parametrize("atoms, where", [
    ('{"values": ["-1"], "prob": "1/2"}',
     "distribution.atoms[1].values[0]: must be nonnegative, got -1"),
    ('{"values": ["1", "2"], "prob": "1/2"}',
     "distribution.atoms[1].values: valuation has 2 entries, expected 1"),
    ('{"values": ["2"], "prob": "1/3"}', "distribution.atoms: mass 5/6 != 1"),
], ids=["negative-value", "valuation-length", "mass"])
def test_eval_joint_atom_fault_exit_2(tmp_path, capsys, atoms, where):
    bad = tmp_path / "bad.json"
    bad.write_text('{"items": 1, "kind": "joint", "atoms": ['
                   f'{{"values": ["1"], "prob": "1/2"}}, {atoms}]}}')
    assert main(["eval", f"{DATA}/example6_menu.json", str(bad)]) == 2
    assert f"error: {where}\n" in capsys.readouterr().err


def test_eval_menu_price_fault_names_its_bundle(tmp_path, capsys):
    bad = tmp_path / "menu.json"
    bad.write_text('{"items": 2, "prices": {"1": "1", "2": "2", "1,2": "-3"}}')
    assert main(["eval", str(bad), f"{DATA}/example6_eps10.json"]) == 2
    assert capsys.readouterr().err == "error: menu.prices['1,2']: must be nonnegative, got -3\n"


@pytest.mark.parametrize("argv, message", [
    (["eval", f"{DATA}/example6_menu.json", f"{DATA}/example4_distribution.json"],
     "menu has 2 items but distribution has 3"),
    (["plot", f"{DATA}/example4_menu.json"], "region plots require a 2-item menu"),
], ids=["eval", "plot"])
def test_item_count_faults_name_menu_items(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: menu.items: {message}\n"


def test_eval_top_level_list_exit_2(tmp_path, capsys):
    bad = tmp_path / "menu.json"
    bad.write_text('[{"items": 2}]')
    assert main(["eval", str(bad), f"{DATA}/example6_eps10.json"]) == 2
    assert "menu: top-level value must be an object" in capsys.readouterr().err


def test_eval_missing_file_exit_2(capsys):
    assert main(["eval", "nope.json", "also-nope.json"]) == 2


@pytest.mark.parametrize("case, where", [
    ("directory", "{tmp}: cannot read: Is a directory"),
    ("not-utf8", "{tmp}/menu.json: not UTF-8 text"),
    ("out-missing-dir", "--out: cannot write {tmp}/missing/out.txt"),
], ids=["directory", "not-utf8", "out-missing-dir"])
def test_path_errors_exit_2_and_name_the_path(tmp_path, capsys, case, where):
    menu, out = f"{DATA}/example6_menu.json", []
    if case == "directory":
        menu = str(tmp_path)
    elif case == "not-utf8":
        menu = str(tmp_path / "menu.json")
        (tmp_path / "menu.json").write_bytes(b'{"items": "\xb0"}')
    else:
        out = ["--out", str(tmp_path / "missing" / "out.txt")]
    assert main(["eval", menu, f"{DATA}/example6_eps10.json", *out]) == 2
    assert f"error: {where.format(tmp=tmp_path)}" in capsys.readouterr().err


def test_search_csv(capsys):
    code = main(["search", f"{DATA}/example5_eps100.json",
                 "--constraint", "unrestricted", "--constraint", "submodular",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("constraint,menu,revenue")
    assert lines[1].startswith("unrestricted,4 4 104,6,6,")
    assert lines[2].startswith("submodular,4 4 8,102/25,4.08,")
    assert lines[0].split(",")[4:6] == ["menus_examined", "menus_skipped"]
    assert lines[1].split(",")[4:6] == ["54", "30"]
    assert lines[2].split(",")[4:6] == ["32", "13"]


def test_search_text_reports_skipped(capsys):
    code = main(["search", f"{DATA}/example5_eps100.json", "--constraint", "submodular"])
    out = capsys.readouterr().out
    assert code == 0
    assert "32 menus examined (13 skipped by the revenue bound)" in out
    assert "items exchangeable, only ascending single prices searched" in out


def test_search_text_has_no_exchangeable_note_for_posted_prices(capsys):
    # additive menus are searched as posted prices, with no blocks to restrict
    code = main(["search", f"{DATA}/example5_eps100.json", "--constraint", "additive"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("additive: revenue 102/25 (4.08) at menu (4, 4, 8); 9 menus examined")
    assert "exchangeable" not in out


def test_search_json_deterministic(capsys):
    args = ["search", f"{DATA}/example6_eps10.json", "--constraint", "symmetric",
            "--format", "json"]
    main(args)
    first = json.loads(capsys.readouterr().out)
    main(args)
    second = json.loads(capsys.readouterr().out)
    for doc in (first, second):
        for row in doc:
            row.pop("wall_time_s")
            assert set(row.pop("stages")) == {"mask", "evaluate", "rescore", "verify"}
    assert first == second
    assert first[0]["revenue"] == "21/10"
    assert 0 <= first[0]["skipped"] <= first[0]["menus_examined"]


def test_search_posted_prices_on_a_grid_too_large_for_blocks(capsys):
    # example 6 (eps 1/100) on its integer grid: the unrestricted search
    # would list 50,015,001 blocks and exits 2; the additive one is posted
    # prices, one per item, and answers
    doc = f"{DATA}/example6_eps100.json"
    assert main(["search", doc, "--grid", "integer", "--constraint", "unrestricted"]) == 2
    assert "candidate grid too large" in capsys.readouterr().err
    assert main(["search", doc, "--grid", "integer", "--constraint", "additive",
                 "--format", "json"]) == 0
    row, = json.loads(capsys.readouterr().out)
    assert (row["menus_examined"], row["skipped"], row["rescored"]) == (100_020_001, 0, 0)
    assert row["menu"] == ["10000", "10000", "20000"] and row["revenue"] == "2"


def test_search_integer_grid_rejects_fractional(tmp_path, capsys):
    frac = tmp_path / "frac.json"
    frac.write_text('{"items": 1, "kind": "joint", "atoms": ['
                    '{"values": ["1/2"], "prob": "1"}]}')
    code = main(["search", str(frac), "--grid", "integer"])
    assert code == 2


@pytest.mark.parametrize("items", [0, 17])
@pytest.mark.parametrize("kind", ["product", "joint"])
def test_search_item_count_out_of_range_exit_2(tmp_path, capsys, items, kind):
    # the count is checked before the marginals or atoms are read
    doc = tmp_path / "dist.json"
    doc.write_text(json.dumps({"items": items, "kind": kind, "marginals": [[["1", "1"]]] * items,
                               "atoms": [{"values": ["1"] * items, "prob": "1"}]}))
    assert main(["search", str(doc)]) == 2
    err = capsys.readouterr().err
    assert f"distribution.items: item count must be in 1..16, got {items}" in err


@pytest.mark.parametrize("doc, where", [
    ('{"grid": {}}', "grid: missing required field 'prices'"),
    ('[["1", "2"]]', "grid: top-level value must be an object"),
    ('{"prices": {"x": ["1"], "1": ["1"], "2": ["1"], "1,2": ["2"]}}', "grid.prices['x']"),
    ('{"prices": {"1": ["1", "4"], "2": ["1", "4"], "1,2": "12"}}', "grid.prices['1,2']"),
    ('{"prices": {"1": ["-1"], "2": ["1"], "1,2": ["2"]}}',
     "error: grid.prices['1'][0]: must be nonnegative, got -1"),
    ('{"prices": {"1": [], "2": ["1"], "1,2": ["2"]}}',
     "error: grid.prices['1']: expected a nonempty list of prices"),
], ids=["no-prices", "top-level-list", "bad-bundle-key", "prices-not-list", "negative-price",
        "empty-prices"])
def test_search_bad_grid_file_exit_2(tmp_path, capsys, doc, where):
    grid = tmp_path / "grid.json"
    grid.write_text(doc)
    code = main(["search", f"{DATA}/example5_eps100.json", "--grid", "file",
                 "--grid-file", str(grid)])
    assert code == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--grid", "file"], "--grid-file: required when --grid file is used"),
    (["--grid-file", "GRID"], "--grid-file: read only with --grid file"),
    (["--grid", "support-sums", "--grid-file", "GRID"], "--grid-file: read only with --grid file"),
    (["--grid", "integer", "--grid-file", "GRID"], "--grid-file: read only with --grid file"),
], ids=["file-without-grid-file", "grid-file-alone", "support-sums", "integer"])
def test_search_grid_file_only_with_grid_file_exit_2(tmp_path, capsys, args, message):
    # the file's grid {1} sells at revenue 1; the support-sums grid {1, 3} at 3/2
    dist = tmp_path / "dist.json"
    dist.write_text('{"items": 1, "kind": "joint", "atoms": ['
                    '{"values": ["1"], "prob": "1/2"}, {"values": ["3"], "prob": "1/2"}]}')
    grid = tmp_path / "grid.json"
    grid.write_text('{"prices": {"1": ["1"]}}')
    assert main(["search", str(dist), "--grid", "file", "--grid-file", str(grid),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["revenue"] == "1"
    assert main(["search", str(dist), *(str(grid) if a == "GRID" else a for a in args)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_search_grid_file_matches_explicit_grid(tmp_path, capsys):
    prices = {"1": ["0", "4", "100"], "2": ["0", "4", "100"], "1,2": ["4", "8", "104", "200"]}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"prices": prices}))
    assert main(["search", f"{DATA}/example5_eps100.json", "--grid", "file",
                 "--grid-file", str(grid), "--max-price", "104", "--format", "json"]) == 0
    got, = json.loads(capsys.readouterr().out)
    dist = load_distribution("example5_eps100")
    explicit = {tuple(int(i) for i in key.split(",")): ps for key, ps in prices.items()}
    want = search_optimal(dist, "unrestricted",
                          candidate_grid(dist, "explicit", explicit=explicit, max_price=104))
    want = want.to_json_dict()
    for doc in (got, want):
        del doc["wall_time_s"], doc["stages"]
    assert got == want
    assert got["grid"] == "explicit" and got["revenue"] == "6"


def test_reproduce_pass_target(capsys):
    code = main(["reproduce", "w-constant"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_reproduce_known_discrepancy_fails(capsys):
    code = main(["reproduce", "example-5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL example-5: submodular search upper bound" in out
    assert out.count("PASS") == 6


EXAMPLE7_JSON = """\
[
  {
    "actual": "1152/1187",
    "check": "truthful utility at (46,80)",
    "expected": "1152/1187",
    "note": "",
    "ok": true,
    "target": "example-7"
  },
  {
    "actual": "27243584/15498659",
    "check": "two-pick deviation beats truthful",
    "expected": "> 1152/1187",
    "note": "",
    "ok": true,
    "target": "example-7"
  },
  {
    "actual": "1.7578026589268143",
    "check": "false-name deviation near 2-decimal reference",
    "expected": "within 0.01 of 1.46",
    "note": "exact two-pick utility is 27243584/15498659 ~ 1.7578; the 2-decimal reference follows from reusing the first pick's item-1 probability for both picks",
    "ok": false,
    "target": "example-7"
  },
  {
    "actual": "313420544/170485249",
    "check": "best deviation beats truthful",
    "expected": "> 1152/1187",
    "note": "",
    "ok": true,
    "target": "example-7"
  },
  {
    "actual": "30614162731/440673750",
    "check": "LP revenue equals menu expected payment",
    "expected": "30614162731/440673750",
    "note": "",
    "ok": true,
    "target": "example-7"
  }
]
"""


def test_reproduce_example7_json_is_pinned(capsys):
    # the whole report, byte for byte: the deviation rows read the exact
    # utilities, and the 1.46 row fails on the exact two-pick utility
    assert main(["reproduce", "example-7", "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert out == EXAMPLE7_JSON
    rows = {row["check"]: row for row in json.loads(out)}
    assert rows["two-pick deviation beats truthful"]["actual"] == "27243584/15498659"
    known = rows["false-name deviation near 2-decimal reference"]
    assert not known["ok"] and known["actual"] == repr(27243584 / 15498659)
    assert [row["check"] for row in rows.values() if not row["ok"]] == [known["check"]]


def test_er_gap_target_discretizes_each_level_once(monkeypatch):
    # the cap sweep's last level is the report's own, so the target takes
    # its brev from the report; the companion's distribution comes from its
    # grid, so nothing calls er_discretize
    from menurev import continuous
    levels = []
    real = continuous._er_grid
    monkeypatch.setattr(continuous, "_er_grid",
                        lambda r, p: levels.append((p.cap, p.grid_points)) or real(r, p))
    monkeypatch.setattr(continuous, "er_discretize", None)
    rows = run_target("er-gap")
    assert all(row.ok for row in rows)
    assert sorted(levels) == [(1e2, 100), (1e2, 300), (1e3, 1000), (1e4, 2400)]


def test_reproduce_passes_only_the_given_flags(monkeypatch, capsys):
    # every default is the registry's own: the CLI fills in none of them
    calls = []
    monkeypatch.setattr(cli, "run_target", lambda target, **kw: calls.append((target, kw)) or [])
    assert main(["reproduce", "example-7", "er-gap", "--grid-points", "300"]) == 0
    given = {"trials": None, "rule": None, "k": None,
             "params": dataclasses.replace(ER_GAP_PARAMS, grid_points=300)}
    assert calls == [("example-7", given), ("er-gap", given)]
    assert given["params"].cap == ER_GAP_PARAMS.cap
    calls.clear()
    assert main(["reproduce", "example-7", "--rule", "capped", "--k", "3"]) == 0
    assert calls == [("example-7", {"trials": None, "rule": "capped", "k": 3, "params": None})]


@pytest.mark.parametrize("targets, flags, message", [
    (["w-constant"], ["--cap", "5", "--k", "2", "--rule", "capped", "--trials", "3"],
     "--trials: read only by theorem-3-1-property, theorem-4-1-property, "
     "monotonicity-property, lemma-5-property"),
    (["w-constant", "example-7"], ["--cap", "5", "--k", "2"], "--cap: read only by er-gap"),
    (["example-4"], ["--grid-points", "300"], "--grid-points: read only by er-gap"),
    (["er-gap"], ["--rule", "capped"], "--rule: read only by example-7"),
    (["example-5", "lemma-5-property"], ["--k", "3"], "--k: read only by example-7"),
], ids=["trials", "cap", "grid-points", "rule", "k"])
def test_reproduce_rejects_flags_no_target_reads(monkeypatch, capsys, targets, flags, message):
    # a flag that none of the selected targets reads exits 2 before any target runs
    calls = []
    monkeypatch.setattr(cli, "run_target", lambda target, **kw: calls.append(target) or [])
    assert main(["reproduce", *targets, *flags]) == 2
    assert (calls, capsys.readouterr()) == ([], ("", f"error: {message}\n"))
    assert main(["reproduce", "all", *flags]) == 0
    assert calls == list(TARGETS)


@pytest.mark.parametrize("argv, message", [
    (["reproduce", "er-gap", "--grid-points", "50"], "error: --grid-points: grid_points must be at least 100"),
    (["reproduce", "er-gap", "--cap", "-3"], "error: --cap: cap must be positive"),
    (["reproduce", "example-7", "--k", "0"], "argument --k: invalid choice: 0 (choose from 1, 2, 3)"),
    (["reproduce", "example-7", "--k", "4"], "argument --k: invalid choice: 4 (choose from 1, 2, 3)"),
    (["search", f"{DATA}/example5_eps100.json", "--max-price", "-1"],
     "error: --max-price: must be nonnegative, got -1"),
], ids=["grid-points", "cap", "k-0", "k-4", "max-price"])
def test_flag_faults_name_the_flag(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own choices check
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and message in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(menurev.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "menurev", "reproduce", "w-constant",
                           "--format", "json"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [(r["target"], r["ok"]) for r in rows] == [("w-constant", True)] * 2


def test_reproduce_unknown_target():
    with pytest.raises(SystemExit):
        main(["reproduce", "example-99"])
    with pytest.raises(ValueError, match="example-99"):
        run_target("example-99")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_reproduce_rejects_nonpositive_trials(trials, capsys):
    assert main(["reproduce", "theorem-3-1-property", "--trials", trials]) == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [("--cap", "cap must be positive"),
                                           ("--grid-points", "grid_points must be")])
def test_reproduce_rejects_zero_er_params(flag, message, capsys):
    assert main(["reproduce", "er-gap", flag, "0"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["inf", "nan"])
def test_reproduce_rejects_nonfinite_er_cap(cap, capsys):
    assert main(["reproduce", "er-gap", "--cap", cap, "--grid-points", "100"]) == 2
    assert f"cap must be finite, got {cap}" in capsys.readouterr().err


def test_plot_svg(tmp_path):
    out = tmp_path / "regions.svg"
    code = main(["plot", f"{DATA}/example5_menu.json", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.count("<polygon") == 4


def test_plot_ascii(capsys):
    code = main(["plot", f"{DATA}/example6_menu.json", "--ascii"])
    out = capsys.readouterr().out
    assert code == 0
    assert "supermodular" in out


def test_plot_rejects_three_items(capsys):
    code = main(["plot", f"{DATA}/example4_menu.json"])
    assert code == 2
