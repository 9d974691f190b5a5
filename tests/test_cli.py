import json
from pathlib import Path

import pytest

import menurev
from menurev.cli import main
from menurev.reproduce import run_target

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


def test_eval_bad_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"items": 1, "kind": "joint", "atoms": ['
                   '{"values": ["1"], "prob": "1/2"}, {"values": ["2"], "prob": "1/3"}]}')
    code = main(["eval", f"{DATA}/example6_menu.json", str(bad)])
    assert code == 2
    assert "mass 5/6 != 1" in capsys.readouterr().err


def test_eval_top_level_list_exit_2(tmp_path, capsys):
    bad = tmp_path / "menu.json"
    bad.write_text('[{"items": 2}]')
    assert main(["eval", str(bad), f"{DATA}/example6_eps10.json"]) == 2
    assert "menu: top-level value must be an object" in capsys.readouterr().err


def test_eval_missing_file_exit_2(capsys):
    assert main(["eval", "nope.json", "also-nope.json"]) == 2


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


def test_search_integer_grid_rejects_fractional(tmp_path, capsys):
    frac = tmp_path / "frac.json"
    frac.write_text('{"items": 1, "kind": "joint", "atoms": ['
                    '{"values": ["1/2"], "prob": "1"}]}')
    code = main(["search", str(frac), "--grid", "integer"])
    assert code == 2


@pytest.mark.parametrize("doc, where", [
    ('{"grid": {}}', "grid: missing required field 'prices'"),
    ('[["1", "2"]]', "grid: top-level value must be an object"),
    ('{"prices": {"x": ["1"], "1": ["1"], "2": ["1"], "1,2": ["2"]}}', "grid.prices['x']"),
    ('{"prices": {"1": ["1", "4"], "2": ["1", "4"], "1,2": "12"}}', "grid.prices['1,2']"),
], ids=["no-prices", "top-level-list", "bad-bundle-key", "prices-not-list"])
def test_search_bad_grid_file_exit_2(tmp_path, capsys, doc, where):
    grid = tmp_path / "grid.json"
    grid.write_text(doc)
    code = main(["search", f"{DATA}/example5_eps100.json", "--grid", "file",
                 "--grid-file", str(grid)])
    assert code == 2
    assert where in capsys.readouterr().err


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
