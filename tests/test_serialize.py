import json
import re
from fractions import Fraction as F

import pytest

from menurev import parse_distribution, parse_menu
from menurev.serialize import ParseError, parse_grid, parse_randomized_menu


def test_product_form_expands():
    doc = {"items": 2, "kind": "product",
           "marginals": [[["1", "1/2"], ["2", "1/2"]], [["1", "0.5"], ["2", "1/2"]]]}
    dist = parse_distribution(doc)
    assert len(dist.atoms) == 4
    assert all(p == F(1, 4) for _, p in dist.atoms)


def test_decimal_strings_parse_exactly():
    doc = {"items": 1, "kind": "joint",
           "atoms": [{"values": ["0.1"], "prob": "0.25"}, {"values": ["2"], "prob": "0.75"}]}
    dist = parse_distribution(doc)
    assert dist.atoms[0][0] == (F(1, 10),)
    assert dist.atoms[0][1] == F(1, 4)


def test_mass_error_reports_location():
    doc = {"items": 1, "kind": "joint",
           "atoms": [{"values": ["1"], "prob": "1/2"}, {"values": ["2"], "prob": "1/3"}]}
    with pytest.raises(ParseError, match=r"mass 5/6 != 1") as err:
        parse_distribution(doc)
    assert "atoms" in err.value.location


def test_negative_value_rejected():
    doc = {"items": 1, "kind": "joint", "atoms": [{"values": ["-1"], "prob": "1"}]}
    with pytest.raises(ParseError, match="nonnegative"):
        parse_distribution(doc)


@pytest.mark.parametrize("marginal, location, message", [
    ([["-1", "1"]], "distribution.marginals[0][0][0]", "must be nonnegative, got -1"),
    ([["1", "1/2"]], "distribution.marginals[0]", "mass 1/2 != 1"),
], ids=["negative-value", "mass"])
def test_marginal_fault_names_its_path_once(marginal, location, message):
    doc = {"items": 2, "kind": "product", "marginals": [marginal, [["1", "1"]]]}
    with pytest.raises(ParseError) as err:
        parse_distribution(doc)
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"


def _atom(values, prob="1/2"):
    return {"values": values, "prob": prob}


@pytest.mark.parametrize("atoms, location, message", [
    ([_atom(["1"]), _atom(["-1"])], "distribution.atoms[1].values[0]",
     "must be nonnegative, got -1"),
    ([_atom(["1"]), _atom(["1", "2"])], "distribution.atoms[1].values",
     "valuation has 2 entries, expected 1"),
    ([_atom(["1"]), _atom(["2"], "1/3")], "distribution.atoms", "mass 5/6 != 1"),
    ([_atom(["1"], "1"), _atom(["2"], "0")], "distribution.atoms[1].prob",
     "must be positive, got 0"),
], ids=["negative-value", "valuation-length", "mass", "zero-prob"])
def test_joint_atom_fault_names_its_path(atoms, location, message):
    with pytest.raises(ParseError) as err:
        parse_distribution({"items": 1, "kind": "joint", "atoms": atoms})
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"


def test_malformed_json_and_kind():
    with pytest.raises(ParseError, match="malformed"):
        parse_distribution("{not json")
    with pytest.raises(ParseError, match="kind"):
        parse_distribution({"items": 1, "kind": "weird", "atoms": []})


def test_menu_missing_and_unknown_bundles():
    with pytest.raises(ParseError, match="missing bundles"):
        parse_menu({"items": 2, "prices": {"1": "1", "2": "2"}})
    with pytest.raises(ParseError, match="comma-joined"):
        parse_menu({"items": 2, "prices": {"1": "1", "2": "2", "2,1": "3"}})


def test_empty_support_rejected():
    with pytest.raises(ParseError, match="nonempty"):
        parse_distribution({"items": 1, "kind": "joint", "atoms": []})
    with pytest.raises(ParseError, match="nonempty"):
        parse_distribution({"items": 1, "kind": "product", "marginals": [[]]})


_ENTRY = {"alloc": ["1/2", "1"], "pay": "3"}


@pytest.mark.parametrize("source, location, message", [
    ({"items": 2}, "randomized_menu", "missing required field 'entries'"),
    ({"items": 2, "entries": [{"pay": "1"}]}, "randomized_menu.entries[0]",
     "missing required field 'alloc'"),
    ({"items": 2, "entries": [_ENTRY, {"alloc": "1/2", "pay": "1"}]},
     "randomized_menu.entries[1].alloc", "expected a list"),
    ({"items": 2, "entries": [_ENTRY, ["1/2", "1"]]}, "randomized_menu.entries[1]",
     "expected an object"),
    ({"items": "2", "entries": []}, "randomized_menu.items", "must be an integer"),
    ({"items": 0, "entries": []}, "randomized_menu.items", r"must be in 1\.\.16, got 0"),
    ({"items": 17, "entries": []}, "randomized_menu.items", r"must be in 1\.\.16, got 17"),
    ({"items": 2, "entries": {"0": _ENTRY}}, "randomized_menu.entries", "expected a list"),
    ({"items": 2, "entries": [{"alloc": ["2", "0"], "pay": "1"}]},
     "randomized_menu.entries[0].alloc[0]", r"must lie in \[0, 1\], got 2"),
    ([_ENTRY], "randomized_menu", "top-level value must be an object"),
    ('{"items": 2, "entries": [', "randomized_menu", "malformed JSON"),
], ids=["no-entries", "no-alloc", "alloc-not-list", "entry-not-object", "items-not-int",
        "no-items", "too-many-items", "entries-not-list", "alloc-out-of-range", "top-level-list",
        "malformed"])
def test_randomized_menu_faults_name_their_path(source, location, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_randomized_menu(source)
    assert err.value.location == location
    assert str(err.value).startswith(f"{location}: ")


def test_randomized_menu_parses_text_and_objects():
    doc = {"items": 2, "entries": [_ENTRY]}
    menu = parse_randomized_menu(json.dumps(doc))
    assert menu == parse_randomized_menu(doc)
    assert menu.entries[1].allocation == (F(1, 2), F(1)) and menu.entries[1].payment == 3


_PATH_STEP = re.compile(r"\.(\w+)|\[(\d+)\]|\['([^']*)'\]")


def _resolve(doc, location):
    """The value at `location` in `doc`: the document name, then `.field`,
    `[index]` and `['key']` steps."""
    name = re.match(r"\w+", location).group()
    assert name in ("distribution", "menu", "grid", "randomized_menu"), location
    at, node = len(name), doc
    while at < len(location):
        step = _PATH_STEP.match(location, at)
        assert step, f"{location}: no path step at {location[at:]!r}"
        field, index, key = step.groups()
        node = node[int(index)] if index is not None else node[field if key is None else key]
        at = step.end()
    return node


def _marginals(first):
    return {"items": 2, "kind": "product", "marginals": [first, [["1", "1"]]]}


def _lottery(entry):
    return {"items": 2, "entries": [_ENTRY, entry]}


@pytest.mark.parametrize("parse, doc, bad", [
    (parse_distribution, _marginals([["1", "1/2"], ["-1", "1/2"]]), "-1"),
    (parse_distribution, _marginals([["1", "1/2"], ["2", "x"]]), "x"),
    (parse_distribution, _marginals([["1", "1/2"], ["2", "0"]]), "0"),
    (parse_distribution, {"items": 2, "kind": "joint",
                          "atoms": [_atom(["1", "2"]), _atom(["3", "-1"])]}, "-1"),
    (parse_distribution, {"items": 2, "kind": "joint",
                          "atoms": [_atom(["1", "2"]), _atom(["3", "4"], "-1/2")]}, "-1/2"),
    (parse_menu, {"items": 2, "prices": {"1": "1", "2": "2", "1,2": "-3"}}, "-3"),
    (lambda doc: parse_grid(doc, 2),
     {"prices": {"1": ["1"], "2": ["2", "1/0"], "1,2": ["3"]}}, "1/0"),
    (parse_randomized_menu, _lottery({"alloc": ["1/2", "3/2"], "pay": "1"}), "3/2"),
    (parse_randomized_menu, _lottery({"alloc": ["1/2", "a"], "pay": "1"}), "a"),
    (parse_randomized_menu, _lottery({"alloc": ["1/2", "1"], "pay": "-2"}), "-2"),
], ids=["marginal-value", "marginal-prob", "marginal-zero-prob", "joint-value", "joint-prob",
        "menu-price", "grid-price", "lottery-alloc", "lottery-alloc-text", "lottery-pay"])
def test_every_fault_location_resolves(parse, doc, bad):
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert _resolve(doc, err.value.location) == bad, err.value.location
