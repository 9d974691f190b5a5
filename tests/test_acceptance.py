"""Acceptance suite: one test per reproduction target of `menurev.reproduce`,
run at the target's default seed and trial count, printing each row as
`menurev reproduce` does.

Two rows state reference values that exact recomputation contradicts (the
submodular-search bound 404/100 in example-5, and the two-pick deviation
constant 1.46 in example-7). They are kept as stated rather than loosened, so
those two tests fail with the exact computed values in the message. Every
other row is asserted first, so a new failure in either target reads
differently from the known one.
"""
import pytest

from menurev.reproduce import TARGETS, run_target

KNOWN_DISCREPANCIES = {
    ("example-5", "submodular search upper bound"),
    ("example-7", "false-name deviation near 2-decimal reference"),
}


@pytest.mark.parametrize("target", TARGETS)
def test_reproduction(target):
    rows = run_target(target)
    for row in rows:
        print(row.line(target))
    known = [row for row in rows if (target, row.name) in KNOWN_DISCREPANCIES]
    failed = [row.line(target) for row in rows if not row.ok and row not in known]
    assert not failed, failed
    for row in known:
        assert row.ok, f"{row.name}: got {row.actual}; {row.note}"
