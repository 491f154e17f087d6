"""The values a suite keeps for the length of one run can fail a case.

``suite_dual`` and ``suite_coalgebra`` compute some check-side values once
per run: the σ reference's placed terms and projected legs, the grafts of
each basis pair, and each pair's split square.  Each test below breaks one
of them the way a wrong key would, and asserts that the suite then records
failures in the family that reads it, and none with the right key.
"""

from __future__ import annotations

import pytest

from forestshuffle import suites
from forestshuffle.dual import dual_oracle, graft_leaves, graft_linear
from forestshuffle.sampling import default_alphabet, forests_up_to
from forestshuffle.suites import SuiteConfig, run_suite


def _failed_families(suite: str, max_degree: int = 4) -> dict[str, int]:
    (report,) = run_suite(suite, SuiteConfig(max_degree=max_degree, seed=0))
    counts: dict[str, int] = {}
    for failure in report.failures:
        counts[failure.case] = counts.get(failure.case, 0) + 1
    return counts


def _keyed_on_first_argument(target):
    """``suites._tabled`` with the table of ``target`` keyed on its first
    argument alone; every other table keeps its key."""
    real = suites._tabled

    def tabled(fn, table):
        if fn is not target:
            return real(fn, table)

        def once(first, *rest):
            if (hit := table.get(first)) is None:
                hit = table[first] = fn(first, *rest)
            return hit

        return once

    return tabled


@pytest.mark.parametrize("suite, max_degree", [("dual", 4), ("dual", 5), ("coalgebra", 4)])
def test_the_right_keys_fail_no_case(suite, max_degree):
    assert _failed_families(suite, max_degree) == {}


def test_a_sigma_table_keyed_on_the_leg_alone_fails(monkeypatch):
    # a leg projects differently for each forest whose labels differ at
    # its positions; the distinct-atom forests are their own relabellings
    monkeypatch.setattr(suites, "_tabled", _keyed_on_first_argument(suites._projected_leg))
    assert _failed_families("dual") == {"oracle == σ-refined reciprocal formula (2 atoms)": 141}


# at every degree the samples draw trees of up to 3 vertices, so some
# grafting lands on the two leaves of a cherry: a leaf graft that ignores
# its scion then reads differently on the two sides of the check
@pytest.mark.parametrize(
    "op, max_degree, families",
    [
        (graft_linear, 4, {"tip-grafting associator symmetric in first two",
                           "tip-grafting associator symmetric in last two"}),
        (graft_leaves, 5, {"leaf-grafting associator symmetric in last two"}),
        (graft_leaves, 4, {"leaf-grafting associator symmetric in last two"}),
    ],
)
def test_a_graft_table_keyed_without_the_scion_fails(monkeypatch, op, max_degree, families):
    monkeypatch.setattr(suites, "_tabled", _keyed_on_first_argument(op))
    failed = set(_failed_families("dual", max_degree))
    assert failed and failed <= families


def test_the_first_split_square_reused_for_every_pair_fails(monkeypatch):
    real, first = suites._split_square, []

    def split_square(t1, t2):
        if not first:
            first.append(real(t1, t2))
        return first[0]

    monkeypatch.setattr(suites, "_split_square", split_square)
    failed = _failed_families("coalgebra")
    for weight in (0, 1, -1):
        assert failed[f"bialgebra compatibility (weight {weight})"] > 0
    assert {case.rpartition(" (")[0] for case in failed} <= {
        "bialgebra compatibility", "bialgebra compatibility random",
    }


def test_one_sigma_table_gives_the_values_of_a_fresh_one():
    forests = list(forests_up_to(5, default_alphabet(("a", "b"))))
    assert len(forests) == 601
    shared: dict = {}
    for f in forests:
        value = suites._sigma_refined_oracle(f, shared)
        assert value == suites._sigma_refined_oracle(f) == dual_oracle(f), f.key
    # the table holds far fewer placed-term lists than forests
    assert len([key for key in shared if len(key) == 1]) < len(forests) // 2
