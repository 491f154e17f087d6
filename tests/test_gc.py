"""The library makes no reference cycles, and its public entry points pause
the cyclic garbage collector and restore its prior state."""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from forestshuffle.coalgebra import trunk_coproduct
from forestshuffle.dual import admissible_families, dual_combinatorial, dual_oracle, dual_recursive
from forestshuffle.forest import EMPTY, GuardExceeded, parse_forest, parse_tree
from forestshuffle.shuffle import diamond_product, forest_shuffle, star_product
from forestshuffle.suites import SuiteConfig, run_suite

F = parse_forest("a[b,c[a]] b")
G = parse_forest("c[a[b]] a")


@pytest.fixture
def collector_on():
    """The collector enabled for the test, and its state restored after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def test_library_is_cycle_free():
    # With the collector off and saving all it finds, a final collection
    # finds nothing: reference counting freed every object the library made.
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    saved = len(gc.garbage)
    try:
        run_suite("all", SuiteConfig(max_degree=4, samples=None, seed=0))
        for product in (forest_shuffle, star_product, diamond_product):
            product(F, G, 1)
        for dual in (dual_recursive, dual_combinatorial, dual_oracle):
            dual(F)
        admissible_families(parse_tree("a[b[c],b[a,c[a]]]"))
        trunk_coproduct(parse_forest("a[b[c,a]]"))
        gc.collect()
        garbage = gc.garbage[saved:]
        kinds = Counter(getattr(o, "__qualname__", type(o).__name__) for o in garbage)
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
        if was_enabled:
            gc.enable()
    assert not garbage, f"{len(garbage)} objects in reference cycles: {kinds.most_common(5)}"


def test_collector_back_on_after_a_raising_call(collector_on):
    with pytest.raises(ValueError):
        diamond_product(EMPTY, F)
    assert gc.isenabled()
    with pytest.raises(GuardExceeded):  # a chain of 17 vertices, past FAMILY_GUARD
        admissible_families(parse_tree("a[" * 16 + "a" + "]" * 16))
    assert gc.isenabled()


def test_admissible_families_pauses_the_collector(collector_on, monkeypatch):
    # at a threshold of one allocation, a collector left on would start a
    # collection while the families are enumerated
    import forestshuffle.dual as dual

    inside: list[bool] = []
    started: list[int] = []
    enumerate_families = dual._checked_families

    def marked(tree):
        inside.append(True)
        try:
            return enumerate_families(tree)
        finally:
            inside.pop()

    def record(phase: str, info: dict) -> None:
        if phase == "start" and inside:
            started.append(info["generation"])

    monkeypatch.setattr(dual, "_checked_families", marked)
    tree = parse_tree("a[b[c[a]],b[a,c[a,b]]]")
    thresholds = gc.get_threshold()
    gc.callbacks.append(record)
    gc.set_threshold(1)
    try:
        admissible_families(tree)
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(record)
    assert started == [] and gc.isenabled()


def test_collector_left_off_when_the_caller_turned_it_off(collector_on):
    gc.disable()
    forest_shuffle(F, G, 1)
    assert not gc.isenabled()


def test_no_collection_inside_a_suite(collector_on):
    starts: list[int] = []

    def record(phase: str, info: dict) -> None:
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        run_suite("shuffle", SuiteConfig(max_degree=3))
    finally:
        gc.callbacks.remove(record)
    assert starts == []
