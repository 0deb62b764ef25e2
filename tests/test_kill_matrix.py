"""Kill matrix: every live derivative callback of every default-suite
transform, scaled by 1.01, is caught by the suite's own checks -- a failing
report or a raised error -- unless the pair is a listed equivalent mutant."""

import dataclasses

from equichk import identity_checker as ic
from equichk.errors import EquichkError
from equichk.transforms import MUTABLE_CALLBACKS

_SCALE = 1.01

# (default-suite entry index, callback) pairs that no check can see, with why.
# The table is exact: a listed pair that is caught fails too, so it shrinks
# as checks that read these callbacks land.
EQUIVALENT_MUTANTS = {
    # continuous symmetries: Y = 0 is set without reading dG/dy, and the
    # G-side second-order terms are declared zero
    **{(i, "dg_dy"): "symmetry: Y = 0 without dG/dy" for i in (4, 5, 6, 7)},
    # discrete entries: the fixed-point checks read dH/dtheta only
    **{(i, "dg_dy"): "no discrete check reads dG/dy" for i in (11, 12, 13)},
    # discrete entries have p = 0, so the array is empty and scaling it is a no-op
    **{(i, "dh_dlambda"): "p = 0: empty array" for i in (11, 12, 13)},
}


def _live_pairs():
    suite = ic.default_suite(positions=1)
    for index, entry in enumerate(suite.entries):
        if entry.transform is None:
            continue
        built = ic._build_entry(entry)
        for cb in MUTABLE_CALLBACKS:
            if getattr(built.transform, cb) is not None:
                yield suite.master_seed, index, built, cb


def _caught(master_seed, index, built, cb) -> bool:
    mutated = dataclasses.replace(
        built, entry=dataclasses.replace(built.entry, mutation={"callback": cb, "scale": _SCALE}))
    try:
        reports = ic._run_entry(master_seed, index, mutated)
    except EquichkError:
        return True
    return not all(r.passed for r in reports)


def test_kill_matrix_catches_every_live_mutant_outside_the_table():
    outcome = {(index, cb): _caught(seed, index, built, cb)
               for seed, index, built, cb in _live_pairs()}
    assert set(EQUIVALENT_MUTANTS) <= set(outcome), "table names a pair that is not live"
    survivors = {pair for pair, caught in outcome.items() if not caught}
    assert survivors - set(EQUIVALENT_MUTANTS) == set(), "mutants that no check catches"
    assert set(EQUIVALENT_MUTANTS) - survivors == set(), \
        "caught pairs still listed as equivalent: remove them from the table"

