"""What the verify sweeps prove: a table of mutants and the suites that kill them.

Each mutant replaces one function of pooling or measurement through
monkeypatch; a suite kills it when the sweep reports a failing trial.  A
mutant no suite kills is a named survivor, with the ROADMAP item whose
oracle check should kill it.  The table fails both ways: a killer that
stops killing, and a survivor that starts to die, each fail until the
table is updated.
"""

from dataclasses import replace
from math import factorial

import numpy as np
import pytest

from qpool import harness, measurement, pooling

TRIALS, DIMS, TOL, SEED = 2, (2, 3, 4), 1e-10, 0

SUITES = {
    "two": lambda: harness.verify_two_observer(TRIALS, DIMS, TOL, SEED),
    "commuting": lambda: harness.verify_commuting_reduction(TRIALS, DIMS, TOL, SEED),
    "three": lambda: harness.verify_three_observer(TRIALS, DIMS, TOL, SEED),
    "three diagonal": lambda: harness._sweep(TRIALS, DIMS, TOL, SEED, 3, True),
}


def _symmetric(outermost=slice(None), rescale=False, by_states=False):
    """pool_symmetric_multi with only the `outermost` observers of each subset
    summed (rescaled to the full count if rescale), or conjugating by the
    states instead of their roots."""

    def pool_symmetric_multi(states, norm_mode="trace"):
        arrs = pooling._matrices(states)
        roots = arrs if by_states else pooling._roots(arrs)
        level = arrs
        for js, rows in pooling._subset_levels(len(arrs)):
            k = js.shape[1]
            js, rows = js[:, outermost], rows[:, outermost]
            r = roots[js]
            level = (r @ level[rows] @ r).sum(axis=1) * (k / js.shape[1] if rescale else 1.0)
        return pooling._report(level[0], arrs, factorial(len(arrs)), "permutation-sum trace")

    return pool_symmetric_multi


def _ordered_reversed(states):
    """pool_ordered_multi with the roots nested in reverse order."""
    arrs = pooling._matrices(states)
    num = arrs[0]
    for r in pooling._roots(arrs)[:0:-1]:
        num = r @ num @ r
    return pooling._report(num, arrs, 1, "nested trace")


def _report_with(change):
    """pooling._report with the fields change(report, orderings) returns replaced."""
    original = pooling._report

    def report(num, arrs, orderings, what):
        r = original(num, arrs, orderings, what)
        # The ordered rule has one ordering, so n! - 1 divides by zero.
        with np.errstate(divide="ignore"):
            return replace(r, **change(r, orderings))

    return report


def _effect_not_its_root():
    """The update step of bare_update and of the chain, handed E^2 and its root E."""
    original = measurement._update
    return lambda e, s, r: original(e @ e, e, r)


# name -> (module, attribute, replacement factory, suites that kill it)
MUTANTS = {
    "symmetric sums only the first outermost observer": (
        pooling,
        "pool_symmetric_multi",
        lambda: _symmetric(outermost=slice(0, 1)),
        {"two", "commuting", "three diagonal"},
    ),
    "symmetric drops the last outermost observer, rescaled": (
        pooling,
        "pool_symmetric_multi",
        lambda: _symmetric(outermost=slice(0, -1), rescale=True),
        set(),
    ),
    "symmetric conjugates by the states": (
        pooling,
        "pool_symmetric_multi",
        lambda: _symmetric(by_states=True),
        {"two", "commuting", "three diagonal"},
    ),
    "compatibility divides by n! - 1": (
        pooling,
        "_report",
        lambda: _report_with(lambda r, n: {"compatibility": r.trace_norm / (n - 1)}),
        set(),
    ),
    "paper_norm lacks the factor n!": (
        pooling,
        "_report",
        lambda: _report_with(
            lambda r, n: {
                "paper_norm": r.paper_norm / n,
                "norm_discrepancy": abs(r.trace_norm - r.paper_norm / n),
            }
        ),
        {"two", "commuting", "three diagonal"},
    ),
    "ordered nests the roots in reverse": (
        pooling, "pool_ordered_multi", lambda: _ordered_reversed, {"three"}
    ),
    "bare_update conjugates by the effect, not its root": (
        measurement, "_update", _effect_not_its_root, set(SUITES)
    ),
}

# Survivors, each with the ROADMAP item that adds the check to kill it:
# 1 holds the symmetric rule to the mixture of all orderings, 7 checks
# compatibility against the chain's outcome probability.
SURVIVORS = {
    "symmetric drops the last outermost observer, rescaled": 1,
    "compatibility divides by n! - 1": 7,
}


def _killed():
    return {suite for suite, sweep in SUITES.items() if sweep().failures}


def _results():
    """Every number both rules and bare_update give on three fixed states."""
    rng = np.random.default_rng(3)
    states = [harness.random_density(3, 3, rng) for _ in range(3)]
    effect = harness.random_povm(3, 2, rng).elements[0]
    reports = [pooling.pool_ordered_multi(states), pooling.pool_symmetric_multi(states)]
    fields = ("pooled", "compatibility", "paper_norm", "trace_norm", "norm_discrepancy")
    return [getattr(r, f) for r in reports for f in fields] + [
        measurement.bare_update(effect, states[0])
    ]


def test_the_unmutated_rules_pass_every_suite():
    assert _killed() == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_suites_kill_what_the_table_says(monkeypatch, name):
    module, attr, make, killers = MUTANTS[name]
    before = _results()
    monkeypatch.setattr(module, attr, make())
    # Each mutant changes a result, so a survivor is not a no-op.
    assert not all(np.allclose(a, b, rtol=1e-9, atol=0) for a, b in zip(before, _results()))
    assert _killed() == killers


def test_the_survivors_are_named_with_their_item():
    assert {name for name, m in MUTANTS.items() if not m[3]} == set(SURVIVORS)
    assert set(SURVIVORS.values()) <= {1, 7}
