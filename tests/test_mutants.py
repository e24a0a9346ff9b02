"""What the verify sweeps prove: a table of mutants and the suites that kill them.

Each mutant replaces one function of pooling or measurement through
monkeypatch; a suite kills it when the sweep reports a failing trial.  A
mutant no suite kills is a named survivor, with the ROADMAP item whose
oracle check should kill it.  A second column names the invariance laws of
test_invariance that the mutant breaks.  The table fails both ways: a killer
that stops killing, and a survivor that starts to die, each fail until the
table is updated.
"""

from dataclasses import replace
from math import factorial

import numpy as np
import pytest

from qpool import harness, measurement, pooling
from qpool.errors import QpoolError

from test_invariance import (
    COUNTS,
    INVARIANCE_TOL,
    RULES,
    collection,
    covariance_residual,
    permutation_residual,
)
from test_pooling import _permutation_sum

TRIALS, DIMS, TOL, SEED = 2, (2, 3, 4), 1e-10, 0

# qpool verify's suites, and the three-observer commuting sweep.
SUITES = {**harness.SUITES, "three diagonal": (3, "diagonal")}


def _symmetric(outermost=slice(None), rescale=False, by_states=False):
    """The symmetric rule's body with only the `outermost` observers of each
    subset summed (rescaled to the full count if rescale), or conjugating by
    the states instead of their roots."""

    def symmetric(arrs, roots):
        if by_states:
            roots = arrs
        level = arrs
        for js, rows in pooling._subset_levels(len(arrs)):
            k = js.shape[1]
            js, rows = js[:, outermost], rows[:, outermost]
            r = roots[js]
            level = (r @ level[rows] @ r).sum(axis=1) * (k / js.shape[1] if rescale else 1.0)
        return pooling._report(level[0], arrs, factorial(len(arrs)), "permutation-sum trace")

    return symmetric


def _superoperators_of_roots(roots):
    """pooling._superoperators with K built from each root r instead of its transpose."""
    n, lanes, d, _ = roots.shape
    k = roots[..., :, None, :, None] * roots[..., None, :, None, :]
    return k.reshape(n, lanes, d * d, d * d)


def _ordered_reversed(arrs, roots):
    """The ordered rule's body with the roots nested in reverse order."""
    num = arrs[0]
    for r in roots[:0:-1]:
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


# name -> (module, attribute, replacement factory, suites that kill it,
# invariance laws it breaks (_broken_laws)).  On those draws the unmutated
# rules read at most 2.3e-16 (permutation) and 3.6e-15 (covariance).
# "Sums only the first" reads a permutation residual of 1.03 and "drops the
# last, rescaled" 0.63.  The Liouville mutant reads a covariance residual of
# 4.3, and in the covariance check one of the 8 draws that take that route
# raises IncompatibleStatesError (a negative trace).  Conjugating by the
# states and nesting the ordered roots in reverse keep both laws (at most
# 5.1e-15), so the laws screen the rules and do not replace the oracle.
MUTANTS = {
    "symmetric sums only the first outermost observer": (
        pooling,
        "_symmetric",
        lambda: _symmetric(outermost=slice(0, 1)),
        {"two", "commuting", "three diagonal"},
        {"permutation"},
    ),
    "symmetric drops the last outermost observer, rescaled": (
        pooling,
        "_symmetric",
        lambda: _symmetric(outermost=slice(0, -1), rescale=True),
        set(),
        {"permutation"},
    ),
    "symmetric conjugates by the states": (
        pooling,
        "_symmetric",
        lambda: _symmetric(by_states=True),
        {"two", "commuting", "three diagonal"},
        set(),
    ),
    "symmetric Liouville route builds K from r, not its transpose": (
        pooling,
        "_superoperators",
        lambda: _superoperators_of_roots,
        set(),
        {"covariance"},
    ),
    "compatibility divides by n! - 1": (
        pooling,
        "_report",
        lambda: _report_with(lambda r, n: {"compatibility": r.trace_norm / (n - 1)}),
        set(),
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
        set(),
    ),
    "ordered nests the roots in reverse": (
        pooling, "_ordered", lambda: _ordered_reversed, {"three"}, set()
    ),
    "bare_update conjugates by the effect, not its root": (
        measurement, "_update", _effect_not_its_root, set(SUITES), set()
    ),
}

# Survivors, each with the ROADMAP item that adds the check to kill it:
# 1 holds the symmetric rule to the mixture of all orderings, 7 checks
# compatibility against the chain's outcome probability, and 8 sweeps
# n >= 5 observers, where the symmetric rule's Liouville route runs at
# d <= 3 (no suite pools more than three states).  The invariance laws
# break the survivors of items 1 and 8, but no suite runs the laws yet.
SURVIVORS = {
    "symmetric drops the last outermost observer, rescaled": 1,
    "compatibility divides by n! - 1": 7,
    "symmetric Liouville route builds K from r, not its transpose": 8,
}


def _killed():
    return {
        suite
        for suite, (observers, family) in SUITES.items()
        if harness.sweep(TRIALS, DIMS, TOL, SEED, observers, family).failures
    }


def _holds(law, *args) -> bool:
    """Whether the residual law(*args) is within INVARIANCE_TOL; a rule that raises breaks it."""
    try:
        return law(*args) <= INVARIANCE_TOL
    except QpoolError:
        return False


def _broken_laws():
    """The invariance laws some draw breaks, over two draws per (n, d) at n = 2..6 and DIMS."""
    broken = set()
    for n in COUNTS:
        for dim in DIMS:
            rng = np.random.default_rng([n, dim, 19])
            for _ in range(2):
                states = collection(n, dim, rng)
                if not _holds(permutation_residual, states, rng):
                    broken.add("permutation")
                for rule in RULES.values():
                    if not _holds(covariance_residual, rule, states, rng):
                        broken.add("covariance")
    return broken


def _five_states():
    """Five fixed d = 3 states: the symmetric rule takes its Liouville route."""
    rng = np.random.default_rng(5)
    return [harness.random_density(3, 3, rng) for _ in range(5)]


def _results():
    """Every number both rules and bare_update give on three fixed states, and
    the symmetric rule's pooled state of _five_states."""
    rng = np.random.default_rng(3)
    states = [harness.random_density(3, 3, rng) for _ in range(3)]
    effect = harness.random_povm(3, 2, rng).elements[0]
    reports = [pooling.pool_ordered_multi(states), pooling.pool_symmetric_multi(states)]
    fields = ("pooled", "compatibility", "paper_norm", "trace_norm", "norm_discrepancy")
    return [getattr(r, f) for r in reports for f in fields] + [
        measurement.bare_update(effect, states[0]),
        pooling.pool_symmetric_multi(_five_states()).pooled,
    ]


def test_the_unmutated_rules_pass_every_suite():
    assert _killed() == set()


def test_the_unmutated_rules_keep_every_law():
    assert _broken_laws() == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_suites_kill_what_the_table_says(monkeypatch, name):
    module, attr, make, killers, _ = MUTANTS[name]
    before = _results()
    monkeypatch.setattr(module, attr, make())
    # Each mutant changes a result, so a survivor is not a no-op.
    assert not all(np.allclose(a, b, rtol=1e-9, atol=0) for a, b in zip(before, _results()))
    assert _killed() == killers


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_invariances_break_what_the_table_says(monkeypatch, name):
    module, attr, make, _, laws = MUTANTS[name]
    monkeypatch.setattr(module, attr, make())
    assert _broken_laws() == laws


def test_the_survivors_are_named_with_their_item():
    assert {name for name, m in MUTANTS.items() if not m[3]} == set(SURVIVORS)
    assert set(SURVIVORS.values()) <= {1, 7, 8}


def test_the_permutation_sum_rejects_the_liouville_mutant(monkeypatch):
    # No suite kills it; the reference of test_matches_permutation_sum does,
    # past that test's 1e-13 bound.
    states = _five_states()
    num = _permutation_sum(states)
    want = num / np.trace(num).real
    assert np.abs(pooling.pool_symmetric_multi(states).pooled - want).max() <= 1e-13
    monkeypatch.setattr(pooling, "_superoperators", _superoperators_of_roots)
    assert np.abs(pooling.pool_symmetric_multi(states).pooled - want).max() > 1e-13


def test_covariance_rejects_the_liouville_mutant_where_it_pools(monkeypatch):
    # Its covariance kill in the table is a residual, not only a raise.
    states = np.array(_five_states())
    rng = np.random.default_rng(0)
    assert covariance_residual(pooling.pool_symmetric_multi, states, rng) <= INVARIANCE_TOL
    monkeypatch.setattr(pooling, "_superoperators", _superoperators_of_roots)
    rng = np.random.default_rng(0)
    assert covariance_residual(pooling.pool_symmetric_multi, states, rng) > INVARIANCE_TOL
