"""The sweeps qpool verify runs, as plain data.

harness.sweep reads these tables, and the CLI parser takes --suite's
choices from SUITES.  This module imports nothing, so building the parser
loads neither the harness nor the modules it draws with.
"""

# The POVM families a sweep draws from: random_povm, or commuting
# (harness._random_diagonal_povm).
FAMILIES = ("random", "diagonal")

# qpool verify's suites, in the order --suite all runs them: name ->
# (observers, family), the last two arguments of harness.sweep.
SUITES = {"two": (2, "random"), "commuting": (2, "diagonal"), "three": (3, "random")}
