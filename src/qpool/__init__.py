"""qpool: pooling independent observers' quantum states of knowledge.

Each observer measures the same system, learns an outcome, and holds a
density matrix summarizing what they know.  This package computes the
state held by someone who has all the records, checks it against a
first-principles sequential-measurement oracle, and exposes the qubit
closed form in Bloch coordinates.

The namespace is lazy (PEP 562): `import qpool` loads no submodule, and
each public name imports its submodule on first access.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "errors": ("IncompatibleStatesError", "QpoolError", "ZeroProbabilityError"),
        "harness": (
            "Scenario",
            "VerificationReport",
            "oracle_pool",
            "random_density",
            "random_povm",
            "run_scenario",
            "sweep",
            "verify_commuting_reduction",
            "verify_three_observer",
            "verify_two_observer",
        ),
        "linalg": (
            "bloch_to_density",
            "density_to_bloch",
            "frobenius_distance",
            "hermitian_sqrt",
            "maximally_mixed",
            "trace_product",
            "validate_density",
        ),
        "measurement": (
            "Povm",
            "bare_update",
            "outcome_probabilities",
            "posterior_from_outcome",
            "sample_outcome",
            "validate_povm",
        ),
        "pooling": (
            "PoolReport",
            "classical_pool",
            "compatibility",
            "pool_ordered",
            "pool_ordered_multi",
            "pool_symmetric",
            "pool_symmetric_multi",
        ),
        "qubit": ("BlochWeights", "bloch_weights", "certainty_weight", "pool_bloch", "weight_factor"),
    }.items()
    for name in names
}

# The submodules an eager import of the names above would bind here.
_SUBMODULES = frozenset(_SUBMODULE_OF.values()) | {"suites"}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    module = name if name in _SUBMODULES else _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's path, unlike importlib.import_module, is the one
    # python -X importtime reports; it binds the submodule in this namespace.
    __import__(f"{__name__}.{module}")
    if module == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
