"""Exact computations for the times-p, times-q system on the circle and
the group Z[1/pq] x| Z^2: finite orbits and their stabilizer lattices,
extreme tracial states evaluated in cyclotomic arithmetic, invariant
measure moments, the primitive ideal space as a finite topological
calculus, and crossed-product K-theory.

Everything is integer or cyclotomic arithmetic; floating point appears
only in .approx() views.

Nothing is loaded before it is used.  The names below are resolved on
first use: ``import xpq`` loads no submodule, and ``xpq.trace_eval``
imports ``xpq.traces`` when it is first read.  Each ``xpq`` subcommand
imports the modules it runs when it runs, and serialize the modules of the
values it encodes or decodes; no module imports dataclasses or inspect.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "checks": ("CheckResult", "run_checks"),
    "dynamics": (
        "Character", "FixedPoints", "OrbitData", "SolenoidPoint", "StabilizerLattice",
        "SystemParams", "beta_apply", "census", "enumerate_minimal_sets", "fixed_points",
        "lift_sequence", "orbit_of", "stabilizer_lattice",
    ),
    "errors": (
        "DependentParams", "FactorizationTooHard", "IdentityElement", "IncompatibleMap",
        "NonInvertible", "NotCoprime", "OutOfRange", "ParamsMismatch", "RangeTooSmall",
        "XpqError",
    ),
    "exact": (
        "Cyclotomic", "PqRational", "QmodZ", "carmichael", "cyclotomic_polynomial", "euler_phi",
        "factorize", "multiplicative_dependence_witness", "multiplicative_order", "root_of_unity",
    ),
    "groupalg": (
        "GroupAlgebraElement", "GroupElement", "alpha_apply", "group_inv", "group_mul",
        "icc_witness",
    ),
    "ktheory": (
        "FgAbGroup", "FgAbMap", "KTheoryResult", "SNFResult", "k_theory_of_group",
        "map_cokernel", "map_kernel", "mult_map_ker_coker", "pv_assemble", "smith_normal_form",
    ),
    "primspace": (
        "ALL", "ESCAPING", "FULL", "INFINITY", "AllClosedSet", "EscapingTail", "FinitePoints",
        "FiniteUnion", "FullTorus", "InfinityPoint", "OrbitCharPoint", "SequenceDesc",
        "closed_intersection", "closed_union", "closure", "contains_point", "limit_set",
        "specializes",
    ),
    "serialize": (
        "algebra_element_from_json", "algebra_element_to_json", "closed_set_to_json",
        "cyclotomic_to_json", "evaluation_to_json", "fg_ab_group_to_json",
        "group_element_from_json", "group_element_to_json", "ktheory_result_to_json",
        "moments_to_json", "orbit_from_json", "orbit_to_json", "pq_rational_from_json",
        "prim_point_from_json", "sequence_desc_from_json", "trace_spec_from_json",
        "trace_spec_to_json",
    ),
    "traces": (
        "CanonicalTrace", "FiniteOrbitTrace", "MomentSequence", "OrbitMeasureTrace", "TraceSpec",
        "average_over_character_level", "check_pq_invariance", "moments", "nonfaithful_witness",
        "trace_eval",
    ),
}

_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # looked up on every access and never stored here, so the package
    # always shows the submodule's current binding of the name; the
    # submodule is imported on first use and read from sys.modules after
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules.get(module) or import_module(module), name)


def __dir__():
    return sorted({*globals(), *__all__})
