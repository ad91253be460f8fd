"""The traced functions, their layers, and the per-layer metric names.

A layer is a dblcat module.  Time spent in an untraced function counts as
self time of the nearest traced caller, so a layer's self time is the sum of
the self times of its traced functions.
"""

from __future__ import annotations

TRACED = (
    "cli.main",
    "dsl.parse", "dsl.serialize",
    "fincat.FinCategory.hom", "fincat.make_category", "fincat.all_functors",
    "fincat.all_natural_transformations", "fincat.limit",
    "fincat.comma_category", "fincat.find_isomorphism",
    "fincat.compose_functors",
    "prof.unit_prof", "prof.compose_prof", "prof.cells_between",
    "prof.vcompose", "prof.rhom", "prof.validate_cell", "prof.restrict",
    "kan.pointwise_ran", "kan.is_ran", "kan.is_pointwise_ran",
    "kan.is_right_exact", "kan.elements_category", "kan.is_initial_functor",
    "tab.tabulate", "tab.verify_tabulation", "tab.comma_object",
    "spanfin.internal_tabulate", "spanfin.verify_internal_tabulation",
    "spanfin.all_internal_functors", "spanfin.all_internal_transformations",
    "laws.run_all",
)

# enumerators: their results are counted as well as their calls
ENUMERATORS = (
    "fincat.all_functors", "fincat.all_natural_transformations",
    "prof.cells_between", "spanfin.all_internal_functors",
    "spanfin.all_internal_transformations",
)

LAYERS = ("cli", "dsl", "fincat", "prof", "kan", "tab", "spanfin", "laws")

# The traced functions each workload is meant to exercise.  A zero call
# count for any of them fails the traced run: it means a wrapper was not
# bound where the program looks the function up.
EXERCISED = {
    "fixture-cli": tuple(f for f in TRACED if f != "dsl.serialize"),
    "ord-build": (
        "dsl.parse", "dsl.serialize",
        "fincat.FinCategory.hom", "fincat.make_category",
        "fincat.comma_category", "fincat.compose_functors",
        "prof.unit_prof", "prof.compose_prof", "prof.vcompose",
        "prof.restrict",
        "tab.tabulate", "tab.comma_object",
    ),
    "ord-decide": (
        "fincat.FinCategory.hom", "fincat.make_category",
        "fincat.all_functors", "fincat.all_natural_transformations",
        "fincat.limit", "fincat.compose_functors",
        "prof.unit_prof", "prof.cells_between", "prof.vcompose",
        "prof.rhom", "prof.validate_cell",
        "kan.pointwise_ran", "kan.is_ran", "kan.is_pointwise_ran",
        "kan.is_right_exact", "kan.elements_category",
        "tab.tabulate", "tab.verify_tabulation",
        "spanfin.internal_tabulate", "spanfin.verify_internal_tabulation",
        "spanfin.all_internal_functors",
        "spanfin.all_internal_transformations",
    ),
}


def layer_of(name):
    return name.split(".", 1)[0]


def metric_names():
    """Per-layer metric names with their units, in report order."""
    out = []
    for f in TRACED:
        out.append((f"{f}.calls", "count"))
        if f in ENUMERATORS:
            out.append((f"{f}.results", "count"))
        out.append((f"{f}.self_s", "s"))
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out.append(("trace.overhead_ref", "ref"))
    return out
