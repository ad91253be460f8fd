"""Every function of the library has a caller in the library, or a reason
to stay without one, listed here."""

import ast
from pathlib import Path

import dblcat

# module.function (or module.Class.method) -> why nothing in src/dblcat
# calls it
UNCALLED = {
    "dsl.tokenize": "the lexical grammar as a token list, for the tests; "
                    "the parser reads _scan",
    "dsl.serialize": "the writer of the round trip parse(serialize(ws)) == ws; "
                     "no dcat subcommand writes .dcat text",
    "kan.check_pointwise_probes": "the paper's pointwise definition as a "
                                  "report, not yet a procedure of is_pointwise_ran",
    "kan.pasting_check": "pasting onto a pointwise extension, a statement of "
                         "the paper no subcommand decides yet",
    "kan.comma_square_cell": "comma squares satisfy Beck-Chevalley, a "
                             "statement no subcommand decides yet",
    "kan.initial_mediating_iso": "the limit comparison that dcat initial "
                                 "does not report",
    "prof.validate_profunctor": "the axioms of a profunctor, for the tests; "
                                "the parser's closed tables satisfy them",
    "prof.empty_prof": "a builder for the tests",
    "prof.invert_horizontal_cell": "equipment structure, not in a laws suite yet",
    "prof.is_invertible_cell": "equipment structure, not in a laws suite yet",
    "prof.opcartesian_cell": "equipment structure, not in a laws suite yet",
    "prof.is_cartesian": "equipment structure, not in a laws suite yet",
    "prof.upper_star": "equipment structure, not in a laws suite yet",
    "spanfin.from_fincat": "called by the benchmark's workloads",
    "spanfin.validate_internal_profunctor": "the axioms of an internal "
                                            "profunctor, for the tests",
    "spanfin.validate_internal_transformation": "the axioms of an internal "
                                                "transformation, for the tests "
                                                "and their oracles",
    "spanfin.internal_prof_compose": "the span-level composite, compared with "
                                     "prof.compose_prof in the tests; dcat "
                                     "never composes at span level",
    "spanfin.transf_from_object_part": "the inverse of transf_object_part, "
                                       "for the tests",
    "tab.ran_via_tabulation": "a pointwise test through the tabulation, "
                              "until a procedure after Street subsumes it",
}


def uncalled(package):
    """The functions and methods (dunders aside) defined at the top of a
    module of ``package``, or in one of its classes, that no code of the
    package names outside their own body, by name."""
    defs, names = {}, {}

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if owner is None and not child.name.startswith("__"):
                    defs[f"{prefix}.{child.name}"] = child
                visit(child, owner or child, prefix)
                continue
            if isinstance(child, ast.ClassDef) and owner is None:
                visit(child, None, f"{prefix}.{child.name}")
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                names.setdefault(child.id, []).append(owner)
            elif isinstance(child, ast.Attribute):
                names.setdefault(child.attr, []).append(owner)
            visit(child, owner, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path.stem)
    return {name for name, node in defs.items()
            if all(owner is node
                   for owner in names.get(name.rsplit(".", 1)[1], ()))}


def test_every_library_function_has_a_caller_or_a_reason():
    found = uncalled(Path(dblcat.__file__).parent)
    assert found - set(UNCALLED) == set(), "uncalled, with no reason listed"
    assert set(UNCALLED) - found == set(), "listed, but now called"
