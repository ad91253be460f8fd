"""Every function of the library has a caller in the library, or a reason
to stay without one, listed here."""

import ast
from pathlib import Path

import dblcat

# module.function (or module.Class.method) -> why nothing in src/dblcat
# calls it
UNCALLED = {
    "dsl.serialize": "the writer of the round trip parse(serialize(ws)) == ws, "
                     "which the benchmark's ord-build times; no dcat "
                     "subcommand writes .dcat text",
    "kan.check_pointwise_probes": "the paper's pointwise definition as a "
                                  "report, not yet a procedure of is_pointwise_ran",
    "kan.pasting_check": "pasting onto a pointwise extension, a statement of "
                         "the paper no subcommand decides yet",
    "kan.comma_square_cell": "comma squares satisfy Beck-Chevalley, a "
                             "statement no subcommand decides yet",
    "kan.initial_mediating_iso": "the limit comparison that dcat initial "
                                 "does not report",
    "prof.invert_horizontal_cell": "equipment structure, not in a laws suite yet",
    "prof.is_invertible_cell": "equipment structure, not in a laws suite yet",
    "prof.opcartesian_cell": "equipment structure, not in a laws suite yet",
    "prof.is_cartesian": "equipment structure, not in a laws suite yet",
    "prof.upper_star": "equipment structure, not in a laws suite yet",
    "spanfin.from_fincat": "called by the benchmark's workloads",
    "spanfin.transf_from_object_part": "the inverse of transf_object_part, "
                                       "a statement of the paper: acceptance "
                                       "criterion 11 states the vertical "
                                       "correspondence through it",
    "tab.ran_via_tabulation": "a pointwise test through the tabulation, "
                              "until a procedure after Street subsumes it",
}


def uncalled(package):
    """The functions and methods (dunders aside) defined at the top of a
    module of ``package``, or in one of its classes, that no code of the
    package refers to outside their own body.

    Names are resolved per module.  A name read in module m refers to the
    function of m of that name, or to the function f of module k that m
    imports under it (``from .k import f``).  ``k.f``, where m imports k
    as a module of the package (``from . import k``), refers to the
    function f of k.  Any other attribute ``x.f`` may be a method, so it
    refers to every method named f and to no module-level function.  A
    local variable or an attribute elsewhere therefore hides no
    function."""
    defs, reads = {}, []    # reads: (module, base, name, owner)
    imported, modules = {}, {}      # per module: alias -> "k.f", alias -> k

    def visit(node, owner, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if owner is None and not child.name.startswith("__"):
                    defs[f"{prefix}.{child.name}"] = child
                visit(child, owner or child, prefix, module)
                continue
            if isinstance(child, ast.ClassDef) and owner is None:
                visit(child, None, f"{prefix}.{child.name}", module)
                continue
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                for alias in child.names:
                    bound = alias.asname or alias.name
                    if child.module is None:
                        modules[module][bound] = alias.name
                    else:
                        imported[module][bound] = f"{child.module}.{alias.name}"
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads.append((module, None, child.id, owner))
            elif isinstance(child, ast.Attribute):
                # the base is "" when it is not a name, as in f(x).attr
                base = getattr(child.value, "id", "")
                reads.append((module, base, child.attr, owner))
            visit(child, owner, prefix, module)

    for path in sorted(package.glob("*.py")):
        module = path.stem
        imported[module], modules[module] = {}, {}
        visit(ast.parse(path.read_text(encoding="utf-8")), None, module, module)
    methods = {}
    for name in defs:
        if name.count(".") == 2:
            methods.setdefault(name.rsplit(".", 1)[1], []).append(name)

    def referred(module, base, name):
        if base is None:
            return [imported[module].get(name, f"{module}.{name}")]
        if base in modules[module]:
            return [f"{modules[module][base]}.{name}"]
        return methods.get(name, [])

    called = {target for module, base, name, owner in reads
              for target in referred(module, base, name)
              if target in defs and defs[target] is not owner}
    return set(defs) - called


def test_every_library_function_has_a_caller_or_a_reason():
    found = uncalled(Path(dblcat.__file__).parent)
    assert found - set(UNCALLED) == set(), "uncalled, with no reason listed"
    assert set(UNCALLED) - found == set(), "listed, but now called"


def test_a_same_named_local_or_attribute_hides_no_function(tmp_path):
    (tmp_path / "zoo.py").write_text(
        "def stray():\n    return 1\n\n\n"
        "def pick():\n    return 2\n\n\n"
        "def chain(n):\n    return chain(n - 1) if n else 0\n")
    (tmp_path / "fincat.py").write_text(
        "from . import zoo\n"
        "from .zoo import chain as ordinal\n\n\n"
        "class Parser:\n"
        "    def run(self):\n        return 3\n\n"
        "    def idle(self):\n        return self.idle()\n\n\n"
        "def validate_category(cat):\n"
        "    stray = cat.stray\n"
        "    return stray, zoo.pick(), ordinal(2), Parser().run()\n")
    assert uncalled(tmp_path) == {"zoo.stray", "fincat.Parser.idle",
                                  "fincat.validate_category"}
