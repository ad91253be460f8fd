import json
import os

import pytest

import helpers
from dblcat import cli, dsl, kan, prof, tab
from dblcat.fincat import identity_functor
from dblcat.prof import unit_prof

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "arrows.dcat")
G32 = os.path.join(os.path.dirname(__file__), "fixtures", "g32.dcat")
FAILING = os.path.join(os.path.dirname(__file__), "fixtures", "failing.dcat")
FOOLED = os.path.join(os.path.dirname(__file__), "fixtures", "fooled.dcat")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_commands():
    """The arguments of each ``dcat`` line of the README, with the
    workspace paths taken from the repository root."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = [line.split()[1:] for line in fh if line.startswith("dcat ")]
    return [[os.path.join(ROOT, w) if w.endswith(".dcat") else w for w in argv]
            for argv in lines]


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_check(capsys):
    code, payload = run_json(capsys, "check", FIXTURE)
    assert code == 0
    assert payload["ok"] is True
    assert payload["checked"] == {"categories": 2, "functors": 3,
                                  "profunctors": 1, "cells": 1}


def test_check_text_format(capsys):
    code, out, _ = run(capsys, "check", FIXTURE)
    assert code == 0
    assert out.startswith("check: ok")


def test_global_flags_before_subcommand(capsys):
    code, out, _ = run(capsys, "--format", "json", "--quiet", "check", FIXTURE)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_compose(capsys):
    code, payload = run_json(capsys, "compose", FIXTURE, "HomTwo", "HomTwo")
    assert code == 0
    # hom composed with hom collapses back to hom-sized fibers
    assert {k: len(v) for k, v in payload["fibers"].items()} == \
        {"(x,x)": 1, "(x,y)": 1, "(y,y)": 1}
    # over (x, y) the two straddling pairs land in one class
    assert any(len(members) == 2
               for cls in payload["classes"].values()
               for members in cls.values())


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("path, left, right", [
    (FIXTURE, "HomTwo", "HomTwo"), (G32, "Hom", "Hom"),
    (FAILING, "Empty", "HomTwo")])
def test_compose_prints_its_recorded_output(capsys, path, left, right, fmt):
    # stdout as recorded in tests/fixtures/compose/: how the composite
    # names its elements inside must not change what dcat compose prints
    stem = os.path.basename(path).removesuffix(".dcat")
    recorded = os.path.join(os.path.dirname(__file__), "fixtures", "compose",
                            f"{stem}-{left}-{right}.{fmt}")
    with open(recorded, encoding="utf-8") as fh:
        want = fh.read()
    code, out, err = run(capsys, "compose", path, left, right, "--format", fmt)
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_laws_prints_its_recorded_output(capsys, fmt):
    # stdout, stderr and exit code as recorded in tests/fixtures/laws/:
    # how composites and the cells over them are built must not change
    # what dcat laws prints
    recorded = os.path.join(os.path.dirname(__file__), "fixtures", "laws",
                            f"laws.{fmt}")
    want = []
    for part in ("code", "out", "err"):
        with open(f"{recorded}.{part}", encoding="utf-8") as fh:
            want.append(fh.read())
    code, out, err = run(capsys, "laws", "--format", fmt)
    assert (f"{code}\n", out, err) == tuple(want)


def test_g32_fixture_is_the_serialized_workspace():
    g = helpers.g_pq(3, 2)
    ws = dsl.Workspace(categories={"G32": g},
                       functors={"Id": identity_functor(g)},
                       profunctors={"Hom": unit_prof(g)})
    with open(G32, encoding="utf-8") as fh:
        assert fh.read() == dsl.serialize(ws)


def test_ran_of_identity_along_hom_of_g32(capsys):
    code, payload = run_json(capsys, "ran", G32, "Hom", "Id")
    assert code == 0
    assert payload["is_extension"] is True and payload["is_pointwise"] is True
    assert payload["on_objects"] == {o: o for o in ("0", "1", "2")}
    assert all(k == v for k, v in payload["on_morphisms"].items())
    assert len(payload["on_morphisms"]) == 14


def test_ran(capsys):
    code, payload = run_json(capsys, "ran", FIXTURE, "HomTwo", "Collapse")
    assert code == 0
    assert payload["is_extension"] is True
    assert payload["is_pointwise"] is True
    assert payload["on_objects"] == {"x": "x", "y": "x"}


def test_exact(capsys):
    code, payload = run_json(capsys, "exact", FIXTURE, "collapse")
    assert code == 0
    assert payload["beck_chevalley"] is True
    code, payload = run_json(capsys, "exact", FIXTURE, "collapse",
                             "--mode", "ordinary")
    assert code == 0


@pytest.mark.parametrize("mode", ["pointwise", "ordinary"])
def test_the_default_probes_are_fooled_by_a_cell_that_idem_refutes(capsys,
                                                                   mode):
    # c1 : 1_Z2 -> 1_Idem over (F0, F0): its mate is not invertible, the
    # default probes call it right exact and the probe Idem refutes it
    code, payload = run_json(capsys, "exact", FOOLED, "c1", "--mode", mode)
    assert code == 0
    assert payload == {"ok": True, "beck_chevalley": False, "mode": mode}
    with open(FOOLED, encoding="utf-8") as fh:
        ws = dsl.parse(fh.read())
    assert kan.is_right_exact(ws.cells["c1"], mode,
                              [ws.categories["Idem"]]) == \
        (False, {"target": "Idem", "d": "F1", "r": "F1", "eps": "c0"})


def test_initial_positive(capsys):
    code, payload = run_json(capsys, "initial", FIXTURE, "Emb")
    assert code == 0
    assert payload == {"ok": True, "functor": "Emb"}


def test_initial_negative(capsys, tmp_path):
    ws = tmp_path / "picky.dcat"
    ws.write_text("category One { objects: s; }\n"
                  "category Two { objects: x, y; arrow a: x -> y; }\n"
                  "functor PickY : One -> Two { obj s => y; }\n")
    code, out, _ = run(capsys, "initial", str(ws))
    assert code == 2            # missing functor argument is a usage error

    code, payload = run_json(capsys, "initial", str(ws), "PickY")
    assert code == 1
    assert payload["ok"] is False


def test_tabulate(capsys):
    code, payload = run_json(capsys, "tabulate", FIXTURE, "HomTwo")
    assert code == 0
    assert len(payload["objects"]) == 3
    assert payload["morphism_count"] == 6
    assert payload["verified"] is True
    assert payload["opcartesian"] is True


def test_comma(capsys):
    code, payload = run_json(capsys, "comma", FIXTURE, "Emb", "Emb")
    assert code == 0
    assert payload["matches_comma_category"] is True


def test_internal_tabulate(capsys):
    code, payload = run_json(capsys, "internal-tabulate", FIXTURE, "HomTwo")
    assert code == 0
    assert len(payload["objects"]) == 3
    assert payload["morphism_count"] == 6
    assert payload["verified"] is True


def test_laws(capsys):
    code, payload = run_json(capsys, "laws")
    assert code == 0
    assert payload["ok"] is True
    for suite in payload["suites"].values():
        assert suite["ok"] is True
        assert suite["configurations"] > 0


def test_reused_parser_leaks_nothing_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "tabulate", FIXTURE, "HomTwo", "--format",
                       "json", "--quiet", "--probe-max-objects", "1")
    assert code == 0
    assert json.loads(out)["report"] == {"one_dimensional": 3,
                                         "two_dimensional": 6}
    code, out, _ = run(capsys, "tabulate", FIXTURE, "HomTwo")
    assert code == 0
    # text, not quiet, over the default probes of up to two objects
    assert out.startswith("tabulate: ok\n")
    assert "  report: {'one_dimensional': 15, 'two_dimensional': 46}" in out
    code, out, _ = run(capsys, "--format", "json", "--quiet", "exact",
                       FIXTURE, "collapse", "--mode", "ordinary")
    assert code == 0 and json.loads(out)["mode"] == "ordinary"
    code, out, _ = run(capsys, "exact", FIXTURE, "collapse")
    assert code == 0 and out.startswith("exact: ok\n")
    assert "  mode: pointwise" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.dcat")
    assert code == 2
    assert "error" in err


def test_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.dcat"
    bad.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert f"error: cannot read {bad}" in err


def test_unknown_item_is_usage_error(capsys):
    code, _, err = run(capsys, "compose", FIXTURE, "HomTwo", "Nope")
    assert code == 2
    assert "no profunctor named 'Nope'" in err


def test_parse_error_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.dcat"
    bad.write_text("category C {\n  objects x;\n}\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "2:" in err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["frobnicate"])
    assert exc_info.value.code == 2


def test_mismatched_boundaries_are_usage_errors(capsys):
    code, _, err = run(capsys, "comma", FIXTURE, "Emb", "IdTwo")
    assert code == 2
    assert "share a target" in err


@pytest.mark.parametrize("argv", [
    ["internal-tabulate", FIXTURE, "HomTwo", "--probe-max-objects", "0"],
    ["tabulate", FIXTURE, "HomTwo", "--probe-max-objects", "0"],
    ["exact", FIXTURE, "collapse", "--probe-max-objects", "-1"],
    ["--probe-max-objects", "0", "exact", FIXTURE, "collapse"],
])
def test_probe_bound_below_one_is_usage_error(capsys, argv):
    # no probe category has fewer than one object, so such a run would
    # report a verdict resting on no evidence
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "at least 1" in err


def test_invariant_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.kan, "mediating_morphisms", lambda lim, cone: [])
    code, out, err = run(capsys, "ran", FIXTURE, "HomTwo", "Collapse")
    assert code == 3
    assert out == ""
    assert "limit universal property violated" in err


@pytest.mark.parametrize("argv, verified_keys", [
    (("ran", FIXTURE, "HomTwo", "Collapse"), {"is_extension", "is_pointwise"}),
    (("tabulate", FIXTURE, "HomTwo"), {"verified", "report", "opcartesian"}),
    (("internal-tabulate", FIXTURE, "HomTwo"), {"verified", "report"}),
])
def test_skip_verify_leaves_out_exactly_the_verification(capsys, argv,
                                                         verified_keys):
    code, skipped = run_json(capsys, *argv, "--skip-verify")
    assert code == 0
    code, full = run_json(capsys, *argv)
    assert code == 0
    assert set(full) == set(skipped) | verified_keys
    assert not set(skipped) & verified_keys
    assert {k: full[k] for k in skipped} == skipped
    assert all(full[k] for k in verified_keys)


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == set(cli.COMMANDS)


def short_id(argv):
    return "-".join(os.path.basename(w) for w in argv)


@pytest.mark.parametrize("argv", readme_commands(), ids=short_id)
def test_exit_code_follows_ok_on_readme_commands(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == (0 if payload["ok"] else 1)


def _never(*args, **kwargs):
    return False, {}


@pytest.mark.parametrize("argv, patch", [
    pytest.param(("exact", FAILING, "fromEmpty"), None,
                 id="exact-out-of-an-empty-profunctor"),
    pytest.param(("exact", FAILING, "fromEmpty", "--mode", "ordinary"), None,
                 id="exact-ordinary-out-of-an-empty-profunctor"),
    pytest.param(("ran", FAILING, "Empty", "ToP"), None, id="ran-without-a-limit"),
    pytest.param(("initial", FAILING, "PickY"), None, id="initial"),
    pytest.param(("ran", FIXTURE, "HomTwo", "Collapse"),
                 (cli.kan, "is_ran", lambda cand: False),
                 id="ran-failing-verification"),
    pytest.param(("tabulate", FIXTURE, "HomTwo"),
                 (cli.tab, "verify_tabulation", _never),
                 id="tabulate-failing-verification"),
    pytest.param(("internal-tabulate", FIXTURE, "HomTwo"),
                 (cli.spanfin, "verify_internal_tabulation", _never),
                 id="internal-tabulate-failing-verification"),
    pytest.param(("comma", FIXTURE, "Emb", "Emb"),
                 (cli, "find_isomorphism", lambda a, b: None),
                 id="comma-without-an-isomorphism"),
    pytest.param(("laws",), (cli.laws, "run_all", _never), id="laws-failing"),
])
def test_failed_verdict_exits_1_with_ok_false(capsys, monkeypatch, argv,
                                              patch):
    if patch:
        monkeypatch.setattr(*patch)
    code, payload = run_json(capsys, *argv)
    assert payload["ok"] is False
    assert code == 1


def test_comma_and_unverified_tabulate_build_no_defining_cell(capsys,
                                                              monkeypatch):
    # the defining cell of a tabulation, its top boundary (the unit of
    # <J>) and the comma object's pasted cell are built only when read
    built = []
    defining, pasted = tab._defining_cell, prof._vertical
    representable = prof._representable

    def counted(kind, build):
        def count(*args):
            built.append((kind, args[-1] if kind == "defining" else None))
            return build(*args)
        return count

    def units_of_tabulations(name, *args, **kwargs):
        if name.startswith("1_<"):
            built.append(("unit", name))
        return representable(name, *args, **kwargs)

    monkeypatch.setattr(tab, "_defining_cell", counted("defining", defining))
    monkeypatch.setattr(prof, "_vertical", counted("pasted", pasted))
    monkeypatch.setattr(prof, "_representable", units_of_tabulations)
    for argv in (("comma", FIXTURE, "Emb", "Emb"),
                 ("tabulate", FIXTURE, "HomTwo", "--skip-verify")):
        code, payload = run_json(capsys, *argv)
        assert code == 0 and payload["ok"] is True
    assert built == []
    code, payload = run_json(capsys, "tabulate", FIXTURE, "HomTwo")
    assert code == 0 and payload["verified"] is True
    # the verifier reads the components, and the opcartesian test the top
    # boundary, which builds the unit of <HomTwo>
    assert built == [("defining", "comp"), ("defining", "hsrc"),
                     ("unit", "1_<HomTwo>")]
