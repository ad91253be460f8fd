import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from dblcat import dsl, zoo
from dblcat.fincat import all_functors
from dblcat.prof import companion, unit_cell, unit_prof

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "arrows.dcat")


def fixture_text():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return fh.read()


def test_fixture_parses():
    ws = dsl.parse(fixture_text())
    assert set(ws.categories) == {"Two", "Three"}
    assert set(ws.functors) == {"Emb", "IdTwo", "Collapse"}
    assert set(ws.profunctors) == {"HomTwo"}
    assert set(ws.cells) == {"collapse"}
    hom = ws.profunctors["HomTwo"]
    assert {k: len(v) for k, v in hom.fibers.items()} == \
        {k: len(v) for k, v in unit_prof(ws.categories["Two"]).fibers.items()}


def test_fixture_round_trips():
    ws = dsl.parse(fixture_text())
    assert dsl.parse(dsl.serialize(ws)) == ws


def test_programmatic_round_trip():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    f = all_functors(two, three)[2]
    ws = dsl.Workspace()
    ws.categories = {"Two": two, "Three": three, "Pair": zoo.parallel_pair()}
    ws.functors = {"F": f}
    ws.profunctors = {"HomTwo": unit_prof(two), "HomThree": unit_prof(three),
                      "Fstar": companion(f), "HomPair": unit_prof(zoo.parallel_pair())}
    ws.cells = {"uf": unit_cell(f)}
    text = dsl.serialize(ws)
    again = dsl.parse(text)
    assert again == ws
    # the serializer is canonical: a second pass reproduces the text
    assert dsl.serialize(again) == text


def err(text):
    with pytest.raises(dsl.DslError) as exc_info:
        dsl.parse(text)
    return exc_info.value


def test_unexpected_character_positions():
    e = err("category C {\n  objects: x$;\n}")
    assert (e.line, e.col) == (2, 13)
    assert "unexpected character" in str(e)


def test_unknown_block_keyword():
    e = err("widget W {}")
    assert "unknown block keyword" in str(e)
    assert (e.line, e.col) == (1, 1)


def test_truncated_block():
    e = err("category C {\n  objects: x;")
    assert "expected" in str(e)


def test_duplicate_category():
    text = "category C { objects: x; }\ncategory C { objects: y; }"
    e = err(text)
    assert "defined twice" in str(e)
    assert e.line == 2


def test_unknown_object_in_arrow():
    e = err("category C {\n  objects: x;\n  arrow f: x -> y;\n}")
    assert "unknown object 'y'" in str(e)
    assert (e.line, e.col) == (3, 17)


def test_missing_composite_is_a_category_error():
    text = ("category C {\n  objects: x, y, z;\n"
            "  arrow f: x -> y;\n  arrow g: y -> z;\n}")
    e = err(text)
    assert "not a category" in str(e)


def test_functor_missing_object():
    text = ("category C { objects: x, y; }\n"
            "functor F : C -> C {\n  obj x => x;\n}")
    e = err(text)
    assert "misses object 'y'" in str(e)


def test_profunctor_underdetermined_action():
    text = ("category Two { objects: 0, 1; arrow a: 0 -> 1; }\n"
            "profunctor J : Two -/-> Two {\n"
            "  elt j : 0 -/-> 0;\n  elt j2 : 0 -/-> 1;\n}")
    e = err(text)
    assert "does not determine the action a.j.1_0" in str(e)


MOVING_IDENTITY = (
    "category Two { objects: 0, 1; arrow a: 0 -> 1; }\n"
    "profunctor J : Two -/-> Two {\n"
    "  elt j : 0 -/-> 0;\n  elt j2 : 0 -/-> 0;\n"
    "  elt j3 : 0 -/-> 1;\n"
    "  act 1_0 . j . 1_0 = j2;\n"
    "  act a . j . 1_0 = j3;\n  act a . j2 . 1_0 = j3;\n}")


def test_profunctor_identity_action_must_fix_elements():
    e = err(MOVING_IDENTITY)
    assert "identity action moving 'j'" in str(e)


INCONSISTENT_CLOSURE = (
    "category I { objects: s; }\n"
    "category Three { objects: 0, 1, 2;\n"
    "  arrow a: 0 -> 1; arrow b: 1 -> 2; arrow ba: 0 -> 2;\n"
    "  compose b . a = ba;\n}\n"
    "profunctor J : I -/-> Three {\n"
    "  elt j : s -/-> 0; elt j1 : s -/-> 1;\n"
    "  elt j2 : s -/-> 2; elt j3 : s -/-> 2;\n"
    "  act a . j . 1_s = j1;\n  act b . j1 . 1_s = j2;\n"
    "  act ba . j . 1_s = j3;\n}")


def test_profunctor_inconsistent_closure():
    e = err(INCONSISTENT_CLOSURE)
    assert "inconsistent" in str(e)


def test_profunctor_result_in_wrong_fiber():
    text = ("category Two { objects: 0, 1; arrow a: 0 -> 1; }\n"
            "profunctor J : Two -/-> Two {\n"
            "  elt j : 0 -/-> 0;\n  elt j2 : 0 -/-> 1;\n"
            "  act a . j . 1_0 = j;\n}")
    e = err(text)
    assert "wrong fiber" in str(e)


def test_action_stated_twice_differently():
    text = ("category Two { objects: 0, 1; arrow a: 0 -> 1; }\n"
            "profunctor J : Two -/-> Two {\n"
            "  elt j : 0 -/-> 0;\n  elt j2 : 0 -/-> 1;\n  elt j3 : 0 -/-> 1;\n"
            "  act a . j . 1_0 = j2;\n  act a . j . 1_0 = j3;\n}")
    e = err(text)
    assert "stated twice" in str(e)


def test_cell_missing_component():
    text = ("category Two { objects: 0, 1; arrow a: 0 -> 1; }\n"
            "functor Id : Two -> Two { obj 0 => 0; obj 1 => 1; arr a => a; }\n"
            "profunctor J : Two -/-> Two {\n"
            "  elt j : 0 -/-> 1;\n}\n"
            "cell c : J => J left Id right Id {\n}")
    e = err(text)
    assert "misses element 'j'" in str(e)


def test_cell_image_outside_fiber():
    text = ("category Two { objects: 0, 1; arrow a: 0 -> 1; }\n"
            "functor Id : Two -> Two { obj 0 => 0; obj 1 => 1; arr a => a; }\n"
            "profunctor J : Two -/-> Two {\n"
            "  elt j : 0 -/-> 1;\n  elt k : 1 -/-> 1;\n"
            "  act 1_1 . k . a = j;\n}\n"
            "cell c : J => J left Id right Id {\n  map j => k;\n  map k => k;\n}")
    e = err(text)
    assert "not in the expected fiber" in str(e)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parser_is_total_on_garbage(text):
    try:
        dsl.parse(text)
    except dsl.DslError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parser_is_total_on_mutated_fixture(data):
    text = fixture_text()
    pos = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    mutation = data.draw(st.sampled_from(["delete", "insert", "swap"]))
    if mutation == "delete":
        text = text[:pos] + text[pos + 1:]
    elif mutation == "insert":
        text = text[:pos] + data.draw(st.characters()) + text[pos:]
    else:
        other = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        chars = list(text)
        chars[pos], chars[other] = chars[other], chars[pos]
        text = "".join(chars)
    try:
        dsl.parse(text)
    except dsl.DslError:
        pass


def closure_inputs():
    """The fixture, the two rejected closures above and, for each corpus
    profunctor alone in a workspace, its serialized text plus that text
    with one act line dropped or given another result in the same fiber."""
    texts = [fixture_text(), MOVING_IDENTITY, INCONSISTENT_CLOSURE]
    rng = random.Random(5)
    for i, p in enumerate(helpers.tabulation_corpus()):
        ws = dsl.Workspace()
        ws.categories = {c.name: c for c in (p.source, p.target)}
        ws.profunctors = {f"P{i}": p}
        lines = dsl.serialize(ws).split("\n")
        texts.append("\n".join(lines))
        fiber = {}
        for line in lines:
            if line.lstrip().startswith("elt "):
                _, j, _, a, _, b = line.rstrip(";").split()
                fiber[j] = (a, b)
        for k, line in enumerate(lines):
            if not line.lstrip().startswith("act "):
                continue
            texts.append("\n".join(lines[:k] + lines[k + 1:]))
            head, result = line.rstrip(";").split(" = ")
            others = [j for j in fiber
                      if fiber[j] == fiber.get(result) and j != result]
            if others:
                texts.append("\n".join(
                    lines[:k] + [f"{head} = {rng.choice(others)};"] +
                    lines[k + 1:]))
    return texts


def parse_outcome(text):
    """Each profunctor's left and right action items, or the error
    message."""
    try:
        ws = dsl.parse(text)
    except dsl.DslError as e:
        return str(e)
    return [(n, list(p.left.items()), list(p.right.items()))
            for n, p in ws.profunctors.items()]


def test_action_closure_matches_all_pairs_oracle(monkeypatch):
    texts = closure_inputs() + list(helpers.fuzz_inputs(5_000))
    new = [parse_outcome(t) for t in texts]
    monkeypatch.setattr(dsl.Parser, "_complete_action",
                        helpers.complete_action_oracle)
    assert [parse_outcome(t) for t in texts] == new
    # the inputs reach every outcome of the closure
    assert sum(1 for o in new if isinstance(o, list) and o) > 20
    errors = [o for o in new if isinstance(o, str)]
    for message in ("inconsistent at", "does not determine",
                    "identity action moving"):
        assert any(message in e for e in errors), message



def token_outcome(tokenize, text):
    """The token stream, or the error's message, line and column."""
    try:
        return tokenize(text)
    except dsl.DslError as e:
        return str(e), e.line, e.col


def test_tokenizer_matches_symbol_first_oracle():
    texts = [fixture_text()] + list(helpers.fuzz_inputs(5_000))
    for text in texts:
        assert token_outcome(dsl.tokenize, text) == \
            token_outcome(helpers.tokenize_oracle, text), repr(text)
    # the inputs reach both outcomes and every symbol
    outcomes = [token_outcome(dsl.tokenize, t) for t in texts]
    assert any(isinstance(o, tuple) for o in outcomes)
    seen = {tok[1] for o in outcomes if isinstance(o, list) for tok in o
            if tok[0] == "sym"}
    assert seen == set(dsl.SYMBOLS)


def test_serialize_rejects_items_outside_the_workspace():
    ws = dsl.parse(fixture_text())
    for table, message in (("categories", "category not in workspace"),
                           ("profunctors", "profunctor not in workspace"),
                           ("functors", "functor not in workspace")):
        partial = dsl.Workspace(**{k: dict(v) for k, v in vars(ws).items()})
        setattr(partial, table, {})
        with pytest.raises(ValueError, match=f"^{message}$"):
            dsl.serialize(partial)
