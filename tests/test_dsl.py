import collections
import dataclasses
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from dblcat import dsl, zoo
from dblcat.fincat import all_functors, validate_category
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


RESTATED_COMPOSITE = (
    "category C { objects: x, y, z;\n"
    "  arrow f: x -> y; arrow g: y -> z; arrow h: x -> z; arrow k: x -> z;\n"
    "  compose g . f = h;\n"
    "  compose g . f = k;\n}")

PARALLEL = ("category P { objects: 0, 1; arrow a: 0 -> 1; arrow b: 0 -> 1; }\n")

RESTATED_OBJECT = (
    "category Two { objects: 0, 1; }\n"
    "functor F : Two -> Two {\n  obj 0 => 0;\n  obj 0 => 1;\n  obj 1 => 1;\n}")

RESTATED_ARROW = (
    PARALLEL + "functor F : P -> P {\n  obj 0 => 0; obj 1 => 1;\n"
    "  arr a => a;\n  arr a => b;\n  arr b => b;\n}")

DISCRETE_CELL = (
    "category One { objects: s; }\n"
    "functor Id : One -> One { obj s => s; }\n"
    "profunctor J : One -/-> One { elt j : s -/-> s; elt k : s -/-> s; }\n"
    "cell c : J => J left Id right Id {\n  map j => j;\n  map k => k;\n")


def test_composite_stated_twice_differently():
    # accepted before with the last composite, here k
    e = err(RESTATED_COMPOSITE)
    assert "composite g.f stated twice with different results" in str(e)
    assert (e.line, e.col) == (4, 19)


def test_object_image_stated_twice_differently():
    e = err(RESTATED_OBJECT)
    assert "image of object 0 stated twice with different results" in str(e)
    assert (e.line, e.col) == (4, 12)


def test_arrow_image_stated_twice_differently():
    e = err(RESTATED_ARROW)
    assert "image of arrow a stated twice with different results" in str(e)
    assert (e.line, e.col) == (5, 12)


def test_cell_image_stated_twice_differently():
    e = err(DISCRETE_CELL + "  map j => k;\n}")
    assert "image of element j stated twice with different results" in str(e)
    assert (e.line, e.col) == (7, 12)


def test_cell_map_of_unknown_element():
    # accepted before, the map ignored
    e = err(DISCRETE_CELL + "  map nosuch => k;\n}")
    assert "unknown element 'nosuch'" in str(e)
    assert (e.line, e.col) == (7, 7)


def test_identical_restatements_are_accepted():
    texts = [RESTATED_COMPOSITE.replace("= k;", "= h;"),
             RESTATED_OBJECT.replace("0 => 1;", "0 => 0;"),
             RESTATED_ARROW.replace("a => b;", "a => a;"),
             DISCRETE_CELL + "  map j => j;\n}"]
    for text in texts:
        once = "\n".join(dict.fromkeys(text.split("\n")))   # drop repeats
        assert once != text
        assert dsl.parse(text) == dsl.parse(once)


# A prelude for the error sites below: Two, its identity functor Id and its
# hom profunctor H, then the head of a cell c : H => H and its full maps
TWO = "category Two { objects: 0, 1; arrow a: 0 -> 1; }\n"
ID = "functor Id : Two -> Two { obj 0 => 0; obj 1 => 1; arr a => a; }\n"
HOM = ("profunctor H : Two -/-> Two { elt h0 : 0 -/-> 0; elt ha : 0 -/-> 1;"
       " elt h1 : 1 -/-> 1; act a . h0 . 1_0 = ha; act 1_1 . h1 . a = ha; }\n")
ONE = "category One { objects: s; }\n"
CELLS = TWO + ID + HOM
CELL = CELLS + "cell c : H => H left Id right Id {"
MAPS = " map h0 => h0; map ha => ha; map h1 => h1;"
P0 = TWO + "profunctor P : Two -/-> Two { elt p : 0 -/-> 0; "

# One input per error site of the parser, with its full diagnostic.  Where
# an input holds several faults, the one reported is pinned too: an arrow's
# name is checked before its ':' and its endpoints before its ';'; obj, arr
# and elt lines are checked after their ';'; act lines only once the block
# closes; the names of a block header as soon as each is read.  A parsed
# profunctor is not validated again, as the closed action table already has
# every property validate_profunctor checks; the closure test below holds
# this for every profunctor it parses.
ERROR_SITES = [
    ("category C {\n  objects: x$;\n}",
     "2:13: unexpected character '$'"),
    ("}",
     "1:1: expected a block keyword, found '}'"),
    ("widget W {}",
     "1:1: unknown block keyword 'widget'"),
    ("category {",
     "1:10: expected a category name, found '{'"),
    ("category C { objects: x; }\ncategory C",
     "2:10: category 'C' defined twice"),
    ("category C objects",
     "1:12: expected '{', found 'objects'"),
    ("category C { arrow",
     "1:14: expected keyword 'objects', found 'arrow'"),
    ("category C { : x; }",
     "1:14: expected keyword 'objects', found ':'"),
    ("category C { objects: ; }",
     "1:23: expected an object name, found ';'"),
    ("category C { objects: x y; }",
     "1:25: expected ',' or ';' in object list"),
    ("category C { objects: x, x; }",
     '1:10: duplicate object name'),
    ("category C { objects: x; ; }",
     "1:26: expected 'arrow', 'compose' or '}', found ';'"),
    ("category C { objects: x;",
     "1:25: expected 'arrow', 'compose' or '}', found 'end of input'"),
    ("category C { objects: x; obj",
     "1:26: expected 'arrow' or 'compose', found 'obj'"),
    ("category C { objects: x; arrow ; }",
     "1:32: expected an arrow name, found ';'"),
    ("category C { objects: x; arrow f: x -> x; arrow f",
     "1:49: arrow 'f' defined twice"),
    ("category C { objects: x; arrow 1_x",
     "1:32: arrow '1_x' defined twice"),
    ("category C { objects: x; arrow f x",
     "1:34: expected ':', found 'x'"),
    ("category C { objects: x; arrow f: y -> x; }",
     "1:35: unknown object 'y'"),
    ("category C { objects: x; arrow f: x -> y",
     "1:40: unknown object 'y'"),
    ("category C { objects: x; arrow f: x => x; }",
     "1:37: expected '->', found '=>'"),
    ("category C { objects: x; arrow f: x -> x",
     "1:41: expected ';', found ''"),
    ("category C { objects: x; arrow f: x -> x; compose f f = f; }",
     "1:53: expected '.', found 'f'"),
    ("category C { objects: x; arrow f: x -> x; compose f . g = f; }",
     "1:55: unknown arrow 'g'"),
    ("category C { objects: x; arrow f: x -> x; compose f . f = ; }",
     "1:59: expected an arrow, found ';'"),
    ("category C { objects: x, y, z; arrow f: x -> y; arrow g: y -> z; }",
     "1:10: category 'C' is not a category: composite g . f missing"),
    ("category C { objects: x, y, z;\n  arrow f: x -> y; arrow g: y -> z; "
     "arrow h: x -> z; arrow k: x -> z;\n"
     "  compose g . f = h;\n  compose g . f = k;\n}",
     '4:19: composite g.f stated twice with different results'),
    (TWO + "functor {",
     "2:9: expected a functor name, found '{'"),
    (TWO + ID + "functor Id",
     "3:9: functor 'Id' defined twice"),
    (TWO + "functor F Two",
     "2:11: expected ':', found 'Two'"),
    (TWO + "functor F : ;",
     "2:13: expected a category, found ';'"),
    (TWO + "functor F : X",
     "2:13: unknown category 'X'"),
    (TWO + "functor F : Two -> X",
     "2:20: unknown category 'X'"),
    (TWO + "functor F : Two => Two",
     "2:17: expected '->', found '=>'"),
    (TWO + "functor F : Two -> Two obj",
     "2:24: expected '{', found 'obj'"),
    (TWO + "functor F : Two -> Two { ; }",
     "2:26: expected 'obj', 'arr' or '}', found ';'"),
    (TWO + "functor F : Two -> Two {",
     "2:25: expected 'obj', 'arr' or '}', found 'end of input'"),
    (TWO + "functor F : Two -> Two { elt",
     "2:26: expected 'obj' or 'arr', found 'elt'"),
    (TWO + "functor F : Two -> Two { obj 0 -> 0; }",
     "2:32: expected '=>', found '->'"),
    (TWO + "functor F : Two -> Two { obj z => 0 }",
     "2:37: expected ';', found '}'"),
    (TWO + "functor F : Two -> Two { obj z => 0; }",
     "2:30: unknown object 'z'"),
    (TWO + "functor F : Two -> Two { obj 0 => z; }",
     "2:35: unknown object 'z'"),
    (TWO + "functor F : Two -> Two { arr b => a; }",
     "2:30: unknown arrow 'b'"),
    (TWO + "functor F : Two -> Two { arr a => b; }",
     "2:35: unknown arrow 'b'"),
    (TWO + "functor F : Two -> Two { arr a => ; }",
     "2:35: expected an arrow, found ';'"),
    (TWO + "functor F : Two -> Two { obj 0 => 0; }",
     "2:9: functor 'F' misses object '1'"),
    (TWO + "functor F : Two -> Two { obj 0 => 0; obj 1 => 0; }",
     "2:9: functor 'F' misses arrow 'a'"),
    (TWO + "functor F : Two -> Two { obj 0 => 1; obj 1 => 0; arr a => a; }",
     "2:9: functor 'F' is not a functor: image of a has wrong endpoints"),
    ("category D { objects: 0, 1; }\n"
     "functor F : D -> D {\n obj 0 => 0;\n obj 0 => 1;\n obj 1 => 1; }",
     '4:11: image of object 0 stated twice with different results'),
    ("category P { objects: 0, 1; arrow a: 0 -> 1; arrow b: 0 -> 1; }\n"
     "functor F : P -> P {\n obj 0 => 0; obj 1 => 1;\n"
     " arr a => a;\n arr a => b; arr b => b; }",
     '5:11: image of arrow a stated twice with different results'),
    (TWO + "profunctor {",
     "2:12: expected a profunctor name, found '{'"),
    (TWO + HOM + "profunctor H",
     "3:12: profunctor 'H' defined twice"),
    (TWO + "profunctor P : X",
     "2:16: unknown category 'X'"),
    (TWO + "profunctor P : Two -> Two",
     "2:20: expected '-/->', found '->'"),
    (TWO + "profunctor P : Two -/-> X",
     "2:25: unknown category 'X'"),
    (TWO + "profunctor P : Two -/-> Two { ; }",
     "2:31: expected 'elt', 'act' or '}', found ';'"),
    (TWO + "profunctor P : Two -/-> Two { obj",
     "2:31: expected 'elt' or 'act', found 'obj'"),
    (TWO + "profunctor P : Two -/-> Two { elt p 0 }",
     "2:37: expected ':', found '0'"),
    (TWO + "profunctor P : Two -/-> Two { elt p : z -/-> 0; }",
     "2:39: unknown object 'z'"),
    (TWO + "profunctor P : Two -/-> Two { elt p : 0 -/-> z; }",
     "2:46: unknown object 'z'"),
    (TWO + "profunctor P : Two -/-> Two { elt p : 0 -/-> z }",
     "2:48: expected ';', found '}'"),
    (P0 + "elt p : 1 -/-> 1; }",
     "2:53: element 'p' defined twice"),
    (P0 + "act a . p 1_0 = p; }",
     "2:59: expected '.', found '1_0'"),
    (P0 + "act a . q . 1_0 = p;",
     "2:69: expected 'elt', 'act' or '}', found 'end of input'"),
    (P0 + "act a . q . 1_0 = p; }",
     "2:57: unknown element 'q'"),
    (P0 + "act a . p . 1_0 = q; }",
     "2:67: unknown element 'q'"),
    (P0 + "act 1_0 . p . b = p; }",
     "2:63: unknown arrow 'b'"),
    (P0 + "act b . p . 1_0 = p; }",
     "2:53: unknown arrow 'b'"),
    (P0 + "act 1_1 . p . 1_0 = p; }",
     '2:59: action 1_1.p.1_0 is ill-typed'),
    (P0 + "act a . p . 1_0 = p; }",
     '2:67: result of a.p.1_0 lives in the wrong fiber'),
    (P0 + ("elt q : 0 -/-> 1;"
     " elt r : 0 -/-> 1;\n act a . p . 1_0 = q;\n act a . p . 1_0 = r; }"),
     '4:20: action a.p.1_0 stated twice with different results'),
    (P0 + ("elt q : 0 -/-> 0;"
     " act 1_0 . p . 1_0 = q; }"),
     "2:12: profunctor 'P' states an identity action moving 'p'"),
    (ONE + ("category Three { objects: 0, 1, 2; arrow a: 0 -> 1;"
     " arrow b: 1 -> 2; arrow ba: 0 -> 2; compose b . a = ba; }\n"
     "profunctor J : One -/-> Three { elt j : s -/-> 0; elt j1 : s -/-> 1;"
     " elt j2 : s -/-> 2; elt j3 : s -/-> 2;\n act a . j . 1_s = j1;"
     " act b . j1 . 1_s = j2; act ba . j . 1_s = j3; }"),
     "3:12: profunctor 'J' actions are inconsistent at ('1_s', 'j', 'ba')"),
    (P0 + "elt q : 0 -/-> 1; }",
     "2:12: profunctor 'P' does not determine the action a.p.1_0"),
    (CELLS + "cell {",
     "4:6: expected a cell name, found '{'"),
    (CELL + MAPS + " }\ncell c",
     "5:6: cell 'c' defined twice"),
    (CELLS + "cell c H",
     "4:8: expected ':', found 'H'"),
    (CELLS + "cell c : X",
     "4:10: unknown profunctor 'X'"),
    (CELLS + "cell c : H -> H",
     "4:12: expected '=>', found '->'"),
    (CELLS + "cell c : H => X",
     "4:15: unknown profunctor 'X'"),
    (CELLS + "cell c : H => H right",
     "4:17: expected keyword 'left', found 'right'"),
    (CELLS + "cell c : H => H {",
     "4:17: expected keyword 'left', found '{'"),
    (CELLS + "cell c : H => H left X",
     "4:22: unknown functor 'X'"),
    (CELLS + "cell c : H => H left Id left",
     "4:25: expected keyword 'right', found 'left'"),
    (CELLS + "cell c : H => H left Id right X",
     "4:31: unknown functor 'X'"),
    (CELLS + "cell c : H => H left Id right Id map",
     "4:34: expected '{', found 'map'"),
    (CELL + " obj",
     "4:36: expected keyword 'map', found 'obj'"),
    (CELL + " ; }",
     "4:36: expected keyword 'map', found ';'"),
    (CELL,
     "4:35: expected keyword 'map', found 'end of input'"),
    (CELL + " map h0 -> h0; }",
     "4:43: expected '=>', found '->'"),
    (CELL + " map h0 => ; }",
     "4:46: expected an element, found ';'"),
    (CELLS + ONE + "functor P : One -> Two { obj s => 0; }\n"
     "cell c : H => H left P right Id { }",
     "6:6: cell 'c' has mismatched boundaries"),
    (CELL + " map h0 => h0; map ha => ha; }",
     "4:6: cell 'c' misses element 'h1'"),
    (CELL + " map h0 => ha; map ha => ha; map h1 => h1; }",
     "4:40: image 'ha' is not in the expected fiber"),
    (TWO + ID + "profunctor D : Two -/-> Two { elt p : 0 -/-> 0;"
     " elt q : 0 -/-> 0; elt r : 1 -/-> 1; elt t : 0 -/-> 1;"
     " elt t2 : 0 -/-> 1; act a . p . 1_0 = t; act a . q . 1_0 = t2; act 1_1 . r . a = t; }\n"
     "cell c : D => D left Id right Id { map p => q; map q => p; map r => r;"
     " map t => t; map t2 => t2; }",
     "4:6: cell 'c' is not natural: naturality fails at (1_0, p, a)"),
    (CELL + "\n" + MAPS + "\n map zz => h0; }",
     "6:6: unknown element 'zz'"),
    (CELL + "\n" + MAPS + "\n map h0 => h0; map ha => h0; }",
     "6:20: image 'h0' is not in the expected fiber"),
    ("category One { objects: s; }\nfunctor Id : One -> One { obj s => s; }\n"
     "profunctor J : One -/-> One { elt j : s -/-> s; elt k : s -/-> s; }\n"
     "cell c : J => J left Id right Id {\n"
     " map j => j;\n map k => k;\n map j => k;\n}",
     '7:11: image of element j stated twice with different results'),

]


def test_every_error_site_reports_its_message_and_position():
    for text, message in ERROR_SITES:
        e = err(text)
        line, col, _ = message.split(":", 2)
        assert (str(e), e.line, e.col) == (message, int(line), int(col)), text


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


def parse_outcome(text, parsed=None):
    """Each profunctor's left and right action items, or the error
    message.  The profunctors go onto ``parsed`` too, when it is given."""
    try:
        ws = dsl.parse(text)
    except dsl.DslError as e:
        return str(e)
    if parsed is not None:
        parsed.extend(ws.profunctors.values())
    return [(n, list(p.left.items()), list(p.right.items()))
            for n, p in ws.profunctors.items()]


def test_action_closure_matches_all_pairs_oracle(monkeypatch):
    texts = closure_inputs() + list(helpers.fuzz_inputs(5_000))
    parsed = []
    new = [parse_outcome(t, parsed) for t in texts]
    # the parser does not validate what it builds: every profunctor parsed
    # here must be one
    assert [p.name for p in parsed if helpers.validate_profunctor(p)] == []
    monkeypatch.setattr(dsl.Parser, "_complete_action",
                        helpers.complete_action_oracle)
    assert [parse_outcome(t) for t in texts] == new
    # the inputs reach every outcome of the closure
    assert sum(1 for o in new if isinstance(o, list) and o) > 20
    errors = [o for o in new if isinstance(o, str)]
    for message in ("inconsistent at", "does not determine",
                    "identity action moving"):
        assert any(message in e for e in errors), message


def test_action_closure_checks_each_pair_once(monkeypatch):
    # the closure reads one composite of src per pair it checks; for the
    # hom of [7] it checks each pair (entry, entry acting on its result)
    # of the closed table once, 924 pairs, where sweeps that check every
    # such pair again in each sweep check 1,582
    reads = 0

    class Counting(dict):
        def __getitem__(self, key):
            nonlocal reads
            reads += 1
            return super().__getitem__(key)

    complete = dsl.Parser._complete_action

    def counted(parser, src, tgt, *rest):
        return complete(parser, dataclasses.replace(
            src, table=Counting(src.table)), tgt, *rest)

    monkeypatch.setattr(dsl.Parser, "_complete_action", counted)
    ord7 = helpers.chain(7)
    hom = unit_prof(ord7)
    ws = dsl.Workspace(categories={"Ord7": ord7}, profunctors={"Hom7": hom})
    assert dsl.parse(dsl.serialize(ws)) == ws
    closed = {(u, j, v): hom.act(u, a, b, j, v) for a, b, j in hom.elements()
              for u in ord7.into(a) for v in ord7.out_of(b)}
    acting_on = collections.Counter(j for _, j, _ in closed)
    assert reads == sum(acting_on[j2] for j2 in closed.values()) == 924


def category_inputs():
    """Categories serialized alone: the corpus, [1] to [4], G_22, Z/2 and
    the idempotent monoid, each with every compose line dropped or given
    every other arrow as result, and with five compose lines of random
    arrows added."""
    rng = random.Random(11)
    texts = []
    for cat in (helpers.corpus_categories() +
                [helpers.chain(n) for n in range(1, 5)] +
                [helpers.g_pq(2, 2), helpers.z2(), helpers.idempotent_monoid()]):
        lines = dsl.serialize(dsl.Workspace(categories={"C": cat})).split("\n")
        texts.append("\n".join(lines))
        for k, line in enumerate(lines):
            if line.lstrip().startswith("compose "):
                texts.append("\n".join(lines[:k] + lines[k + 1:]))
                head = line.split(" = ")[0]
                texts += ["\n".join(lines[:k] + [f"{head} = {h};"] +
                                    lines[k + 1:]) for h in cat.morphisms]
        for _ in range(5):
            g, f, h = (rng.choice(cat.morphisms) for _ in range(3))
            texts.append("\n".join(lines[:-2] + [f"  compose {g} . {f} = {h};"] +
                                   lines[-2:]))
    return texts


def test_category_validation_matches_all_pairs_oracle(monkeypatch):
    # every category the parser builds, valid or not
    compared = []

    def both(cat):
        problems = validate_category(cat)
        compared.append((problems, helpers.validate_category_oracle(cat)))
        return problems

    monkeypatch.setattr(dsl, "validate_category", both)
    texts = ([fixture_text()] + [text for text, _ in ERROR_SITES] +
             category_inputs() + list(helpers.fuzz_inputs(5_000)))
    for text in texts:
        try:
            dsl.parse(text)
        except dsl.DslError:
            pass
    assert all(new == old for new, old in compared)
    problems = [p for new, _ in compared for p in new]
    for fault in ("missing", "not composable", "ill-typed", "unit law",
                  "associativity"):
        assert any(fault in p for p in problems), fault


def test_left_actions_derived_through_both_sides():
    # j.a and k.a are stated nowhere on their own: closing u.j.a = y with
    # v.y = x gives j.a = v.u.j.a = x, and closing v.k = j with u.j.a = y
    # gives k.a = u.v.k.a = y.  A closure of each side on its own would
    # leave both undetermined and reject the block.
    text = (
        "category Two { objects: 0, 1; arrow a: 0 -> 1; }\n"
        "category Iso { objects: 0, 1; arrow u: 0 -> 1; arrow v: 1 -> 0;\n"
        "  compose v . u = 1_0; compose u . v = 1_1; }\n"
        "profunctor J : Two -/-> Iso {\n"
        "  elt x : 0 -/-> 0; elt y : 0 -/-> 1;\n"
        "  elt j : 1 -/-> 0; elt k : 1 -/-> 1;\n"
        "  act u . x . 1_0 = y; act v . y . 1_0 = x;\n"
        "  act u . j . 1_1 = k; act v . k . 1_1 = j;\n"
        "  act u . j . a = y;\n}\n")
    assert not any(line.startswith("  act 1_") for line in text.split("\n"))
    j = dsl.parse(text).profunctors["J"]
    assert j.act_left("a", "1", "0", "j") == "x"
    assert j.act_left("a", "1", "1", "k") == "y"



def token_outcome(tokenize, text):
    """The token stream, or the error's message, line and column."""
    try:
        return tokenize(text)
    except dsl.DslError as e:
        return str(e), e.line, e.col


# inputs that reach each branch of the tokenizer's grammar
TOKENIZER_EDGES = [
    "category C { objects: x; } # a comment and no final newline",
    "x\n# one comment\n  # and another\n\t",
    "category\tC\r\n{ objects:\tx;\r\n}\r\n",
    "category R\u00e9 { objects: x\u00b2, \u00e9_', _1; }",
    "-", "/", ">", "a - b", "x / y", "x > y",
    "profunctor J : C -/- D { }", "-/-", "-/", "--> =>> ->-/->",
    "", "#", "#\n", "x#y\nz",
]


def test_tokenizer_matches_symbol_first_oracle():
    texts = ([fixture_text()] + TOKENIZER_EDGES +
             list(helpers.fuzz_inputs(5_000)))
    for text in texts:
        assert token_outcome(helpers.tokenize, text) == \
            token_outcome(helpers.tokenize_oracle, text), repr(text)
    # the inputs reach both outcomes and every symbol
    outcomes = [token_outcome(helpers.tokenize, t) for t in texts]
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
