import itertools

import pytest

import helpers
from dblcat import spanfin, tab, zoo
from dblcat.fincat import (all_functors, find_isomorphism, identity_functor,
                           validate_category)
from dblcat.prof import (cells_between, companion, compose_prof, unit_prof)


def test_pullback_and_coequalizer():
    xs, f = ("x1", "x2"), {"x1": "z", "x2": "w"}
    ys, g = ("y1", "y2"), {"y1": "z", "y2": "z"}
    apex, p1, p2 = spanfin.pullback(xs, f, ys, g)
    assert apex == ("(x1,y1)", "(x1,y2)")
    assert p1["(x1,y1)"] == "x1" and p2["(x1,y2)"] == "y2"
    reps, proj = spanfin.coequalizer(
        ("a",), {"a": "y1"}, {"a": "y2"}, ("y1", "y2", "y3"))
    assert reps == ("y1", "y3")
    assert proj == {"y1": "y1", "y2": "y1", "y3": "y3"}


def test_fincat_round_trip():
    for cat in zoo.corpus_categories():
        internal = spanfin.from_fincat(cat)
        assert spanfin.validate_internal_category(internal) == []
        back = spanfin.to_fincat(internal)
        assert back == cat
        assert validate_category(back) == []


def test_validation_catches_broken_multiplication():
    two = spanfin.from_fincat(zoo.walking_arrow())
    bad_m = dict(two.m)
    bad_m[("1_0", "a")] = "1_0"
    broken = spanfin.InternalCategory(two.name, two.obj, two.arr,
                                      two.d0, two.d1, two.e, bad_m)
    assert spanfin.validate_internal_category(broken)


def test_internal_functor_enumeration_matches_ordinary():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    a, b = spanfin.from_fincat(two), spanfin.from_fincat(three)
    fs = spanfin.all_internal_functors(a, b)
    assert len(fs) == len(all_functors(two, three))
    for f in fs:
        assert f.validate() == []


def test_unit_and_bridge_profunctors_validate():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    assert spanfin.validate_internal_profunctor(
        spanfin.unit_internal_prof(spanfin.from_fincat(two))) == []
    for p in helpers.profunctor_corpus()[:6]:
        assert spanfin.validate_internal_profunctor(spanfin.prof_bridge(p)) == []


def test_internal_composition_matches_coend_cardinalities():
    pairs = [(j, h) for j, h in helpers.composable_pairs(20)]
    for j, h in pairs[:10]:
        comp, _ = compose_prof(j, h)
        ij, ih = spanfin.prof_bridge(j), spanfin.prof_bridge(h)
        icomp, proj = spanfin.internal_prof_compose(ij, ih)
        assert spanfin.validate_internal_profunctor(icomp) == []
        total = sum(len(v) for v in comp.fibers.values())
        assert len(icomp.het) == total


def test_transformations_match_ordinary_cells():
    two = zoo.walking_arrow()
    j = unit_prof(two)
    ij = spanfin.prof_bridge(j)
    a = ij.source
    ident = spanfin.internal_identity(a)
    ordinary = cells_between(j, j, identity_functor(two), identity_functor(two))
    internal = spanfin.all_internal_transformations(ij, ij, ident, ident)
    assert len(ordinary) == len(internal)
    for t in internal:
        assert spanfin.validate_internal_transformation(t) == []


def test_internal_tabulation_of_walking_arrow_hom():
    j = spanfin.prof_bridge(unit_prof(zoo.walking_arrow()))
    t = spanfin.internal_tabulate(j)
    assert len(t.category.obj) == 3
    assert len(t.category.arr) == 6
    assert spanfin.validate_internal_category(t.category) == []
    assert t.proj_left.validate() == []
    assert t.proj_right.validate() == []
    assert spanfin.validate_internal_transformation(t.cell) == []


def test_internal_tabulation_matches_ordinary_tabulation():
    two = zoo.walking_arrow()
    for p in [unit_prof(two), companion(zoo.pick(two, "0"))]:
        t_int = spanfin.internal_tabulate(spanfin.prof_bridge(p))
        t_ord = tab.tabulate(p)
        iso = find_isomorphism(spanfin.to_fincat(t_int.category),
                               t_ord.category)
        assert iso is not None


def test_verify_internal_tabulation():
    two = zoo.walking_arrow()
    for p in [unit_prof(two), companion(zoo.pick(two, "0"))]:
        t = spanfin.internal_tabulate(spanfin.prof_bridge(p))
        ok, checked = spanfin.verify_internal_tabulation(t)
        assert ok, checked
        assert checked["one_dimensional"] > 0
        assert checked["two_dimensional"] > 0
        assert checked["opcartesian"] > 0


def test_object_part_round_trip():
    two = zoo.walking_arrow()
    x = spanfin.from_fincat(zoo.composable_pair())
    k = spanfin.prof_bridge(unit_prof(two))
    for f in spanfin.all_internal_functors(x, k.source):
        for g in spanfin.all_internal_functors(x, k.target):
            for t in spanfin.all_internal_transformations(
                    spanfin.unit_internal_prof(x), k, f, g):
                phi0 = spanfin.transf_object_part(t)
                back = spanfin.transf_from_object_part(x, k, f, g, phi0)
                assert back is not None
                assert back.map == t.map
                assert spanfin.transf_object_part(back) == phi0


def test_incompatible_object_part_is_rejected():
    # two boundary functors into the parallel pair that disagree on the
    # arrow leave the forced object part with no compatible square
    two, pp = zoo.walking_arrow(), zoo.parallel_pair()
    x = spanfin.from_fincat(two)
    k = spanfin.prof_bridge(unit_prof(pp))
    fs = spanfin.all_internal_functors(x, k.source)
    f = next(h for h in fs if h.arr_map.get("a") == "s")
    g = next(h for h in fs if h.arr_map.get("a") == "t")
    phi0 = {"0": "(0|1_0|0)", "1": "(1|1_1|1)"}
    assert spanfin.transf_from_object_part(x, k, f, g, phi0) is None
    assert spanfin.transf_from_object_part(x, k, f, f, phi0) is not None


def test_transformation_search_matches_product_oracle():
    # every boundary pair whose product has at most 216 candidates, since
    # the product loop validates each of them; the bound keeps 5,889 of the
    # corpus's 9,813 boundary pairs
    compared = 0
    corpus = helpers.internal_profunctor_corpus()
    for j in corpus:
        for k in corpus:
            if len(k.het) ** len(j.het) > 216:
                continue
            for f in spanfin.all_internal_functors(j.source, k.source):
                for g in spanfin.all_internal_functors(j.target, k.target):
                    got = spanfin.all_internal_transformations(j, k, f, g)
                    want = helpers.internal_transformations_oracle(j, k, f, g)
                    assert [(t.name, t.map) for t in got] == \
                        [(t.name, t.map) for t in want]
                    compared += 1
    assert compared > 5000


@pytest.mark.parametrize("n, one_dimensional", [(2, 15), (3, 46)])
def test_verify_internal_tabulation_of_chains(n, one_dimensional):
    # each one-dimensional check is one functor X -> T from a probe X into
    # the poset T of pairs i <= j: one per object of T from the terminal
    # category, one per arrow of T (identities included) from the walking
    # arrow and from the parallel pair alike
    arrows = sum(1 for i, j, i2, j2 in itertools.product(range(n), repeat=4)
                 if i <= j and i <= i2 and j <= j2 and i2 <= j2)
    assert n * (n + 1) // 2 + 2 * arrows == one_dimensional
    t = spanfin.internal_tabulate(
        spanfin.prof_bridge(unit_prof(helpers.chain(n))))
    ok, checked = spanfin.verify_internal_tabulation(t)
    assert ok, checked
    assert checked["one_dimensional"] == one_dimensional
    assert checked["two_dimensional"] > 0
    assert checked["opcartesian"] > 0
