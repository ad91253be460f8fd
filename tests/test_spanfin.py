import ast
import dataclasses
import itertools
from pathlib import Path

import pytest

import helpers
from dblcat import fincat, spanfin, tab, zoo
from dblcat.fincat import (all_functors, find_isomorphism, identity_functor,
                           validate_category)
from dblcat.prof import (cells_between, companion, compose_prof, unit_prof)


def test_pullback_and_coequalizer():
    xs, f = ("x1", "x2"), {"x1": "z", "x2": "w"}
    ys, g = ("y1", "y2"), {"y1": "z", "y2": "z"}
    apex, p1, p2 = spanfin.pullback(xs, f, ys, g)
    assert apex == ("(x1,y1)", "(x1,y2)")
    assert p1["(x1,y1)"] == "x1" and p2["(x1,y2)"] == "y2"
    reps, proj = helpers.coequalizer(
        ("a",), {"a": "y1"}, {"a": "y2"}, ("y1", "y2", "y3"))
    assert reps == ("y1", "y3")
    assert proj == {"y1": "y1", "y2": "y1", "y3": "y3"}
    # two slides out of one element: a union links roots, and the blocks
    # are read off roots.  The composites of the corpus join each class
    # along so many slides that neither mistake changes a fiber there
    reps, proj = helpers.coequalizer(
        ("s", "t"), {"s": "y1", "t": "y1"}, {"s": "y2", "t": "y3"},
        ("y1", "y2", "y3"))
    assert reps == ("y1",)
    assert proj == {"y1": "y1", "y2": "y1", "y3": "y1"}


def test_fincat_round_trip():
    # a finite category is its own internal category; its unit internal
    # profunctor acts on its morphisms by composition
    for cat in helpers.corpus_categories():
        internal = spanfin.from_fincat(cat)
        assert internal is cat
        assert validate_category(internal) == []
        unit = spanfin.unit_internal_prof(internal)
        assert helpers.validate_internal_profunctor(unit) == []
        assert unit.het == cat.morphisms
        assert all(unit.l[(x, j)] == cat.table[(j, x)] for x, j in unit.l)


def test_validation_catches_broken_multiplication():
    two = zoo.walking_arrow()
    broken = dataclasses.replace(two, table={**two.table, ("a", "1_0"): "1_0"})
    assert "composite a . 1_0 = 1_0 ill-typed" in validate_category(broken)


def test_internal_units_build_their_actions_on_first_read():
    t = spanfin.internal_tabulate(
        spanfin.prof_bridge(unit_prof(helpers.chain(3))))
    assert not {"l", "r"} & set(vars(t.cell.hsrc))
    for c in helpers.corpus_categories() + [t.category]:
        unit, fresh = spanfin.unit_internal_prof(c), \
            spanfin.unit_internal_prof(c)
        assert unit == unit and hash(unit) == hash(fresh)
        assert not {"l", "r"} & set(vars(unit))
        l = {(x, j): c.table[(j, x)] for x in c.morphisms
             for j in c.out_of(c.tgt[x])}
        r = {(j, y): c.table[(y, j)] for j in c.morphisms
             for y in c.out_of(c.tgt[j])}
        assert list(unit.l.items()) == list(l.items())
        assert "r" not in vars(unit) and "_tables" in vars(unit)
        assert list(unit.r.items()) == list(r.items())
        assert "_tables" not in vars(unit)
        eager = spanfin.InternalProfunctor(unit.name, c, c, c.morphisms,
                                           dict(c.src), dict(c.tgt), l, r)
        assert fresh == eager and unit == eager
        # an unread unit reads its actions to tell them from changed ones
        for side, table in (("l", l), ("r", r)):
            broken = dataclasses.replace(
                eager, **{side: {**table, next(iter(table)): "moved"}})
            unread = spanfin.unit_internal_prof(c)
            assert unread != broken and broken != unread, (c.name, side)


def test_validation_reports_missing_endpoints():
    # with no endpoints the actions cannot be typed; each element missing
    # its endpoints is a problem to report, not an exception
    unit = spanfin.unit_internal_prof(zoo.walking_arrow())
    assert helpers.validate_internal_profunctor(
        dataclasses.replace(unit, d0={})) == [
            "endpoints of 1_0 missing", "endpoints of 1_1 missing",
            "endpoints of a missing"]


def test_validation_reports_missing_left_action():
    # a . 1_0 left out: the unit and associativity laws that read it are
    # not checked
    unit = spanfin.unit_internal_prof(zoo.walking_arrow())
    l = {k: v for k, v in unit.l.items() if k != ("1_0", "a")}
    assert helpers.validate_internal_profunctor(
        dataclasses.replace(unit, l=l)) == ["left action wrong on (1_0, a)"]


def test_internal_functor_enumeration_matches_ordinary():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    fs = spanfin.all_internal_functors(two, three)
    assert [f.name for f in fs] == [f.name for f in all_functors(two, three)]
    assert fs == all_functors(two, three)
    for f in fs:
        assert f.validate() == []


def test_unit_and_bridge_profunctors_validate():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    assert helpers.validate_internal_profunctor(
        spanfin.unit_internal_prof(two)) == []
    for p in helpers.profunctor_corpus()[:6]:
        assert helpers.validate_internal_profunctor(spanfin.prof_bridge(p)) == []


def test_internal_composition_matches_coend_cardinalities():
    # the span-level composite of the bridged pair has, over every (a, e),
    # as many heteromorphisms as compose_prof has classes
    pairs = helpers.composable_pairs(20)
    assert len(pairs) == 20
    for j, h in pairs:
        comp, _ = compose_prof(j, h)
        ij, ih = spanfin.prof_bridge(j), spanfin.prof_bridge(h)
        icomp, proj = helpers.internal_prof_compose(ij, ih)
        assert helpers.validate_internal_profunctor(icomp) == []
        total = sum(len(v) for v in comp.fibers.values())
        assert len(icomp.het) == total
        for a in j.source.objects:
            for e in h.target.objects:
                assert len(icomp.fiber(a, e)) == len(comp.fiber(a, e)), \
                    (j.name, h.name, a, e)


def prof_reads(tree, roots):
    """The top-level definitions of the module ``tree`` that ``roots``
    reach, by reading their names, and what they read of dblcat.prof: a
    name an import from dblcat.prof binds, or an attribute of a name bound
    to the module prof."""
    defs = {node.name: node for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.ClassDef))}
    from_prof, prof_modules = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "dblcat.prof":
            from_prof |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "dblcat":
            prof_modules |= {a.asname or a.name for a in node.names
                             if a.name == "prof"}
        elif isinstance(node, ast.Import):
            prof_modules |= {a.asname for a in node.names
                             if a.name == "dblcat.prof" and a.asname}
    reached, todo, reads = set(), list(roots), []
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in from_prof:
                    reads.append(node.id)
                elif node.id in defs:
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute) and \
                    getattr(node.value, "id", None) in prof_modules:
                reads.append(f"{node.value.id}.{node.attr}")
    return reached, reads


def test_span_level_composite_shares_no_code_with_prof():
    # the span-level composite in tests/helpers.py is the independent twin
    # of prof.compose_prof, so it and every helper it reads (its
    # coequalizer and union-find) read nothing from dblcat.prof
    roots = ["internal_prof_compose", "coequalizer", "UnionFind"]
    tree = ast.parse(Path(helpers.__file__).read_text(encoding="utf-8"))
    reached, reads = prof_reads(tree, roots)
    assert set(roots) <= reached and reads == []
    # the check sees a read through an imported name, renamed or not, and
    # through the module, in a helper that a root reads
    leaky = ast.parse(
        "from dblcat.prof import family_slots as pid, Profunctor\n"
        "from dblcat import prof, spanfin\n"
        "import dblcat.prof as dp\n\n\n"
        "def coequalizer(xs):\n"
        "    return pid(*xs), spanfin.pullback, dp.rhom\n\n\n"
        "class UnionFind:\n    def add(self, x):\n"
        "        return prof.compose_prof(x, x), Profunctor\n\n\n"
        "def internal_prof_compose(j, h):\n"
        "    return coequalizer(j), UnionFind()\n")
    assert sorted(prof_reads(leaky, ["internal_prof_compose"])[1]) == \
        ["Profunctor", "dp.rhom", "pid", "prof.compose_prof"]


def test_transformations_match_ordinary_cells():
    two = zoo.walking_arrow()
    j = unit_prof(two)
    ij = spanfin.prof_bridge(j)
    a = ij.source
    ident = identity_functor(a)
    ordinary = cells_between(j, j, identity_functor(two), identity_functor(two))
    internal = spanfin.all_internal_transformations(ij, ij, ident, ident)
    assert len(ordinary) == len(internal)
    for t in internal:
        assert helpers.validate_internal_transformation(t) == []


def test_internal_tabulation_of_walking_arrow_hom():
    j = spanfin.prof_bridge(unit_prof(zoo.walking_arrow()))
    t = spanfin.internal_tabulate(j)
    assert len(t.category.objects) == 3
    assert len(t.category.morphisms) == 6
    assert validate_category(t.category) == []
    assert t.proj_left.validate() == []
    assert t.proj_right.validate() == []
    assert helpers.validate_internal_transformation(t.cell) == []


def test_internal_tabulation_matches_ordinary_tabulation():
    # the two twins of each corpus profunctor: isomorphic tabulations, and
    # the same verdict from each verifier over the same configurations
    corpus = helpers.profunctor_corpus()
    assert len(corpus) == 18
    for p in corpus:
        t_int = spanfin.internal_tabulate(spanfin.prof_bridge(p))
        t_ord = tab.tabulate(p)
        assert find_isomorphism(t_int.category, t_ord.category) is not None
        ok_int, checked_int = spanfin.verify_internal_tabulation(t_int)
        ok_ord, checked_ord = tab.verify_tabulation(t_ord)
        assert ok_int and ok_ord, p.name
        assert checked_int["one_dimensional"] == \
            checked_ord["one_dimensional"] > 0, p.name
        assert checked_int["two_dimensional"] == \
            checked_ord["two_dimensional"] > 0, p.name


def tabulation_inputs():
    """The internal profunctor corpus, and the bridged hom profunctors of
    [n] for n <= 5 and of G22."""
    homs = [unit_prof(helpers.chain(n)) for n in range(6)]
    return helpers.internal_profunctor_corpus() + [
        spanfin.prof_bridge(p) for p in homs + [unit_prof(helpers.g_pq(2, 2))]]


def test_internal_tabulate_matches_product_oracle():
    # objects, arrow names in order, src and tgt, composites, projections
    # and the defining transformation, all as lists of items
    for j in tabulation_inputs():
        assert helpers.internal_tabulation_tables(
            spanfin.internal_tabulate(j)) == helpers.internal_tabulation_tables(
                helpers.internal_tabulate_oracle(j)), j.name


def test_pullback_matches_product_oracle():
    # the pullback that internal_prof_compose takes, over every composable
    # pair of the corpus, and the pullbacks of both actions of each input
    inputs = tabulation_inputs()
    compared = 0
    for j, h in itertools.product(helpers.internal_profunctor_corpus(),
                                  repeat=2):
        if j.target == h.source:
            args = (j.het, j.d1, h.het, h.d0)
            assert spanfin.pullback(*args) == helpers.pullback_oracle(*args)
            compared += 1
    for j in inputs:
        args = (list(j.r), j.r, list(j.l), j.l)
        assert spanfin.pullback(*args) == helpers.pullback_oracle(*args)
    assert compared > 100


def test_verify_internal_tabulation():
    two = zoo.walking_arrow()
    for p in [unit_prof(two), companion(zoo.pick(two, "0"))]:
        t = spanfin.internal_tabulate(spanfin.prof_bridge(p))
        ok, checked = spanfin.verify_internal_tabulation(t)
        assert ok, checked
        assert checked["one_dimensional"] > 0
        assert checked["two_dimensional"] > 0
        assert checked["opcartesian"] > 0


def test_verify_internal_tabulation_takes_plain_categories_as_probes():
    # one one-dimensional check per object of T from the terminal category
    # and one per arrow of T from the walking arrow
    t = spanfin.internal_tabulate(
        spanfin.prof_bridge(unit_prof(zoo.walking_arrow())))
    ok, checked = spanfin.verify_internal_tabulation(
        t, [zoo.terminal_category(), zoo.walking_arrow()])
    assert ok, checked
    assert checked["one_dimensional"] == 3 + 6
    assert checked["two_dimensional"] > 0
    assert checked["opcartesian"] > 0
    assert zoo.tabulation_probes() == [
        zoo.terminal_category(), zoo.walking_arrow(), zoo.parallel_pair()]


def test_object_part_round_trip():
    two = zoo.walking_arrow()
    x = zoo.composable_pair()
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
    x, pp = zoo.walking_arrow(), zoo.parallel_pair()
    k = spanfin.prof_bridge(unit_prof(pp))
    fs = spanfin.all_internal_functors(x, k.source)
    f = next(h for h in fs if h.mor.get("a") == "s")
    g = next(h for h in fs if h.mor.get("a") == "t")
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


def test_verify_internal_tabulation_matches_slow_twin():
    probes = zoo.tabulation_probes()
    for p in helpers.profunctor_corpus()[:8]:
        t = spanfin.internal_tabulate(spanfin.prof_bridge(p))
        ok, checked = spanfin.verify_internal_tabulation(t, probes)
        assert ok
        assert (ok, checked) == \
            helpers.verify_internal_tabulation_oracle(t, probes)


def test_verify_internal_tabulation_matches_slow_twin_over_iso_and_three():
    # probes with an isomorphism and with a composite, where the oracle's
    # internal transformations between units and the verifier's natural
    # transformations meet larger hom-sets than over the default probes
    probes = [zoo.iso_pair(), zoo.composable_pair()]
    checked = {"one_dimensional": 0, "two_dimensional": 0, "opcartesian": 0}
    for p in helpers.profunctor_corpus():
        t = spanfin.internal_tabulate(spanfin.prof_bridge(p))
        ok, report = spanfin.verify_internal_tabulation(t, probes)
        assert ok, (p.name, report)
        assert (ok, report) == \
            helpers.verify_internal_tabulation_oracle(t, probes)
        for stage in checked:
            checked[stage] += report[stage]
    assert checked == {"one_dimensional": 349, "two_dimensional": 2856,
                       "opcartesian": 902}


@pytest.mark.parametrize("probes, internal, natural", [
    ([zoo.terminal_category(), zoo.walking_arrow()], 20, 49),
    (zoo.tabulation_probes(), 38, 94),
])
def test_verify_internal_tabulation_searches_each_functor_pair_once(
        monkeypatch, probes, internal, natural):
    # the verifier is a decision, so each search of natural transformations
    # is built once per functor pair, and the xi_a and xi_b of a pair of
    # configurations share it when A is B, as here.  When it searched its
    # 2-cells as internal transformations, kept in a memo of its own, it
    # ran 69 and 132 searches of them.  Every internal transformation left
    # goes out of a probe's unit into J or out of J into a probe's unit, so
    # the units of A, B and <J> stay unbuilt
    real, calls = spanfin.all_internal_transformations, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spanfin, "all_internal_transformations", counting)
    t = spanfin.internal_tabulate(
        spanfin.prof_bridge(unit_prof(helpers.chain(2))))
    builds = helpers.count_builds(monkeypatch,
                                  fincat.all_natural_transformations)
    units = helpers.count_builds(monkeypatch, spanfin.unit_internal_prof)
    ok, checked = spanfin.verify_internal_tabulation(t, probes)
    assert (len(calls), len(set(calls))) == (internal, internal)
    assert all(t.j in (j, k) for j, k, _, _ in calls)
    assert (len(builds), len(set(builds))) == (natural, natural)
    assert units == [(x,) for x in probes]
    assert "l" not in vars(t.cell.hsrc) and "r" not in vars(t.cell.hsrc)
    assert ok
    assert (ok, checked) == helpers.verify_internal_tabulation_oracle(t, probes)


@pytest.mark.parametrize("stage", ["one-dimensional", "two-dimensional",
                                   "opcartesian"])
@pytest.mark.parametrize("change, count", [(lambda out: out + out, 2),
                                           (lambda out: [], 0)])
def test_verify_internal_tabulation_counts_hits_like_its_slow_twin(
        monkeypatch, stage, change, count):
    # double or drop the candidates of one stage, so that its hits are no
    # longer unique; the filed lookups must count them as the scans do.
    # The verifier searches the lifts as natural transformations between
    # functors into T, its slow twin as internal transformations into the
    # unit of T: both are changed alike
    t = spanfin.internal_tabulate(
        spanfin.prof_bridge(unit_prof(zoo.walking_arrow())))
    if stage == "one-dimensional":
        hits = {(spanfin, "all_internal_functors"): lambda a, b: b is t.category}
    elif stage == "two-dimensional":
        hits = {(fincat, "all_natural_transformations"):
                lambda f, g: f.target is t.category,
                (spanfin, "all_internal_transformations"):
                lambda j, k, f, g: k.source is t.category}
    else:
        hits = {(spanfin, "all_internal_transformations"):
                lambda j, k, f, g: j is t.j}
    helpers.change_results(monkeypatch, hits, change)
    probes = zoo.tabulation_probes()
    ok, report = spanfin.verify_internal_tabulation(t, probes)
    assert not ok and report["stage"] == stage and report["count"] == count
    assert (ok, report) == helpers.verify_internal_tabulation_oracle(t, probes)


def test_opcartesian_stage_files_each_cell_under_its_whole_induced_map(
        monkeypatch):
    # beside each list of cells out of J, a copy of its first cell that
    # differs at one element only, which is not the image of the first
    # arrow of T: it induces another map out of unit(T), so it must hit no
    # chi
    t = spanfin.internal_tabulate(
        spanfin.prof_bridge(unit_prof(zoo.walking_arrow())))
    first_image = t.cell.map[t.category.morphisms[0]]
    last = next(x for x in reversed(t.j.het) if x != first_image)
    real = spanfin.all_internal_transformations
    near = []

    def with_a_near_copy(j, k, f, g):
        out = real(j, k, f, g)
        if j is not t.j or not out:
            return out
        first = out[0]
        others = [y for y in k.het if y != first.map[last]]
        if not others:
            return out
        near.append(dataclasses.replace(first,
                                        map={**first.map, last: others[0]}))
        return out + near[-1:]

    monkeypatch.setattr(spanfin, "all_internal_transformations",
                        with_a_near_copy)
    probes = zoo.tabulation_probes()
    result = spanfin.verify_internal_tabulation(t, probes)
    assert near and result[0], result
    assert result == helpers.verify_internal_tabulation_oracle(t, probes)


def test_hash_agrees_with_equality_for_internal_transformations():
    # as for cells, pairs are compared per (J, K) of a distinct corpus
    corpus = helpers.internal_profunctor_corpus()[::2]
    corpus = [p for n, p in enumerate(corpus) if p not in corpus[:n]]
    total = 0
    for j, k in itertools.product(corpus, repeat=2):
        ts = [t for f in all_functors(j.source, k.source)[:2]
              for g in all_functors(j.target, k.target)[:2]
              for t in spanfin.all_internal_transformations(j, k, f, g)]
        copies = [helpers.reversed_copy(t, "map") for t in ts]
        assert all(c == t and hash(c) == hash(t) for t, c in zip(ts, copies))
        bad, equal = helpers.hash_disagreements(ts + copies)
        assert not bad and equal >= len(ts)
        total += len(ts)
    assert (len(corpus), total) == (11, 245)
