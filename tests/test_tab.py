import pytest

import helpers
from dblcat import fincat, kan, prof, tab, zoo
from dblcat.fincat import (FinCategory, all_functors,
                           all_natural_transformations, comma_category,
                           find_isomorphism, identity_functor,
                           validate_category)
from dblcat.prof import companion, unit_prof, validate_cell, validate_profunctor


def test_tabulation_of_walking_arrow_hom():
    t = tab.tabulate(unit_prof(zoo.walking_arrow()))
    # triples: (0, 1_0, 0), (0, a, 1), (1, 1_1, 1)
    assert set(t.category.objects) == {"(0,1_0,0)", "(0,a,1)", "(1,1_1,1)"}
    assert len(t.category.morphisms) == 6
    assert validate_category(t.category) == []
    assert t.proj_left.validate() == []
    assert t.proj_right.validate() == []
    assert validate_cell(t.cell) == []


def test_tabulation_universal_properties():
    two = zoo.walking_arrow()
    for j in [unit_prof(two), companion(zoo.pick(two, "0"))]:
        t = tab.tabulate(j)
        ok, report = tab.verify_tabulation(t)
        assert ok, report
        assert report["one_dimensional"] > 0
        assert report["two_dimensional"] > 0


def test_tabulations_are_opcartesian():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    for j in [unit_prof(two), unit_prof(three),
              companion(all_functors(two, three)[2])]:
        t = tab.tabulate(j)
        assert tab.is_opcartesian_tabulation(t)


def test_tabulation_over_corpus_is_well_formed():
    for j in helpers.profunctor_corpus():
        t = tab.tabulate(j)
        assert validate_category(t.category) == []
        assert t.proj_left.validate() == []
        assert t.proj_right.validate() == []
        assert validate_cell(t.cell) == []


def non_identity_composites(cat):
    return [(k, v) for k, v in cat.table.items()
            if not cat.is_identity(k[0]) and not cat.is_identity(k[1])]


def isomorphism_categories():
    """Categories with non-identity arrows whose composites are identities
    (Iso, Z/2) or repeat (the idempotent monoid, G22's hom-sets)."""
    return [zoo.iso_pair(), helpers.z2(), helpers.idempotent_monoid(),
            helpers.g_pq(2, 2)]


def identity_composites(cat):
    """The composites of two non-identity arrows that are identities."""
    return sum(cat.is_identity(h) for (g, f), h in
               non_identity_composites(cat))


def test_tabulation_indexes_and_composites_match_scans():
    corpus = helpers.profunctor_corpus() + [unit_prof(helpers.chain(n))
                                            for n in range(1, 5)]
    corpus += [unit_prof(c) for c in isomorphism_categories()]
    on_identities = {}
    for j in corpus:
        t = tab.tabulate(j)
        assert helpers.indexes_agree_with_scans(t.category), j.name
        assert non_identity_composites(t.category) == \
            helpers.pair_composites_oracle(t.category, t.proj_left,
                                           t.proj_right), j.name
        on_identities[j.name] = identity_composites(t.category)
    assert {name: n for name, n in on_identities.items() if n} == \
        {"1_Iso": 12, "1_Z2": 6}


def test_comma_category_composites_match_all_pairs_oracle():
    cats = [zoo.walking_arrow(), zoo.composable_pair(), helpers.chain(4)]
    functors = helpers.corpus_functors(cats, limit_per_pair=3)
    functors += helpers.corpus_functors(isomorphism_categories(), limit_per_pair=3)
    on_identities = 0
    for f in functors:
        for g in functors:
            if f.target != g.target:
                continue
            cc = comma_category(f, g)
            assert helpers.indexes_agree_with_scans(cc.category)
            assert non_identity_composites(cc.category) == \
                helpers.pair_composites_oracle(cc.category, cc.proj_left,
                                               cc.proj_right)
            on_identities += identity_composites(cc.category)
    assert on_identities == 1577


def test_tabulation_leaves_the_tables_of_its_unit_unbuilt():
    t = tab.tabulate(unit_prof(helpers.chain(7)))
    unit = t.cell.hsrc
    assert len(unit.elements()) == len(t.category.morphisms) == 336
    assert "left" not in vars(unit) and "right" not in vars(unit)
    assert helpers.profunctor_tables(unit) == \
        helpers.profunctor_tables(helpers.unit_prof_eager(t.category))
    assert vars(unit)["left"] is unit.left


def assert_table_built_on_first_read(build, first_read):
    """Two categories from ``build()`` keep no table through construction,
    counting and self-comparison; ``first_read`` holds of the first, and
    the second equals an eager copy of the first, and not the copy one
    entry short."""
    first, fresh = build(), build()
    for cat in (first, fresh):
        assert "table" not in vars(cat)
        assert len(cat.objects) <= len(cat.morphisms)
        assert cat == cat and hash(cat) == hash((cat.objects, cat.morphisms))
        assert "table" not in vars(cat)
    assert first_read(first), first.name
    assert "_tables" not in vars(first)     # nor the data it built from
    eager = FinCategory(first.name, first.objects, first.morphisms, first.src,
                        first.tgt, first.identities, dict(first.table))
    assert fresh == eager and hash(fresh) == hash(eager)
    assert "table" in vars(fresh)
    if eager.table:
        short = dict(eager.table)
        short.popitem()
        assert fresh != FinCategory(first.name, first.objects,
                                    first.morphisms, first.src, first.tgt,
                                    first.identities, short)


def test_categories_of_elements_build_their_tables_on_first_read():
    # a tabulation, comma object, comma category or category of elements
    # read for its objects and arrows composes none of them
    one, two, three = (zoo.terminal_category(), zoo.walking_arrow(),
                       zoo.composable_pair())
    profs = helpers.profunctor_corpus() + \
        [unit_prof(helpers.chain(n)) for n in range(6)]
    for j in profs:
        assert_table_built_on_first_read(
            lambda: tab.tabulate(j).category,
            lambda cat: helpers.category_tables(cat) == helpers.category_tables(
                helpers.tabulate_oracle(j).category))
        for a in j.source.objects:
            assert_table_built_on_first_read(
                lambda: kan.elements_category(j, a)[0],
                lambda cat: list(cat.table) == helpers.table_keys(cat) and
                cat.table == helpers.elements_table_oracle(
                    *kan.elements_category(j, a), j, a))
    functors = all_functors(two, three) + all_functors(one, three)
    pairs = [(f, g) for f in functors for g in functors] + \
        [(identity_functor(j.source),) * 2 for j in profs]
    for f, g in pairs:
        assert_table_built_on_first_read(
            lambda: comma_category(f, g).category,
            lambda cat: helpers.category_tables(cat) == helpers.category_tables(
                helpers.comma_category_oracle(f, g).category))
        assert_table_built_on_first_read(
            lambda: tab.comma_object(f, g).category,
            lambda cat: helpers.category_tables(cat) == helpers.category_tables(
                helpers.tabulate_oracle(prof.cartesian_cell(
                    unit_prof(f.target), f, g).hsrc).category))
    assert len(pairs) == 81 + len(profs)


def assert_cell_built_on_first_read(cell, want):
    """``cell`` keeps its components unbuilt while its name and boundary
    are read and it is compared with itself; once read, they are
    ``want``'s, item by item and in order, and the hook that built them is
    dropped."""
    assert "comp" not in vars(cell)
    assert (cell.name, cell.hsrc, cell.htgt, cell.vsrc, cell.vtgt) == \
        (want.name, want.hsrc, want.htgt, want.vsrc, want.vtgt)
    assert cell == cell
    assert "comp" not in vars(cell)
    assert list(cell.comp.items()) == list(want.comp.items()), cell.name
    assert "_tables" not in vars(cell)
    assert cell == want and hash(cell) == hash(want)


def comma_pairs():
    """Pairs of functors with a common target: every pair among the
    functors into the composable pair out of the walking arrow and the
    terminal category, then the identity of each corpus source twice."""
    one, two, three = (zoo.terminal_category(), zoo.walking_arrow(),
                       zoo.composable_pair())
    functors = all_functors(two, three) + all_functors(one, three)
    return [(f, g) for f in functors for g in functors] + \
        [(identity_functor(j.source),) * 2
         for j in helpers.profunctor_corpus()]


def test_defining_cells_are_built_on_first_read():
    for j in helpers.tabulation_corpus():
        assert_cell_built_on_first_read(tab.tabulate(j).cell,
                                        helpers.tabulate_oracle(j).cell)
    for f, g in comma_pairs():
        cart = prof.cartesian_cell(unit_prof(f.target), f, g)
        want = prof.vcompose(cart, helpers.tabulate_oracle(cart.hsrc).cell)
        assert "comp" in vars(want)         # the oracle's cell is built
        assert_cell_built_on_first_read(tab.comma_object(f, g).cell, want)


def test_vertical_composites_with_an_unread_side_are_built_on_first_read():
    for j in helpers.profunctor_corpus():
        old = helpers.tabulate_oracle(j).cell
        below, above = (prof.identity_cell(j),
                        prof.identity_cell(old.hsrc))
        for paste, want in (
                (lambda t: prof.vcompose(below, t.cell),
                 prof.vcompose(below, old)),
                (lambda t: prof.vcompose(t.cell, above),
                 prof.vcompose(old, above)),
                (lambda t: prof.vcompose(below, prof.vcompose(t.cell, above)),
                 prof.vcompose(below, prof.vcompose(old, above)))):
            t = tab.tabulate(j)
            pasted = paste(t)
            assert "comp" not in vars(t.cell)     # pasting reads no side
            assert_cell_built_on_first_read(pasted, want)
            # a side once read counts as built
            assert "comp" in vars(paste(t))


def test_comma_object_matches_comma_category():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    configs = [
        (zoo.pick(two, "0"), identity_functor(two)),
        (identity_functor(two), zoo.pick(two, "1")),
        (all_functors(two, three)[1], all_functors(two, three)[2]),
    ]
    for f, g in configs:
        co = tab.comma_object(f, g)
        assert validate_cell(co.cell) == []
        cc = comma_category(f, g)
        iso = find_isomorphism(co.category, cc.category)
        assert iso is not None


def test_comma_object_cell_boundaries():
    two = zoo.walking_arrow()
    f = zoo.pick(two, "0")
    co = tab.comma_object(f, identity_functor(two))
    assert co.cell.vsrc.obj == {o: f.obj[co.proj_left.obj[o]]
                                for o in co.category.objects}


def test_comma_object_restricts_the_hom_profunctor_once(monkeypatch):
    calls, restrict = [], prof.restrict

    def counted(*args):
        calls.append(args)
        return restrict(*args)

    for module in (prof, tab):      # each module that holds it by name
        if hasattr(module, "restrict"):
            monkeypatch.setattr(module, "restrict", counted)
    two = zoo.walking_arrow()
    tab.comma_object(zoo.pick(two, "0"), identity_functor(two))
    assert len(calls) == 1


def test_ran_via_tabulation_agrees_with_pointwise():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    d = identity_functor(three)
    for f in all_functors(two, three):
        cand = kan.pointwise_ran(companion(f), d)
        assert tab.ran_via_tabulation(cand)
        assert tab.ran_via_tabulation(cand) == kan.is_pointwise_ran(cand)


def test_ran_via_tabulation_rejects_non_extensions():
    from dblcat.prof import cells_between
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    d = identity_functor(three)
    j = companion(all_functors(two, three)[2])
    um = unit_prof(three)
    agree = []
    for s in all_functors(two, three):
        for eps in cells_between(j, um, s, d):
            cand = kan.RanCandidate(j, d, s, eps)
            agree.append(
                tab.ran_via_tabulation(cand) == kan.is_pointwise_ran(cand))
    assert agree and all(agree)


def test_comma_category_matches_old_builder():
    functors = helpers.corpus_functors()
    pairs = 0
    for f in functors:
        for g in functors:
            if f.target != g.target:
                continue
            new, old = comma_category(f, g), helpers.comma_category_oracle(f, g)
            assert helpers.category_tables(new.category) == \
                helpers.category_tables(old.category)
            for p, q in ((new.proj_left, old.proj_left),
                         (new.proj_right, old.proj_right)):
                assert p.name == q.name
                assert helpers.projection_tables(p) == \
                    helpers.projection_tables(q)
            assert list(new.components.items()) == \
                list(old.components.items())
            pairs += 1
    assert pairs == 3177


def test_tabulation_matches_old_builder():
    for j in helpers.tabulation_corpus():
        new, old = tab.tabulate(j), helpers.tabulate_oracle(j)
        assert helpers.category_tables(new.category) == \
            helpers.category_tables(old.category), j.name
        for p, q in ((new.proj_left, old.proj_left),
                     (new.proj_right, old.proj_right)):
            assert helpers.projection_tables(p) == helpers.projection_tables(q)
        assert (new.cell.name, new.cell.hsrc, new.cell.htgt) == \
            (old.cell.name, old.cell.hsrc, old.cell.htgt)
        assert (new.cell.vsrc, new.cell.vtgt) == (old.cell.vsrc, old.cell.vtgt)
        assert list(new.cell.comp.items()) == list(old.cell.comp.items())


def test_verify_tabulation_runs_each_functor_search_once(monkeypatch):
    searches = helpers.count_builds(monkeypatch, all_functors)
    t = tab.tabulate(unit_prof(helpers.chain(2)))
    counts = []
    for _ in range(2):
        searches.clear()
        assert tab.verify_tabulation(t) == \
            (True, {"one_dimensional": 15, "two_dimensional": 46})
        assert len(set(searches)) == len(searches)
        counts.append(len(searches))
    # X -> [2] and X -> <J> per probe X; nothing is kept between calls
    assert counts == [6, 6]


def test_verify_tabulation_runs_each_cell_search_once(monkeypatch):
    t = tab.tabulate(unit_prof(helpers.chain(2)))
    searches = helpers.count_builds(monkeypatch, tab.cells_between)
    units = helpers.count_builds(monkeypatch, unit_prof)
    transformations = helpers.count_builds(
        monkeypatch, fincat.all_natural_transformations)
    probes = zoo.tabulation_probes()
    counts = []
    for _ in range(2):
        for built in (searches, units, transformations):
            built.clear()
        assert tab.verify_tabulation(t, probes) == \
            (True, {"one_dimensional": 15, "two_dimensional": 46})
        for built in (searches, units, transformations):
            assert len(set(built)) == len(built)
        # every cell goes out of a probe's unit into J, and the squares
        # and lifts are natural transformations, so no other unit is built
        assert all(k is t.j for _, k, _, _ in searches)
        assert units == [(x,) for x in probes]
        counts.append((len(searches), len(units), len(transformations)))
    assert counts == [(22, 3, 68), (22, 3, 68)]


def test_verify_tabulation_compares_no_two_profunctors(monkeypatch):
    # J is built outside the decision, equal to the unit of its source;
    # the verifier builds no unit of [4] or of <J>, so no memo hit compares
    # two profunctors, and the defining cell's unit stays unread
    compared, equal = [], prof.Profunctor.__eq__

    def counted(self, other):
        if self is not other:
            compared.append((self.name, other.name))
        return equal(self, other)

    monkeypatch.setattr(prof.Profunctor, "__eq__", counted)
    t = tab.tabulate(unit_prof(helpers.chain(4)))
    assert tab.verify_tabulation(t) == \
        (True, {"one_dimensional": 110, "two_dimensional": 1824})
    assert compared == []
    assert "left" not in vars(t.cell.hsrc) and "right" not in vars(t.cell.hsrc)


def test_natural_transformations_list_as_cells_between_units():
    # the verifier's squares and lifts, and so its failure witness, keep
    # the order of the cell searches between units that they replaced
    cats = [zoo.terminal_category(), zoo.walking_arrow(), zoo.parallel_pair(),
            zoo.discrete(2), zoo.iso_pair(), zoo.composable_pair(),
            helpers.z2()]
    pairs = 0
    for x in cats:
        for a in cats + [helpers.idempotent_monoid(), helpers.chain(3)]:
            functors = all_functors(x, a)
            for f in functors:
                for g in functors:
                    cells = prof.cells_between(unit_prof(x), unit_prof(a), f, g)
                    assert [tuple(map(xi, x.objects)) for xi in
                            all_natural_transformations(f, g)] == \
                        [tuple(c.comp[(o, o, x.identity(o))]
                               for o in x.objects) for c in cells]
                    pairs += 1
    assert pairs == 1007


def test_verify_tabulation_matches_slow_twin():
    probes = zoo.tabulation_probes()
    for j in helpers.tabulation_corpus():
        t = tab.tabulate(j)
        ok, report = tab.verify_tabulation(t, probes)
        assert ok, (j.name, report)
        assert (ok, report) == helpers.verify_tabulation_oracle(t, probes)


def test_verify_tabulation_matches_slow_twin_over_iso_and_three():
    # probes with an isomorphism and with a composite, where the oracle's
    # cells between units and the verifier's transformations meet larger
    # hom-sets than over the default probes
    probes = [zoo.iso_pair(), zoo.composable_pair()]
    checked = 0
    for j in helpers.profunctor_corpus():
        t = tab.tabulate(j)
        ok, report = tab.verify_tabulation(t, probes)
        assert ok, (j.name, report)
        assert (ok, report) == helpers.verify_tabulation_oracle(t, probes)
        checked += report["two_dimensional"]
    assert checked == 2856


@pytest.mark.parametrize("stage", ["one-dimensional", "two-dimensional"])
@pytest.mark.parametrize("change, count", [(lambda out: out + out, 2),
                                           (lambda out: [], 0)])
def test_verify_tabulation_counts_hits_like_its_slow_twin(
        monkeypatch, stage, change, count):
    # double or drop the functors X -> <J>, or the lifts, so that
    # factorizations are no longer unique; the filed lookups must count
    # them as the scans do.  The verifier searches the lifts as natural
    # transformations between functors into <J>, its slow twin as cells
    # between the units of X and <J>: both are changed alike
    t = tab.tabulate(unit_prof(zoo.walking_arrow()))
    if stage == "one-dimensional":
        hits = {(tab, "all_functors"): lambda a, m: m is t.category}
    else:
        hits = {(fincat, "all_natural_transformations"):
                lambda f, g: f.target is t.category,
                (tab, "cells_between"): lambda j, k, *_: k.source is t.category}
    helpers.change_results(monkeypatch, hits, change)
    probes = zoo.tabulation_probes()
    ok, report = tab.verify_tabulation(t, probes)
    assert not ok and report["stage"] == stage and report["count"] == count
    assert (ok, report) == helpers.verify_tabulation_oracle(t, probes)
