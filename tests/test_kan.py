import collections
import dataclasses
import functools
import itertools
import re

import pytest

import helpers
from dblcat import cli, dsl, fincat, kan, prof, zoo
from dblcat.fincat import (Functor, all_functors, all_natural_transformations,
                           compose_functors, identity_functor,
                           validate_category, NoLimit)
from dblcat.prof import (Cell, cells_between, companion, conjoint,
                         identity_cell, rhom, unit_prof,
                         validate_cell)


def test_elements_category_shapes():
    two = zoo.walking_arrow()
    p = unit_prof(two)
    # elements of Hom(0, -): objects 1_0 and a with one connecting arrow
    cat, proj, oid = kan.elements_category(p, "0")
    assert len(cat.objects) == 2
    assert len(cat.morphisms) == 3
    assert validate_category(cat) == []
    assert proj.validate() == []
    cat1, proj1, _ = kan.elements_category(p, "1")
    assert len(cat1.objects) == 1


def test_ran_along_unit_is_the_diagram():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    for d in all_functors(two, three):
        cand = kan.pointwise_ran(unit_prof(two), d)
        assert cand.validate() == []
        assert cand.r == d
        assert kan.is_ran(cand)
        assert kan.is_pointwise_ran(cand)


def test_ran_along_companion_is_restriction():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    d = identity_functor(three)
    for f in all_functors(two, three):
        cand = kan.pointwise_ran(companion(f), d)
        assert cand.validate() == []
        assert cand.r == compose_functors(d, f)
        assert kan.is_ran(cand)
        assert kan.is_pointwise_ran(cand)


def test_ran_can_fail_to_exist():
    # a product of the two parallel objects would be needed, and the
    # parallel pair has none
    pp = zoo.parallel_pair()
    disc = zoo.discrete(2)
    j = conjoint(zoo.bang(disc))
    d = Functor("d", disc, pp, {"0": "0", "1": "1"},
                {"1_0": "1_0", "1_1": "1_1"})
    assert d.validate() == []
    with pytest.raises(NoLimit):
        kan.pointwise_ran(j, d)


def non_extension_candidates():
    """Every cell J -> 1_[3] over (s, id) along a companion J, as a
    candidate extension of the identity."""
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    d = identity_functor(three)
    j = companion(all_functors(two, three)[2])
    um = unit_prof(three)
    return [kan.RanCandidate(j, d, s, eps) for s in all_functors(two, three)
            for eps in cells_between(j, um, s, d)]


def limit_poor_candidates():
    """Every candidate along a corpus profunctor into the parallel pair, the
    discrete pair or the iso pair, targets that lack some limits."""
    out = []
    for mc in (zoo.parallel_pair(), zoo.discrete(2), zoo.iso_pair()):
        um = unit_prof(mc)
        for j in helpers.profunctor_corpus():
            for d in all_functors(j.target, mc):
                for s in all_functors(j.source, mc):
                    out += [kan.RanCandidate(j, d, s, eps)
                            for eps in cells_between(j, um, s, d)]
    return out


def test_non_extensions_are_rejected():
    verdicts = []
    for cand in non_extension_candidates():
        verdicts.append(kan.is_ran(cand))
        assert kan.is_ran(cand) == kan.is_pointwise_ran(cand)
    assert any(verdicts)          # the genuine extension is among them
    assert not all(verdicts)      # and plenty of candidates are not


def test_deciders_match_slow_twin_and_known_answers():
    cands = non_extension_candidates()
    assert [kan.is_ran(c) for c in cands] == [False, False, True]
    assert [kan.is_pointwise_ran(c) for c in cands] == [False, False, True]
    counts = [0, 0, 0]
    for cand in cands + limit_poor_candidates():
        ordinary = kan.is_ran(cand)
        # kan.is_ran searches competitors only where the pointwise test
        # fails, so the search is checked on its own as well
        assert ordinary == helpers.is_ran_by_search(cand) == \
            helpers.is_ran_oracle(cand)
        counts[0] += 1
        counts[1] += ordinary
        counts[2] += kan.is_pointwise_ran(cand)
    # the verdict counts of the generate-then-test deciders; six candidates
    # are ordinary extensions but not pointwise ones
    assert counts == [715, 543, 537]
    # along an empty profunctor the one competitor is hit once per element
    # of Nat(s, r), so r must pick a terminal object
    one = zoo.terminal_category()
    empties = []
    for mc in (zoo.walking_arrow(), zoo.parallel_pair(), zoo.iso_pair()):
        d = all_functors(one, mc)[0]
        for r in all_functors(one, mc):
            empties.append(kan.RanCandidate(
                helpers.empty_prof(one, one), d, r,
                Cell("e", helpers.empty_prof(one, one), unit_prof(mc), r, d, {})))
    want = [False, True, False, False, True, True]
    assert [kan.is_ran(c) for c in empties] == want
    assert [helpers.is_ran_by_search(c) for c in empties] == want
    assert [helpers.is_ran_oracle(c) for c in empties] == want
    assert [kan.is_pointwise_ran(c) for c in empties] == want


def test_is_ran_matches_slow_twin_into_z2_and_g_pq():
    # every candidate along a corpus profunctor into Z/2, the idempotent
    # monoid and G12, whose hom-set 0 -> 2 holds two arrows, and the
    # extension of the identity along the hom profunctor of G_pq; kan.is_ran
    # answers yes on every pointwise candidate without the search, so the
    # search is checked on its own as well
    ordinary, pointwise = [], []
    for mc in (helpers.z2(), helpers.idempotent_monoid(), helpers.g_pq(1, 2)):
        um = unit_prof(mc)
        for j in helpers.profunctor_corpus():
            for d in all_functors(j.target, mc):
                for s in all_functors(j.source, mc):
                    for eps in cells_between(j, um, s, d):
                        cand = kan.RanCandidate(j, d, s, eps)
                        ordinary.append(kan.is_ran(cand))
                        assert ordinary[-1] == helpers.is_ran_by_search(
                            cand) == helpers.is_ran_oracle(cand)
                        pointwise.append(kan.is_pointwise_ran(cand))
    assert (len(ordinary), sum(ordinary), sum(pointwise)) == (1454, 437, 413)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        g = helpers.g_pq(p, q)
        cand = kan.pointwise_ran(unit_prof(g), identity_functor(g))
        assert kan.is_ran(cand) and helpers.is_ran_by_search(cand) and \
            helpers.is_ran_oracle(cand)


def test_deciders_reject_malformed_candidates():
    pp = zoo.parallel_pair()
    good = kan.pointwise_ran(unit_prof(pp), identity_functor(pp))
    assert kan.is_ran(good) and kan.is_pointwise_ran(good)
    # move one component to another element of its fiber
    key, val = next((key, val) for key, val in good.eps.comp.items()
                    if len(pp.hom(good.r.obj[key[0]], key[1])) > 1)
    other = next(m for m in pp.hom(good.r.obj[key[0]], key[1]) if m != val)
    moved = dataclasses.replace(
        good, eps=dataclasses.replace(good.eps, comp={**good.eps.comp,
                                                      key: other}))
    # the candidate's side r differs from the side of its cell
    r2 = next(r for r in all_functors(pp, pp) if r != good.r)
    sided = dataclasses.replace(good, r=r2)
    for bad, problem in ((moved, "naturality fails"),
                         (sided, "boundary does not match")):
        for decide in (kan.is_ran, kan.is_pointwise_ran):
            with pytest.raises(ValueError, match=problem):
                decide(bad)


def test_is_right_exact_matches_slow_twin():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    probes = [zoo.terminal_category(), zoo.walking_arrow()]
    squares = [kan.comma_square_cell(f, k)[0] for f, k in (
        (zoo.pick(two, "0"), identity_functor(two)),
        (zoo.pick(two, "1"), identity_functor(two)),
        (all_functors(two, three)[2], all_functors(two, three)[3]))]
    empty = Cell("z", helpers.empty_prof(two, two), unit_prof(two),
                 identity_functor(two), identity_functor(two), {})
    for mode in ("pointwise", "ordinary"):
        for cell in squares:
            assert kan.is_right_exact(cell, mode, probes) == (True, None)
            assert helpers.right_exact_oracle(cell, mode, probes) == (True, None)
        witness = {"target": "Two", "d": "F0", "r": "F0", "eps": "c0"}
        assert kan.is_right_exact(empty, mode, [two]) == (False, witness)
        assert helpers.right_exact_oracle(empty, mode, [two]) == (False, witness)
    # one cell per pair of corpus profunctors, at their first boundary
    failures = 0
    corpus = helpers.profunctor_corpus()
    for j, k in itertools.product(corpus, repeat=2):
        for cell in cells_between(j, k, all_functors(j.source, k.source)[0],
                                  all_functors(j.target, k.target)[0])[:1]:
            for mode in ("pointwise", "ordinary"):
                got = kan.is_right_exact(cell, mode, probes)
                assert got == helpers.right_exact_oracle(cell, mode, probes)
                failures += not got[0]
    assert failures == 84


def counted_competitors(monkeypatch):
    """(J, d, number of competitors) of each problem whose competitors are
    asked for from now on, in a list that grows as they are."""
    cls = kan.RanProblem.__wrapped__
    find, asked = cls.competitors.func, []

    def counted(problem):
        found = find(problem)
        asked.append((problem.j, problem.d, len(found)))
        return found

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, "competitors")
    monkeypatch.setattr(cls, "competitors", prop)
    return asked


def test_right_exactness_runs_each_competitor_search_once(monkeypatch):
    asked = counted_competitors(monkeypatch)
    networks = helpers.count_builds(monkeypatch, kan.CompetitorNetwork)
    filings, file_checks = [], kan.file_checks

    def counted(*args):
        filings.append(args)
        return file_checks(*args)

    monkeypatch.setattr(kan, "file_checks", counted)
    cell = identity_cell(unit_prof(helpers.chain(3)))
    for mode in ("ordinary", "pointwise"):
        counts = []
        for _ in range(2):
            for built in (asked, networks, filings):
                built.clear()
            assert kan.is_right_exact(cell, mode) == (True, None)
            problems = [(j, d) for j, d, _ in asked]
            assert len(set(problems)) == len(problems)
            # one network per probe category, and one filing of the checks
            # of each problem's search, whatever the number of its s
            assert len(filings) == len(problems) + len(networks)
            counts.append((len(problems), len(networks),
                           sum(n for _, _, n in asked)))
        # nothing is kept from one call to the next; a functor r that sends
        # some nonempty K(a, b) to an empty M(r a, d b) is never bound, as
        # it has no cell; of the 36 functors that pass that skip, 30 have
        # a cell
        assert counts == [(13, 4, 30), (13, 4, 30)]


def test_right_exactness_searches_each_pair_of_functors_once(monkeypatch):
    # a competitor s is named s, and each r and r . f by its place in the
    # list of all functors, so the memo never holds one transformation
    # search under two names: 67 builds, not 37, if r kept the name s
    searches = helpers.count_builds(monkeypatch, all_natural_transformations)
    cell = identity_cell(unit_prof(helpers.chain(3)))
    assert kan.is_right_exact(cell, "ordinary") == (True, None)
    assert len(searches) == len(set(searches)) == 37


def test_right_exactness_builds_one_right_hom_per_problem(monkeypatch):
    problems = helpers.count_builds(monkeypatch, kan.RanProblem)
    requests = []

    def counted(*args):
        requests.append(args)
        return rhom(*args)

    monkeypatch.setattr(kan, "rhom", counted)
    cell = identity_cell(unit_prof(helpers.chain(3)))
    assert kan.is_right_exact(cell) == (True, None)
    # each problem asks for its right hom once, for all its candidates
    assert len(problems) == len(requests) == len(set(requests)) == 13


def test_right_exactness_builds_each_category_of_elements_once(monkeypatch):
    builds, build = [], kan.elements_category

    def counted(j, a):
        builds.append((j, a))
        return build(j, a)

    monkeypatch.setattr(kan, "elements_category", counted)
    cell = identity_cell(unit_prof(helpers.chain(3)))
    for mode in ("pointwise", "ordinary"):
        builds.clear()
        assert kan.is_right_exact(cell, mode=mode) == (True, None)
        # one per object of [3], shared by the problems of every d; the
        # ordinary test takes no limit
        assert len(builds) == len(set(builds)) == \
            (3 if mode == "pointwise" else 0)


def competitor_tables(competitors, functors):
    """The tables of each competitor, each s under its name in
    ``functors``, the list of ``all_functors`` that it is in."""
    named = {f: f.name for f in functors}
    return [(named[s], *helpers.functor_tables([s])[0][1:],
             helpers.cell_tables(cells)) for s, cells in competitors]


def is_poset(cat):
    return all(len(cat.hom(a, b)) <= 1 for a in cat.objects
               for b in cat.objects)


def test_competitors_match_slow_twin(monkeypatch):
    # corpus profunctors into the probe categories and into G22, whose
    # hom-sets hold several arrows, the hom profunctor of G22, the hom
    # profunctors of [3] and [4], and Z/2 and the idempotent monoid, which
    # share an underlying graph, into each other
    g, z2, idem = helpers.g_pq(2, 2), helpers.z2(), helpers.idempotent_monoid()
    corpus = helpers.profunctor_corpus()
    setups = [(j, mc) for mc in zoo.probe_categories() for j in corpus]
    setups += [(j, g) for j in corpus[:2] + corpus[3:9]]
    setups += [(unit_prof(g), mc) for mc in (zoo.walking_arrow(),
                                             helpers.chain(3))]
    setups += [(unit_prof(c), c) for c in (helpers.chain(3), helpers.chain(4))]
    setups += [(unit_prof(a), b) for a in (z2, idem) for b in (z2, idem)]
    sizes = []      # the number of positions of each search, in order
    monkeypatch.setattr(kan, "search", lambda domains, filed: (
        sizes.append(len(domains)), fincat.search(domains, filed))[1])
    pruned = 0
    for j, mc in setups:
        functors = all_functors(j.source, mc)
        object_maps = {tuple(s.obj.values()) for s in functors}
        for d in all_functors(j.target, mc):
            problem = kan.RanProblem(j, d)
            sizes.clear()
            got = problem.competitors
            assert competitor_tables(got, functors) == competitor_tables(
                helpers.competitors_oracle(problem), functors)
            # one search binds the object maps, then one per object map
            # that passes the skip binds arrows and components
            assert sizes[0] == len(j.source.objects) < min(sizes[1:],
                                                           default=99)
            searched = len(sizes) - 1
            assert searched >= len({tuple(s.obj.values()) for s, _ in got})
            if is_poset(mc):
                # into a poset every square commutes, so each object map
                # searched has exactly one competitor
                assert searched == len(got)
            pruned += len(object_maps) - searched
    # some object maps send a nonempty J(a, b) to an empty M(s a, d b)
    assert pruned > 0


def test_is_right_exact_rejects_unknown_mode():
    two = zoo.walking_arrow()
    cell, _ = kan.comma_square_cell(zoo.pick(two, "0"), identity_functor(two))
    with pytest.raises(ValueError, match="pointwse"):
        kan.is_right_exact(cell, mode="pointwse")


def test_probe_reports_for_pointwise_candidate():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    cand = kan.pointwise_ran(companion(all_functors(two, three)[1]),
                             identity_functor(three))
    report = kan.check_pointwise_probes(cand)
    assert set(report) == {"Id_Two", "pick_0", "pick_1"}
    for verdicts in report.values():
        assert verdicts == {"pointwise": True, "ordinary": True}


def test_restrict_candidate_stays_valid():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    cand = kan.pointwise_ran(companion(all_functors(two, three)[1]),
                             identity_functor(three))
    sub = kan.restrict_candidate(cand, zoo.pick(two, "0"))
    assert sub.validate() == []
    assert kan.is_pointwise_ran(sub)


def test_pasting_with_pointwise_base():
    one, two, three = (zoo.terminal_category(), zoo.walking_arrow(),
                       zoo.composable_pair())
    d = identity_functor(three)
    f = all_functors(two, three)[2]
    base = kan.pointwise_ran(companion(f), d)
    outer = kan.pointwise_ran(companion(zoo.pick(two, "0")), base.r)
    report = kan.pasting_check(outer.eps, base)
    assert report == {"gamma_ordinary": True, "gamma_pointwise": True,
                      "composite_ordinary": True, "composite_pointwise": True}


def test_comma_squares_satisfy_beck_chevalley():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    configs = [
        (zoo.pick(two, "0"), identity_functor(two)),
        (zoo.pick(two, "1"), identity_functor(two)),
        (all_functors(two, three)[2], all_functors(two, three)[3]),
    ]
    for f, k in configs:
        cell, comma = kan.comma_square_cell(f, k)
        assert validate_cell(cell) == []
        assert kan.beck_chevalley(cell)


def test_empty_cell_fails_beck_chevalley():
    two = zoo.walking_arrow()
    cell = Cell("z", helpers.empty_prof(two, two), unit_prof(two),
                identity_functor(two), identity_functor(two), {})
    assert not kan.beck_chevalley(cell)


def test_comma_square_is_right_exact():
    two = zoo.walking_arrow()
    cell, _ = kan.comma_square_cell(zoo.pick(two, "0"), identity_functor(two))
    probes = [zoo.terminal_category(), zoo.walking_arrow()]
    ok, counterexample = kan.is_right_exact(cell, probe_cats=probes)
    assert ok and counterexample is None
    ok, _ = kan.is_right_exact(cell, mode="ordinary", probe_cats=probes)
    assert ok


def test_empty_cell_is_not_right_exact():
    two = zoo.walking_arrow()
    cell = Cell("z", helpers.empty_prof(two, two), unit_prof(two),
                identity_functor(two), identity_functor(two), {})
    ok, counterexample = kan.is_right_exact(cell, probe_cats=[two])
    assert not ok
    assert counterexample is not None
    assert set(counterexample) == {"target", "d", "r", "eps"}


def test_initiality_of_object_picks():
    two = zoo.walking_arrow()
    assert kan.is_initial_functor(zoo.pick(two, "0"))
    assert not kan.is_initial_functor(zoo.pick(two, "1"))
    assert kan.is_initial_functor(identity_functor(two))


def test_initiality_of_embeddings():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    verdicts = {}
    for g in all_functors(two, three):
        verdicts[(g.obj["0"], g.obj["1"])] = kan.is_initial_functor(g)
    # exactly the functors hitting the bottom object can be initial, and
    # among them only those with a connected comma at every stage
    assert verdicts[("0", "0")] is True
    assert verdicts[("0", "1")] is True
    assert verdicts[("0", "2")] is True
    assert verdicts[("1", "1")] is False
    assert verdicts[("1", "2")] is False
    assert verdicts[("2", "2")] is False


def test_initial_mediating_iso_round_trips():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    emb = next(g for g in all_functors(two, three)
               if g.obj == {"0": "0", "1": "1"})
    d = identity_functor(three)
    fwd, bwd = kan.initial_mediating_iso(emb, d)
    assert three.compose(bwd, fwd) == three.identity("0")
    assert three.compose(fwd, bwd) == three.identity("0")


def test_initial_mediating_iso_for_picks():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    g = zoo.pick(two, "0")
    for d in all_functors(two, three):
        fwd, bwd = kan.initial_mediating_iso(g, d)
        apex = d.obj["0"]
        assert three.compose(bwd, fwd) == three.identity(apex)
        assert three.compose(fwd, bwd) == three.identity(apex)


def test_initial_mediating_iso_rejects_non_initial_functor():
    two = zoo.walking_arrow()
    g = zoo.pick(two, "1")
    assert not kan.is_initial_functor(g)
    with pytest.raises(ValueError, match=r"pick_1 .*object 0"):
        kan.initial_mediating_iso(g, identity_functor(two))


def test_violated_limit_property_raises(monkeypatch):
    # the checks survive python -O, unlike the asserts they replace
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    emb = next(g for g in all_functors(two, three)
               if g.obj == {"0": "0", "1": "1"})
    monkeypatch.setattr(kan, "mediating_morphisms", lambda lim, cone: [])
    with pytest.raises(kan.InvariantViolation):
        kan.pointwise_ran(unit_prof(two), emb)
    with pytest.raises(kan.InvariantViolation):
        kan.initial_mediating_iso(emb, identity_functor(three))


def test_elements_category_matches_old_builder_up_to_ids():
    checked = 0
    for j in helpers.tabulation_corpus():
        for a in j.source.objects:
            cat, proj, oid = kan.elements_category(j, a)
            cat0, proj0, oid0 = helpers.elements_category_oracle(j, a)
            assert (cat.name, proj.name) == (cat0.name, proj0.name)
            assert list(oid) == list(oid0)
            ren = {oid0[k]: oid[k] for k in oid0}
            assert cat.objects == tuple(ren[o] for o in cat0.objects)
            # an arrow is fixed by its endpoints and its projection
            by_key = {(cat.src[m], cat.tgt[m], proj.mor[m]): m
                      for m in cat.morphisms}
            mren = {m: by_key[(ren[cat0.src[m]], ren[cat0.tgt[m]],
                               proj0.mor[m])] for m in cat0.morphisms}
            assert sorted(mren.values()) == sorted(cat.morphisms)
            assert {ren[o]: mren[i] for o, i in cat0.identities.items()} == \
                cat.identities
            assert {(mren[g], mren[f]): mren[h]
                    for (g, f), h in cat0.table.items()} == cat.table
            assert {ren[o]: b for o, b in proj0.obj.items()} == proj.obj
            assert {mren[m]: v for m, v in proj0.mor.items()} == proj.mor
            checked += 1
    assert checked > 50


def test_right_exactness_runs_each_functor_search_once(monkeypatch):
    searches = helpers.count_builds(monkeypatch, all_functors)
    cell = identity_cell(unit_prof(helpers.chain(3)))
    for mode in ("ordinary", "pointwise"):
        counts = []
        for _ in range(2):
            searches.clear()
            assert kan.is_right_exact(cell, mode) == (True, None)
            assert len(set(searches)) == len(searches)
            counts.append(len(searches))
        # one search per probe category; nothing is kept between calls
        assert counts == [4, 4]


def test_deciders_build_each_unit_profunctor_once(monkeypatch):
    units = helpers.count_builds(monkeypatch, unit_prof)
    cell = identity_cell(unit_prof(helpers.chain(3)))
    probes = zoo.probe_categories()
    for mode in ("ordinary", "pointwise"):
        units.clear()
        assert kan.is_right_exact(cell, mode) == (True, None)
        # at most one unit per probe category, and never one twice
        assert len(units) == len(set(units)) <= len(probes)
    two = helpers.chain(2)
    cand = kan.pointwise_ran(unit_prof(two), identity_functor(two))
    for decide in (kan.is_ran, kan.is_pointwise_ran):
        units.clear()
        assert decide(cand)
        # one unit serves both the validation and the decision
        assert units == [(two,)]


def test_limits_over_elements_of_g_pq_match_slow_twin():
    # the limit procedure along 1_G_pq, where each elements category has
    # hom-sets of several arrows: the same cone at every object as the
    # generate-then-test limit
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g = helpers.g_pq(p, q)
        problem = kan.RanProblem(unit_prof(g), identity_functor(g))
        for a in g.objects:
            _, diagram, term = problem.limit_at(a)
            want = helpers.limit_oracle(diagram)
            assert (term.apex, list(term.legs.items())) == \
                (want.apex, list(want.legs.items()))


def test_a_problem_builds_its_categories_of_elements_once(monkeypatch):
    # outside a decision a construction is a plain call, so the problem
    # itself keeps what it read: one build per object of G22 over the
    # limits at all three objects
    builds, build = [], kan.elements_category

    def counted(j, a):
        builds.append((j, a))
        return build(j, a)

    monkeypatch.setattr(kan, "elements_category", counted)
    g = helpers.g_pq(2, 2)
    problem = kan.RanProblem(unit_prof(g), identity_functor(g))
    for a in g.objects:
        problem.limit_at(a)
    assert len(g.objects) == 3
    assert len(builds) == len(set(builds)) == 3


def test_ran_of_identity_along_hom_of_g32():
    # the extension of the identity along the hom profunctor of G32 is the
    # identity; its limit at object 0 is over ten elements with three and
    # six parallel arrows, 1,259,712 tuples of legs for a product of hom-sets
    g = helpers.g_pq(3, 2)
    ident = identity_functor(g)
    cand = kan.pointwise_ran(unit_prof(g), ident)
    assert (cand.r.obj, cand.r.mor) == (ident.obj, ident.mor)
    assert kan.is_ran(cand)
    assert kan.is_pointwise_ran(cand)


def test_pointwise_decision_reads_only_the_fibers_of_its_right_hom(
        monkeypatch):
    with open(helpers.FIXTURE, encoding="utf-8") as fh:
        ws = dsl.parse(fh.read())
    cand = kan.pointwise_ran(ws.profunctors["HomTwo"], ws.functors["Collapse"])
    built = []

    def keeping(k, h):
        built.append(rhom(k, h))
        return built[-1]

    monkeypatch.setattr(kan, "rhom", keeping)
    assert kan.is_pointwise_ran(cand) is True
    (rh,) = built
    assert rh.fibers
    assert "left" not in vars(rh) and "right" not in vars(rh)


def test_pointwise_exactness_judges_each_restriction_once(monkeypatch):
    # a candidate's restriction (a, r a, eps_a) at each object of A is
    # judged once per problem by each procedure: the pasted sub-candidates
    # of the identity cell repeat the restrictions of the top candidates
    computed, asked, names = collections.Counter(), collections.Counter(), {}
    for name in ("_hom_bijection_at", "_limit_comparison_at"):
        def counted(problem, *key, name=name, test=getattr(kan, name)):
            computed[name] += 1
            return test(problem, *key)
        names[counted] = name
        monkeypatch.setattr(kan, name, counted)
    cls = kan.RanProblem.__wrapped__
    verdict = cls.verdict

    def counted_verdict(problem, test, *key):
        asked[names[test]] += 1
        return verdict(problem, test, *key)

    monkeypatch.setattr(cls, "verdict", counted_verdict)
    cell = identity_cell(unit_prof(helpers.chain(3)))
    assert kan.is_right_exact(cell, "pointwise") == (True, None)
    # 44 candidates ask about 108 restrictions, 48 of them distinct
    assert asked == {"_hom_bijection_at": 108, "_limit_comparison_at": 108}
    assert computed == {"_hom_bijection_at": 48, "_limit_comparison_at": 48}


def test_restrictions_along_an_empty_column_are_told_apart_by_r():
    # J(a, -) empty gives eps_a = (), so within one problem only r a tells
    # two restrictions at a apart: r must pick a terminal object
    one = zoo.terminal_category()
    empty = helpers.empty_prof(one, one)
    got = []
    for mc in (zoo.walking_arrow(), zoo.parallel_pair(), zoo.iso_pair()):
        d = all_functors(one, mc)[0]
        problem = kan.RanProblem(empty, d)
        for r in all_functors(one, mc):
            eps = Cell("e", empty, unit_prof(mc), r, d, {})
            got.append(problem.is_pointwise_ran(r, eps))
    assert got == [False, True, False, False, True, True]


def test_pointwise_procedures_are_cross_checked_at_each_object(
        monkeypatch, capsys):
    # procedure two, broken at one object, must be caught there
    limits = kan._limit_comparison_at

    def broken_at(obj):
        def test(problem, a, ra, eps_a):
            verdict = limits(problem, a, ra, eps_a)
            return not verdict if a == obj else verdict
        return test

    c = helpers.chain(3)
    cand = kan.pointwise_ran(unit_prof(c), identity_functor(c))
    monkeypatch.setattr(kan, "_limit_comparison_at", broken_at("1"))
    with pytest.raises(kan.OracleDisagreement,
                       match=rf"on {re.escape(cand.eps.name)} at 1: "
                             r"hom-bijection=True, limit-comparison=False"):
        kan.is_pointwise_ran(cand)
    # dcat ran reports the disagreement with exit code 3
    with open(helpers.FIXTURE, encoding="utf-8") as fh:
        ws = dsl.parse(fh.read())
    first = ws.profunctors["HomTwo"].source.objects[0]
    monkeypatch.setattr(kan, "_limit_comparison_at", broken_at(first))
    code = cli.main(["ran", helpers.FIXTURE, "HomTwo", "Collapse"])
    assert code == 3
    err = capsys.readouterr().err
    assert "pointwise procedures disagree" in err and f" at {first}:" in err


def test_a_candidate_from_an_earlier_decision_reads_no_unit_table(
        monkeypatch):
    # validation compares eps's bottom, the unit of an earlier decision,
    # with this decision's unit_prof(M): two units of one category are
    # equal unread, so this decision builds no table of its unit
    c = helpers.chain(3)
    cand = kan.pointwise_ran(unit_prof(c), identity_functor(c))
    units, built = [], []
    unit, action = kan.unit_prof, prof._action
    monkeypatch.setattr(kan, "unit_prof",
                        lambda cat: units.append(unit(cat)) or units[-1])
    monkeypatch.setattr(prof, "_action",
                        lambda *args: built.append(args) or action(*args))
    assert kan.is_ran(cand) is True
    (u,) = {id(u): u for u in units}.values()
    assert u is not cand.eps.htgt and u == cand.eps.htgt
    assert "left" not in vars(u) and "right" not in vars(u)
    assert not any(fibers is u.fibers for _, _, fibers, _, _ in built)
