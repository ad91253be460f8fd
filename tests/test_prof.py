import collections
import dataclasses
import itertools
import random

import pytest

import helpers
from dblcat.fincat import (FinCategory, all_functors, decision,
                           identity_functor, make_category)
from dblcat.prof import (Cell, cells_between, companion,
                         companion_cells, compose_prof, conjoint,
                         conjoint_cells, componentwise_bijective,
                         hcompose, identity_cell, invert_horizontal_cell,
                         is_cartesian, is_invertible_cell, is_opcartesian,
                         left_unitor, lower_star, nat_transf_as_cell,
                         Profunctor,
                         opcartesian_cell, cartesian_cell, restrict, rhom,
                         right_unitor, unit_cell, unit_prof, upper_star,
                         validate_cell, vcompose)
from dblcat import dsl, prof, zoo


def test_corpus_profunctors_are_valid():
    for p in helpers.profunctor_corpus():
        assert helpers.validate_profunctor(p) == []


def test_validation_catches_broken_action():
    two = zoo.walking_arrow()
    p = unit_prof(two)
    bad = dict(p.left)
    bad[("1_0", "0", "1", "a")] = "1_1"
    broken = dataclasses.replace(p, left=bad)
    assert helpers.validate_profunctor(broken)


def fork():
    """0 => 1 -> 2: arrows f, g : 0 -> 1 and h : 1 -> 2, with hf != hg."""
    return make_category("Fork", ("0", "1", "2"),
                         {"f": ("0", "1"), "g": ("0", "1"), "h": ("1", "2"),
                          "hf": ("0", "2"), "hg": ("0", "2")},
                         {("h", "f"): "hf", ("h", "g"): "hg"})


@pytest.mark.parametrize("side, build, key", [
    # C(-, 2) : Fork -/-> One, where h . f = hf on the left
    ("left", lambda c: conjoint(zoo.pick(c, "2")), ("f", "1", "*", "h")),
    # C(0, -) : One -/-> Fork, where h . f = hf on the right
    ("right", lambda c: companion(zoo.pick(c, "0")), ("*", "1", "f", "h")),
])
def test_validation_catches_a_broken_side(side, build, key):
    p = build(fork())
    assert helpers.validate_profunctor(p) == []
    table = getattr(p, side)
    assert table[key] == "hf"
    # hg lies in the same fiber, so only functoriality can tell
    broken = dataclasses.replace(p, **{side: {**table, key: "hg"}})
    assert any(f"{side} action not functorial" in m
               for m in helpers.validate_profunctor(broken))


def sides_that_may_not_commute(left_p):
    """J : [1] -/-> [1] (both the walking arrow, 0 -> 1 by a) with
    J(1, 0) = {p}, J(0, 0) = {q1, q2}, J(1, 1) = {r} and J(0, 1) = {s1, s2};
    a sends p to ``left_p`` and r to s1 on the left, p to r, q1 to s1 and
    q2 to s2 on the right.  Each side is functorial whatever ``left_p``
    is; they commute exactly when it is q1."""
    two = zoo.walking_arrow()
    fibers = {("0", "0"): ("q1", "q2"), ("0", "1"): ("s1", "s2"),
              ("1", "0"): ("p",), ("1", "1"): ("r",)}
    left = {(f"1_{a}", a, b, x): x for (a, b), xs in fibers.items()
            for x in xs}
    left.update({("a", "1", "0", "p"): left_p, ("a", "1", "1", "r"): "s1"})
    right = {(a, b, x, f"1_{b}"): x for (a, b), xs in fibers.items()
             for x in xs}
    right.update({("1", "0", "p", "a"): "r", ("0", "0", "q1", "a"): "s1",
                  ("0", "0", "q2", "a"): "s2"})
    return Profunctor("J", two, two, fibers, left, right)


def test_validation_catches_sides_that_do_not_commute():
    assert helpers.validate_profunctor(sides_that_may_not_commute("q1")) == []
    problems = helpers.validate_profunctor(sides_that_may_not_commute("q2"))
    assert problems == ["actions do not commute on (a, p, a)"]


def test_composite_fibers_frozen():
    two = zoo.walking_arrow()
    f = zoo.pick(two, "0")
    fw, _ = compose_prof(companion(f), conjoint(f))
    assert fw.fibers == {("*", "*"): (("0", "1_0", "1_0"),)}
    bw, _ = compose_prof(conjoint(f), companion(f))
    assert {k: len(v) for k, v in bw.fibers.items()} == \
        {("0", "0"): 1, ("0", "1"): 1}
    assert helpers.validate_profunctor(fw) == []
    assert helpers.validate_profunctor(bw) == []


def test_composites_validate_and_match_oracle():
    for j, h in helpers.composable_pairs():
        comp, classes = compose_prof(j, h)
        assert helpers.validate_profunctor(comp) == []
        for a in j.source.objects:
            for e in h.target.objects:
                blocks = helpers.coend_classes_oracle(j, h, a, e)
                ours = {}
                for pair, least in classes[(a, e)].items():
                    ours.setdefault(least, set()).add(pair)
                assert {frozenset(v) for v in ours.values()} == blocks


def test_cell_search_matches_slow_twin():
    # every boundary between corpus profunctors and the units of the probe
    # categories
    corpus = helpers.profunctor_corpus()
    targets = corpus + [unit_prof(c) for c in zoo.probe_categories()]
    boundaries = cells = 0
    for j in corpus:
        for k in targets:
            for f in all_functors(j.source, k.source):
                for g in all_functors(j.target, k.target):
                    got = helpers.cell_tables(cells_between(j, k, f, g))
                    assert got == helpers.cell_tables(
                        helpers.cells_between_oracle(j, k, f, g))
                    boundaries += 1
                    cells += len(got)
    assert (boundaries, cells) == (6224, 3821)


def reversed_listing(cat):
    """``cat`` with its objects listed in reverse order."""
    return FinCategory(cat.name, cat.objects[::-1], cat.morphisms, cat.src,
                       cat.tgt, cat.identities, cat.table)


def shuffled_listing(cat, rng):
    """``cat`` with its objects and morphisms listed in an order drawn
    from ``rng``."""
    objects, morphisms = list(cat.objects), list(cat.morphisms)
    rng.shuffle(objects)
    rng.shuffle(morphisms)
    return FinCategory(cat.name, tuple(objects), tuple(morphisms), cat.src,
                       cat.tgt, cat.identities, cat.table)


def test_cell_search_matches_slow_twin_on_reversed_listings():
    # with objects listed against the arrows, a square can lead from a
    # later element to an earlier one; the search must test those too
    profs = []
    for cat in (zoo.walking_arrow(), zoo.parallel_pair(),
                zoo.composable_pair()):
        for c in (cat, reversed_listing(cat)):
            profs.append(unit_prof(c))
            for o in c.objects:
                profs += [companion(zoo.pick(c, o)), conjoint(zoo.pick(c, o))]
    boundaries = cells = 0
    for j in profs:
        for k in profs:
            for f in all_functors(j.source, k.source):
                for g in all_functors(j.target, k.target):
                    got = helpers.cell_tables(cells_between(j, k, f, g))
                    assert got == helpers.cell_tables(
                        helpers.cells_between_oracle(j, k, f, g))
                    boundaries += 1
                    cells += len(got)
    assert (boundaries, cells) == (7648, 5400)


def test_cell_search_checks_its_boundary():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    j, k = unit_prof(two), unit_prof(three)
    f = all_functors(two, three)[1]      # 0 -> 0, 1 -> 1
    # a side that does not start at J's target admits no cell
    wrong = identity_functor(three)
    assert cells_between(j, k, f, wrong) == [] == \
        helpers.cells_between_oracle(j, k, f, wrong)


def oracle_corpus():
    """Pairs (profunctor, (fibers, two-sided action) of the old builder):
    the tabulation corpus, then ``unit_prof(chain(n))`` for n = 0..5,
    listed as given and shuffled."""
    new = helpers.tabulation_corpus()
    old = helpers.tabulation_corpus(helpers.unit_prof_oracle,
                                    helpers.companion_oracle,
                                    helpers.conjoint_oracle)
    chains = [helpers.chain(n, rng) for n in range(6)
              for rng in (None, random.Random(n))]
    new += [unit_prof(c) for c in chains]
    old += [helpers.unit_prof_oracle(c) for c in chains]
    return list(zip(new, old))


def test_one_sided_builders_match_two_sided_ones():
    pairs = oracle_corpus()
    assert len(pairs) == 45
    for p, (fibers, action) in pairs:
        assert list(p.fibers.items()) == list(fibers.items()), p.name
        assert helpers.two_sided(p) == action, p.name
        assert helpers.validate_profunctor(p) == [], p.name


def test_restrict_matches_two_sided_builder():
    one, two = zoo.terminal_category(), zoo.walking_arrow()
    count = 0
    for k, _ in oracle_corpus():
        for x in (one, two):
            for f in all_functors(x, k.source)[:3]:
                for g in all_functors(two, k.target)[:3]:
                    r = restrict(k, f, g)
                    fibers, action = helpers.restrict_oracle(k, f, g)
                    assert list(r.fibers.items()) == list(fibers.items())
                    assert helpers.two_sided(r) == action
                    count += 1
    assert count == 547


def test_composite_action_matches_two_sided_builder():
    corpus = [p for p, _ in oracle_corpus()]
    pairs = [(j, h) for j, h in itertools.product(corpus, repeat=2)
             if j.target == h.source]
    assert len(pairs) == 185
    for j, h in pairs:
        comp, classes = compose_prof(j, h)
        assert helpers.two_sided(comp) == helpers.compose_action_oracle(
            j, h, comp.fibers, classes)


SIDES = ("left", "right")


def read_one_side(p, side):
    """Read ``side`` of the unread profunctor p: it is built and kept, and
    the other side stays unbuilt."""
    assert "left" not in vars(p) and "right" not in vars(p), p.name
    assert getattr(p, side) is getattr(p, side), p.name
    assert other_side(side) not in vars(p), p.name


def other_side(side):
    return "right" if side == "left" else "left"


def test_rhom_action_matches_two_sided_builder():
    setups = [(k, h) for _, h, k in helpers.adjunction_setups()]
    corpus = helpers.profunctor_corpus()
    setups += [(k, h) for k, h in itertools.product(corpus[:8], repeat=2)
               if k.target == h.target]
    for n, (k, h) in enumerate(setups):
        rh = rhom(k, h)
        # each table is built on its first read, either side first
        read_one_side(rh, SIDES[n % 2])
        assert helpers.validate_profunctor(rh) == []
        action = helpers.rhom_action_oracle(k, h, rh)
        assert helpers.two_sided(rh) == action
        left, right = helpers.sides_of(rh.source, rh.target, rh.fibers, action)
        assert list(rh.left.items()) == list(left.items()), rh.name
        assert list(rh.right.items()) == list(right.items()), rh.name


def test_compose_prof_matches_slow_twin(monkeypatch):
    corpus = helpers.profunctor_corpus()
    pairs = helpers.composable_pairs()
    pairs += [(j, h) for j, h in itertools.product(corpus, repeat=2)
              if j.target == h.source]
    for n in range(6):
        for seed in (0, 1):
            u = unit_prof(helpers.chain(n, random.Random(seed)))
            pairs.append((u, u))
    assert len(pairs) == 154
    # a fiber of two or more elements on each path: pp(c, 1) has two
    # elements at c = 0, and pp(s a, s b) three classes of pairs at (0, 1)
    one, two, pp = (zoo.terminal_category(), zoo.walking_arrow(),
                    zoo.parallel_pair())
    at_1 = conjoint(zoo.pick(pp, "1"))
    s = next(f for f in all_functors(two, pp) if f.mor["a"] == "s")
    pairs += [(at_1, unit_prof(one)), (at_1, conjoint(zoo.bang(two))),
              (restrict(unit_prof(pp), s, s), restrict(unit_prof(pp), s, s))]
    sides, side_of = [], prof.coyoneda_side
    monkeypatch.setattr(prof, "coyoneda_side",
                        lambda j, h: sides.append(side_of(j, h)) or sides[-1])
    largest = {}
    for n, (j, h) in enumerate(pairs):
        composite, classes = compose_prof(j, h)
        # each table is built on its first read, either side first
        read_one_side(composite, SIDES[n % 2])
        assert helpers.composite_tables(composite, classes) == \
            helpers.composite_tables(*helpers.compose_prof_oracle(j, h))
        largest[sides[n]] = max([largest.get(sides[n], 0),
                                 *map(len, composite.fibers.values())])
    assert collections.Counter(sides[:154]) == \
        {"left": 124, None: 18, "right": 12}
    assert sides[154:] == ["right", "right", None]
    assert largest == {"left": 2, "right": 2, None: 3}


def test_coyoneda_composites_leave_the_representable_side_unread():
    pp, two, three = (zoo.parallel_pair(), zoo.walking_arrow(),
                      zoo.composable_pair())
    f, g = all_functors(pp, two)[1], all_functors(two, three)[2]
    # a companion on the left keeps its right action unbuilt, through the
    # composite's tables too, and a conjoint on the right its left action
    fs, fc = companion(f), conjoint(f)
    for j, h, rep, unread in [(fs, companion(g), fs, "right"),
                              (conjoint(g), fc, fc, "left")]:
        composite, classes = compose_prof(j, h)
        composite.left, composite.right
        assert unread not in vars(rep), rep.name
        assert helpers.composite_tables(composite, classes) == \
            helpers.composite_tables(*helpers.compose_prof_oracle(j, h))


def test_compose_prof_matches_slow_twin_over_a_discrete_middle():
    # every middle morphism is an identity, so every slide is skipped and
    # each pair is a class of its own
    middle = zoo.discrete(2)
    fs = all_functors(middle, zoo.composable_pair())
    pairs = [(conjoint(f), companion(g)) for f in fs for g in fs]
    pairs.append((unit_prof(middle), unit_prof(middle)))
    largest = 0
    for j, h in pairs:
        composite, classes = compose_prof(j, h)
        assert helpers.composite_tables(composite, classes) == \
            helpers.composite_tables(*helpers.compose_prof_oracle(j, h))
        for cls in classes.values():
            assert all(least == pair for pair, least in cls.items())
        largest = max([largest] + [len(f) for f in composite.fibers.values()])
    assert largest == 2
    assert len(pairs) == 82


def test_elements_match_the_old_generator_and_are_built_once():
    profs = helpers.profunctor_corpus()
    profs += [unit_prof(helpers.chain(n, random.Random(seed)))
              for n in range(6) for seed in (0, 1)]
    for p in profs:
        assert p.elements() == tuple(helpers.elements_oracle(p))
        assert p.elements() is p.elements()
    p = unit_prof(zoo.walking_arrow())
    before = repr(p)
    p.elements()
    assert "_elements" not in [fl.name for fl in dataclasses.fields(Profunctor)]
    assert repr(p) == before and p == unit_prof(zoo.walking_arrow())
    assert dataclasses.replace(p, fibers={}).elements() == ()


def test_constructions_share_equal_inputs_and_keep_names():
    two = zoo.walking_arrow()

    @decision
    def compose_twice():
        first = compose_prof(unit_prof(two), unit_prof(two))
        assert compose_prof(unit_prof(two), unit_prof(two)) is first
        renamed = dataclasses.replace(unit_prof(two), name="Hom")
        assert renamed == unit_prof(two)
        return first, compose_prof(renamed, unit_prof(two))

    first, other = compose_twice()
    assert other is not first
    assert (first[0].name, other[0].name) == ("(1_Two*1_Two)", "(Hom*1_Two)")
    assert other[0] == first[0]
    # nothing outlives a decision, and outside one each call builds
    assert compose_twice()[0] is not first
    assert unit_prof(two) is not unit_prof(two)


def test_profunctor_hash_is_computed_once_and_stays_out_of_the_fields():
    f = all_functors(zoo.walking_arrow(), zoo.composable_pair())[2]
    p, q = companion(f), companion(f)
    before = repr(p)
    assert hash(p) == hash(q) == hash(companion(f))
    assert repr(p) == before and p == q and p is not q
    assert [fl.name for fl in dataclasses.fields(Profunctor)] == \
        ["name", "source", "target", "fibers", "left", "right"]
    assert {p, q} == {p} and {p: 1}[q] == 1
    assert p != unit_prof(zoo.walking_arrow())


def test_profunctor_equals_itself_before_a_read_and_others_by_their_tables():
    two = zoo.walking_arrow()
    ids = identity_functor(two), identity_functor(two)
    # outside a decision each unit_prof(two) is a fresh build
    derived = [unit_prof(two), compose_prof(unit_prof(two), unit_prof(two))[0],
               rhom(unit_prof(two), unit_prof(two)),
               restrict(compose_prof(unit_prof(two), unit_prof(two))[0], *ids)]
    for p in derived:
        assert p == p and not p != p
        assert hash(p) == hash((p.source, p.target, p.elements()))
        assert "left" not in vars(p) and "right" not in vars(p), p.name
    # two representables of equal (C, f, g) are equal unread
    for build in (lambda: unit_prof(two),
                  lambda: companion(zoo.pick(two, "0")),
                  lambda: conjoint(zoo.pick(two, "1"))):
        p, q = build(), build()
        assert p is not q and p == q and not p != q
        assert all(side not in vars(x) for x in (p, q)
                   for side in ("left", "right")), p.name
    # distinct profunctors compare their tables: equal under another name,
    # unequal with one entry of one side changed, and the hash, which
    # reads no table, stays
    renamed = dataclasses.replace(unit_prof(two), name="Hom")
    assert renamed == unit_prof(two) and unit_prof(two) == renamed
    for side in ("left", "right"):
        table = getattr(renamed, side)
        broken = dataclasses.replace(
            renamed, **{side: {**table, next(iter(table)): "moved"}})
        assert broken != renamed and renamed != broken
        assert not broken == unit_prof(two), side
        assert hash(broken) == hash(renamed)


def representable_twins():
    """Pairs (representable profunctor, its eager twin), none of them read
    yet: the profunctor corpus, then the units of Iso, Z/2, the idempotent
    monoid and G22, whose tables hold composites of non-identity arrows
    that are identities or that repeat."""
    lazy = helpers.profunctor_corpus()
    eager = helpers.profunctor_corpus(helpers.unit_prof_eager,
                                      helpers.companion_eager,
                                      helpers.conjoint_eager)
    cats = [zoo.iso_pair(), helpers.z2(), helpers.idempotent_monoid(),
            helpers.g_pq(2, 2)]
    lazy += [unit_prof(c) for c in cats]
    eager += [helpers.unit_prof_eager(c) for c in cats]
    return list(zip(lazy, eager))


def test_representables_build_the_tables_of_their_eager_twins():
    pairs = representable_twins()
    assert len(pairs) == 22
    for p, q in pairs:
        assert "left" not in vars(p) and "right" not in vars(p), p.name
        assert p.left is p.left          # built once, then kept
        assert "right" not in vars(p), p.name
        assert helpers.profunctor_tables(p) == \
            helpers.profunctor_tables(q), p.name
        assert helpers.validate_profunctor(p) == [], p.name


@pytest.mark.parametrize("unread_on_left", [True, False])
def test_representables_equal_their_eager_twins_before_a_read(unread_on_left):
    for p, q in representable_twins():
        assert (p == q if unread_on_left else q == p), p.name
        assert hash(p) == hash(q), p.name
    # equality reads the built tables: an eager twin with one entry of one
    # side changed differs from the unread representable
    for side in ("left", "right"):
        for p, q in representable_twins():
            table = getattr(q, side)
            broken = dataclasses.replace(
                q, **{side: {**table, next(iter(table)): "moved"}})
            assert (p != broken if unread_on_left else broken != p), p.name


def test_restrictions_of_representables_are_representables_left_unread():
    one, two = zoo.terminal_category(), zoo.walking_arrow()
    count = 0
    for k, q in representable_twins():
        for x in (one, two):
            for f in all_functors(x, k.source)[:3]:
                for g in all_functors(two, k.target)[:3]:
                    r = restrict(k, f, g)
                    # neither the restriction nor K has read a table
                    for p in (r, k):
                        assert "left" not in vars(p), p.name
                        assert "right" not in vars(p), p.name
                    want = helpers.restrict_eager(q, f, g)
                    assert r == want and hash(r) == hash(want)
                    assert helpers.profunctor_tables(r) == \
                        helpers.profunctor_tables(want)
                    # a restriction of the restriction stays representable
                    ids = identity_functor(x), identity_functor(two)
                    again = restrict(r, *ids)
                    assert "left" not in vars(again)
                    assert helpers.profunctor_tables(again) == \
                        helpers.profunctor_tables(helpers.restrict_eager(
                            want, *ids))
                    count += 1
    assert count == 291


@pytest.mark.parametrize("first", ["left", "right"])
def test_restrictions_of_derived_profunctors_read_the_side_they_build(first):
    one, two = zoo.terminal_category(), zoo.walking_arrow()
    # each restriction gets a fresh K, so that K's other side is unread
    builds = [lambda j=j, h=h: compose_prof(j, h)[0]
              for j, h in helpers.composable_pairs()[::4]]
    builds += [lambda k=k, h=h: rhom(k, h)
               for _, h, k in helpers.adjunction_setups()]
    count = 0
    for build in builds:
        k = build()
        ac, bc = k.source, k.target
        for x in (one, two):
            for f in all_functors(x, ac)[:3]:
                for g in all_functors(two, bc)[:3]:
                    k = build()
                    r = restrict(k, f, g)
                    assert "_represents" not in vars(r)
                    assert "left" not in vars(k) and "right" not in vars(k)
                    read_one_side(r, first)
                    # K has built the same side only
                    assert first in vars(k), k.name
                    assert other_side(first) not in vars(k), k.name
                    want = helpers.restrict_eager(k, f, g)
                    assert r == want and hash(r) == hash(want)
                    assert helpers.profunctor_tables(r) == \
                        helpers.profunctor_tables(want)
                    count += 1
    assert count == 124


def test_workspace_round_trip_holds_with_an_unread_unit():
    cats = {c.name: c for c in (zoo.iso_pair(), helpers.g_pq(2, 2))}

    def workspace():
        return dsl.Workspace(categories=dict(cats), profunctors={
            f"Hom{name}": unit_prof(c) for name, c in cats.items()})

    ws = workspace()
    parsed = dsl.parse(dsl.serialize(ws))
    assert parsed == ws
    assert workspace() == parsed and parsed == workspace()


def test_witness_class_lookup():
    two = zoo.walking_arrow()
    p = unit_prof(two)
    comp, classes = compose_prof(p, p)
    # (1_0, a) and (a, 1_1) slide to the same class over (0, 1), which is
    # the first of them
    cls = classes[("0", "1")]
    assert cls[("0", "1_0", "a")] == cls[("1", "a", "1_1")] == ("0", "1_0", "a")
    assert list(cls.values()).count(("0", "1_0", "a")) == 2
    assert comp.fiber("0", "1") == (("0", "1_0", "a"),)


def test_unitors_are_inverses():
    for p in helpers.profunctor_corpus():
        for unitor in (left_unitor(p), right_unitor(p)):
            assert validate_cell(unitor) == []
            inv = invert_horizontal_cell(unitor)
            assert vcompose(unitor, inv) == identity_cell(p)
            assert vcompose(inv, unitor) == identity_cell(unitor.hsrc)


def test_cell_vertical_identity_laws():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    for f in all_functors(two, three):
        c = unit_cell(f)
        assert vcompose(c, identity_cell(c.hsrc)) == c
        assert vcompose(identity_cell(c.htgt), c) == c


def test_vertical_composites_of_built_cells_are_built():
    # only a composite with an unread side defers its components
    for j in helpers.profunctor_corpus():
        for c in (vcompose(identity_cell(j), identity_cell(j)),
                  vcompose(unit_cell(identity_functor(j.target)),
                           identity_cell(unit_prof(j.target)))):
            assert type(c) is Cell
            assert "comp" in vars(c) and "_tables" not in vars(c)
            assert validate_cell(c) == []


def test_nat_transf_cells_compose():
    two = zoo.walking_arrow()
    fs = all_functors(two, two)
    from dblcat.fincat import all_natural_transformations
    for s in fs:
        for r in fs:
            for alpha in all_natural_transformations(s, r):
                c = nat_transf_as_cell(alpha)
                assert validate_cell(c) == []


def test_hcompose_of_identities_is_identity_up_to_unitor():
    two = zoo.walking_arrow()
    p = unit_prof(two)
    both = hcompose(identity_cell(p), identity_cell(p))
    assert both == identity_cell(both.hsrc)


def test_companion_conjoint_zigzags():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    for f in all_functors(two, three):
        eps, eta = companion_cells(f)
        assert validate_cell(eps) == [] and validate_cell(eta) == []
        assert vcompose(eps, eta) == unit_cell(f)
        ceps, ceta = conjoint_cells(f)
        assert vcompose(ceps, ceta) == unit_cell(f)


def test_restriction_is_triple_composite():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    k = unit_prof(three)
    for f in all_functors(two, three)[:4]:
        for g in all_functors(two, three)[:4]:
            cell = helpers.restriction_iso_cell(k, f, g)
            assert validate_cell(cell) == []
            assert componentwise_bijective(cell)


def test_cartesian_cells():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    k = unit_prof(three)
    for f in all_functors(two, three)[:3]:
        for g in all_functors(two, three)[:3]:
            cart = cartesian_cell(k, f, g)
            assert validate_cell(cart) == []
            assert is_cartesian(cart)
            # a cell out of the empty profunctor misses every fiber
            empty = Cell("z", helpers.empty_prof(two, two), k, f, g, {})
            assert validate_cell(empty) == []
            assert not is_cartesian(empty)


def test_opcartesian_cells():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    for f in all_functors(two, three)[:3]:
        for g in all_functors(two, three)[:3]:
            op = opcartesian_cell(unit_prof(two), f, g)
            assert validate_cell(op) == []
            assert is_opcartesian(op)
    f = zoo.pick(two, "0")
    bad = Cell("z", helpers.empty_prof(zoo.terminal_category(), two),
               unit_prof(two), f, identity_functor(two), {})
    assert not is_opcartesian(bad)


def test_companion_is_opcartesian_extension_of_unit():
    # bending the unit into the companion is the canonical opcartesian cell
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    for f in all_functors(two, three):
        _, eta = companion_cells(f)
        assert is_opcartesian(eta)


def test_mates_are_valid_cells():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    f = all_functors(two, three)[1]
    g = all_functors(two, three)[2]
    k = unit_prof(three)
    for cell in cells_between(restrict(k, f, g), k, f, g):
        low = lower_star(cell)
        up = upper_star(cell)
        assert validate_cell(low) == []
        assert validate_cell(up) == []


def test_invertible_cells():
    two = zoo.walking_arrow()
    p = unit_prof(two)
    assert is_invertible_cell(identity_cell(p))
    assert is_invertible_cell(left_unitor(p))
    f = zoo.pick(two, "0")
    eps, _ = companion_cells(f)
    assert not is_invertible_cell(eps)


def test_rhom_frozen_counts():
    two = zoo.walking_arrow()
    p0 = zoo.pick(two, "0")
    # families One -/-> One out of the conjoint into the companion
    k, h = companion(p0), unit_prof(two)
    rh = rhom(k, h)
    assert helpers.validate_profunctor(rh) == []
    # a family at (*, b) assigns to each arrow 0 -> e an arrow 0 -> e
    # naturally; precomposition forces it to be determined at b = 0
    assert {k: len(v) for k, v in rh.fibers.items()} == \
        {("*", "0"): 1, ("*", "1"): 1}
    # each family has one image per slot (e, x), in K(a, e)
    for a, b, fam in rh.elements():
        slots = prof.family_slots(h, b)
        assert len(fam) == len(slots)
        assert all(y in k.fiber(a, e) for (e, _), y in zip(slots, fam))


def test_rhom_adjunction_bijection():
    for j, h, k in helpers.adjunction_setups():
        jh, jh_classes = compose_prof(j, h)
        rh = rhom(k, h)
        ida, idb = identity_functor(j.source), identity_functor(j.target)
        ide = identity_functor(k.target)
        lhs = cells_between(jh, k, ida, ide)
        rhs = cells_between(j, rh, ida, idb)
        assert len(lhs) == len(rhs)
        seen = set()
        for phi in lhs:
            psi = helpers.rhom_transpose(phi, jh_classes, rh, j, h)
            assert validate_cell(psi) == []
            assert psi in rhs
            assert helpers.rhom_untranspose(psi, jh, h, k) == phi
            seen.add(psi)
        assert len(seen) == len(rhs)


def test_restriction_of_unit_is_hom_of_images():
    two, three = zoo.composable_pair(), zoo.composable_pair()
    k = unit_prof(three)
    f = identity_functor(three)
    r = restrict(k, f, f)
    assert r.fibers == k.fibers


def test_rhom_families_match_slow_twin():
    # fibers, each family the tuple of its images and each fiber in search
    # order, against the product of every map per e, which sorts nothing;
    # G_pq adds hom-sets of several arrows
    cases = [(k, h) for _, h, k in helpers.adjunction_setups()]
    corpus = helpers.profunctor_corpus()
    cases += [(k, h) for k, h in itertools.product(corpus, repeat=2)
              if k.target == h.target][:40]
    for g in [helpers.chain(n, random.Random(n)) for n in (2, 3, 4)] + \
            [helpers.g_pq(p, q) for p, q in ((1, 1), (1, 2), (2, 1), (2, 2))]:
        cases += [(unit_prof(g), unit_prof(g)),
                  (conjoint(identity_functor(g)), unit_prof(g))]
    families = 0
    for k, h in cases:
        fibers = helpers.rhom_families_oracle(k, h)
        assert list(rhom(k, h).fibers.items()) == list(fibers.items())
        families += sum(len(v) for v in fibers.values())
    assert families == 249
    # the units above take the Yoneda path; the same families again, along
    # the restriction 1_G(id, id), which is searched; then units of G_pq
    # with objects and arrows listed in a shuffled order, where a family's
    # first slot need not be the identity, so the search's order is not
    # that of K(a, f b)
    more = []
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g = helpers.g_pq(p, q)
        ident = identity_functor(g)
        more.append((unit_prof(g), restrict(unit_prof(g), ident, ident)))
    for p, q, n in ((2, 1, 0), (2, 2, 0), (2, 2, 9)):
        g = shuffled_listing(helpers.g_pq(p, q), random.Random(n))
        more += [(unit_prof(g), unit_prof(g)),
                 (conjoint(identity_functor(g)), unit_prof(g))]
    families = 0
    for k, h in more:
        fibers = helpers.rhom_families_oracle(k, h)
        assert list(rhom(k, h).fibers.items()) == list(fibers.items())
        families += sum(len(v) for v in fibers.values())
    assert families == 93


def test_right_homs_along_units_and_companions_read_k_right_only():
    # by the Yoneda lemma, K <| C(f -, -) holds x |-> x . y for each y in
    # K(a, f b): its fibers read K's right action and no table of H
    yoneda = 0
    for _, h, k in helpers.adjunction_setups():
        rh = rhom(k, h)
        assert "left" not in vars(k), rh.name
        if vars(h).get("_represents", (0, 0, 0))[2] is None:
            assert "left" not in vars(h) and "right" not in vars(h), rh.name
            yoneda += 1
        assert list(rh.fibers.items()) == list(
            helpers.rhom_families_oracle(k, h).items()), rh.name
    assert yoneda == 3


def test_right_hom_of_a_unit_is_its_hom_sets():
    # the Yoneda lemma: a natural family C(a, -) -> C(m, -) is u |-> u . p
    # for exactly one p : m -> a
    cats = [helpers.chain(n) for n in (2, 3, 4, 5)]
    cats += [helpers.g_pq(p, q) for p, q in ((1, 1), (1, 2), (2, 1), (2, 2))]
    cats += [zoo.iso_pair(), zoo.parallel_pair(), zoo.composable_pair()]
    for c in cats:
        one = unit_prof(c)
        rh = rhom(one, one)
        for m in c.objects:
            for a in c.objects:
                want = [tuple(c.table[(u, p)]
                              for _, u in prof.family_slots(one, a))
                        for p in c.hom(m, a)]
                assert len(set(want)) == len(want), (c.name, m, a)
                assert sorted(rh.fiber(m, a)) == sorted(want), (c.name, m, a)


def test_hash_agrees_with_equality_for_profunctors_and_cells():
    # as for functors: each beside a copy with its tables reversed
    profs = helpers.profunctor_corpus()
    copies = [helpers.reversed_copy(p, "fibers", "left", "right")
              for p in profs]
    assert all(c == p and hash(c) == hash(p) for p, c in zip(profs, copies))
    bad, equal = helpers.hash_disagreements(profs + copies)
    assert not bad and equal > len(profs)
    # cells between distinct pairs (J, K) differ, so pairs of cells are
    # compared per (J, K)
    distinct = [p for n, p in enumerate(profs) if p not in profs[:n]]
    total = 0
    for j, k in itertools.product(distinct, repeat=2):
        cells = [c for f in all_functors(j.source, k.source)[:4]
                 for g in all_functors(j.target, k.target)[:4]
                 for c in cells_between(j, k, f, g)]
        copies = [helpers.reversed_copy(c, "comp") for c in cells]
        assert all(c == x and hash(c) == hash(x)
                   for x, c in zip(cells, copies))
        bad, equal = helpers.hash_disagreements(cells + copies)
        assert not bad and equal >= len(cells)
        total += len(cells)
    assert (len(distinct), total) == (17, 1812)
