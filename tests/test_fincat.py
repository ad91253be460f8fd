import copy
import dataclasses
import importlib
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import dblcat
from dblcat.fincat import (Cone, Functor, NatTransf, all_cones, all_functors,
                           all_natural_transformations, backtrack,
                           comma_category, compose_functors,
                           equal_before_read, file_checks,
                           find_isomorphism, identity_functor, search,
                           is_connected, limit, make_category,
                           mediating_morphisms, validate_category, NoLimit)
from dblcat import fincat, prof, spanfin, tab, zoo


def stock_categories():
    return helpers.corpus_categories() + [helpers.empty_category(),
                                          helpers.span_shape(),
                                          helpers.cospan_shape()]


def test_stock_categories_are_valid():
    for cat in stock_categories():
        assert validate_category(cat) == []


def missing_composite():
    return make_category("B", ("0", "1", "2"),
                         {"a": ("0", "1"), "b": ("1", "2")})


def wrong_units():
    cat = zoo.walking_arrow()
    bad_table = dict(cat.table)
    bad_table[("a", "1_0")] = "1_1"
    return cat.__class__(cat.name, cat.objects, cat.morphisms, cat.src,
                         cat.tgt, cat.identities, bad_table)


def broken_associativity():
    # two generators with an endo that squares inconsistently
    return make_category(
        "E", ("0",), {"s": ("0", "0"), "t": ("0", "0")},
        {("s", "s"): "t", ("s", "t"): "s", ("t", "s"): "t", ("t", "t"): "t"})


def test_validation_catches_missing_composite():
    problems = validate_category(missing_composite())
    assert any("composite b . a missing" in p for p in problems)


def test_validation_catches_wrong_units():
    problems = validate_category(wrong_units())
    assert problems


def test_validation_catches_broken_associativity():
    assert any("associativity" in p
               for p in validate_category(broken_associativity()))


def broken_categories():
    """The three broken categories above, and changes of the walking arrow
    and of Three: a table entry for a pair that is not composable, for a
    pair of unknown morphisms, or with an unknown or ill-typed composite;
    an arrow without endpoints, a listed twice, an object without identity,
    an identity that is not an endomorphism."""
    two, three = zoo.walking_arrow(), zoo.composable_pair()

    def with_table(cat, **entries):
        table = dict(cat.table)
        for gf, h in entries.items():
            table[tuple(gf.split("_after_"))] = h
        return dataclasses.replace(cat, table=table)

    return [
        missing_composite(), wrong_units(), broken_associativity(),
        with_table(two, a_after_a="a"),
        with_table(two, a_after_1_1="a", q_after_a="a"),
        with_table(three, b_after_a="zz"),
        with_table(three, b_after_a="a"),
        with_table(three, ba_after_ba="ba", a_after_b="1_0"),
        dataclasses.replace(two, morphisms=two.morphisms + ("x",)),
        dataclasses.replace(two, morphisms=two.morphisms + ("a",)),
        dataclasses.replace(two, identities={"0": "1_0"}),
        dataclasses.replace(two, identities={"0": "1_0", "1": "a"}),
    ]


def test_validation_matches_all_pairs_oracle():
    cats = (stock_categories() + broken_categories() +
            [helpers.chain(n, random.Random(n)) for n in range(7)] +
            [helpers.g_pq(p, q) for p, q in ((1, 2), (2, 2))] +
            [helpers.z2(), helpers.idempotent_monoid()] +
            [tab.tabulate(p).category for p in helpers.profunctor_corpus()])
    problems = []
    for cat in cats:
        got = validate_category(cat)
        assert got == helpers.validate_category_oracle(cat), cat.name
        problems += got
    # the broken categories reach every kind of fault
    for fault in ("has no identity", "is not an endomorphism",
                  "endpoints outside", "missing", "not composable",
                  "unknown", "ill-typed", "unit law", "associativity"):
        assert any(fault in p for p in problems), fault


# frozen by the independent backtracking count
FUNCTOR_COUNTS = {
    ("One", "Two"): 2,
    ("Two", "Two"): 3,
    ("Two", "Three"): 6,
    ("Pair", "Two"): 3,
    ("Three", "Two"): 4,
    ("Pair", "Pair"): 6,
    ("Iso", "Two"): 2,
}


def test_functor_enumeration_matches_oracle():
    cats = {c.name: c for c in helpers.corpus_categories()}
    for (a, m), expected in FUNCTOR_COUNTS.items():
        fs = all_functors(cats[a], cats[m])
        assert len(fs) == expected
        assert helpers.functor_count_oracle(cats[a], cats[m]) == expected
        for f in fs:
            assert f.validate() == []


def test_functor_search_matches_slow_twin():
    # names, order and dict insertion order, over listings shuffled two ways;
    # Z/2 and {1, e} as targets, where a composite of two non-identity
    # arrows (v . u = 1 in Iso) may land on an identity or on either arrow
    cats = helpers.corpus_categories() + [helpers.chain(n, random.Random(seed))
                                      for seed in (1, 2) for n in range(5)]
    targets = cats + [helpers.z2(), helpers.idempotent_monoid()]
    found = 0
    for a, m in itertools.product(cats, targets):
        got = helpers.functor_tables(all_functors(a, m))
        assert got == helpers.functor_tables(helpers.all_functors_oracle(a, m))
        found += len(got)
    assert found == 1202


def test_functor_search_matches_slow_twin_on_g_pq():
    # hom-sets of several arrows, into and out of G_pq
    gs = [helpers.g_pq(p, q) for p, q in ((1, 2), (2, 1), (2, 2))]
    found = 0
    for a, m in itertools.chain(itertools.product(helpers.corpus_categories(), gs),
                                itertools.product(gs, gs + [helpers.chain(3)])):
        got = helpers.functor_tables(all_functors(a, m))
        assert got == helpers.functor_tables(helpers.all_functors_oracle(a, m))
        found += len(got)
    assert found == 489


VALUES = range(3)      # every domain below draws from these


@st.composite
def check_networks(draw):
    """Some positions, random pair and triple checks over them, and two
    lists of domains, one value list per position, each in its own order
    and possibly empty."""
    size = draw(st.integers(0, 4))
    domain = st.lists(st.sampled_from(VALUES), max_size=3, unique=True)
    domains = [[draw(domain) for _ in range(size)] for _ in range(2)]
    if not size:
        return domains, [], []
    at = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(
        at, at, st.fixed_dictionaries({v: st.frozensets(st.sampled_from(
            VALUES)) for v in VALUES})), max_size=4))
    triples = draw(st.lists(st.tuples(
        at, at, at, st.fixed_dictionaries({(v, w): st.sampled_from(VALUES)
                                           for v in VALUES for w in VALUES})),
        max_size=4))
    return domains, pairs, triples


def filtered_product(domains, pairs, triples):
    """Every tuple of itertools.product that passes every check."""
    return [pick for pick in itertools.product(*domains)
            if all(pick[o] in allowed[pick[i]] for i, o, allowed in pairs)
            and all(table[pick[i], pick[k]] == pick[o]
                    for i, k, o, table in triples)]


@settings(max_examples=200, deadline=None)
@given(check_networks())
def test_backtrack_filters_the_product_in_order(network):
    domains, pairs, triples = network
    for doms in domains:
        assert list(backtrack(doms, pairs, triples)) == \
            filtered_product(doms, pairs, triples)
    # checks filed once serve every search over domains of the same length
    filed = file_checks(pairs, triples)
    for doms in domains:
        assert list(search(doms, filed)) == \
            filtered_product(doms, pairs, triples)


def test_functor_enumeration_is_deterministic():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    first = [(f.obj, f.mor) for f in all_functors(two, three)]
    second = [(f.obj, f.mor) for f in all_functors(two, three)]
    assert first == second


def test_functor_validation_reports_ill_typed_images():
    # b is sent to an arrow out of the wrong object, so the images of the
    # composable pair (b, a) do not compose; that is a problem to report,
    # not an exception
    three, two = zoo.composable_pair(), zoo.walking_arrow()
    f = Functor("F", three, two, {"0": "0", "1": "1", "2": "1"},
                {"1_0": "1_0", "1_1": "1_1", "1_2": "1_1",
                 "a": "a", "b": "a", "ba": "a"})
    assert f.validate() == ["image of b has wrong endpoints"]


def test_natural_transformation_validation_reports_missing_components():
    # no component at 1, so the naturality square of a cannot be composed;
    # that is a problem to report, not an exception
    ident = identity_functor(zoo.walking_arrow())
    assert NatTransf(ident, ident, {"0": "1_0"}).validate() == \
        ["component at 1 ill-typed"]


def test_cone_validation_reports_missing_legs():
    ident = identity_functor(zoo.walking_arrow())
    assert Cone(ident, "0", {"0": "1_0"}).validate() == ["leg at 1 ill-typed"]


def test_compose_functors():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    for f in all_functors(two, three):
        assert compose_functors(identity_functor(three), f) == f
        assert compose_functors(f, identity_functor(two)) == f


def test_natural_transformations_walking_arrow():
    two = zoo.walking_arrow()
    fs = all_functors(two, two)
    # between the identity and itself: only the identity transformation
    ident = identity_functor(two)
    nts = all_natural_transformations(ident, ident)
    assert len(nts) == 1
    for nt in nts:
        assert nt.validate() == []


def test_limit_of_cospan_is_pullback():
    # in the poset 0 -> 1 -> 2 the limit of the cospan 0 -> 2 <- 1 is 0
    shape = helpers.cospan_shape()
    three = zoo.composable_pair()
    d = Functor("D", shape, three,
                {"0": "0", "1": "1", "2": "2"},
                {"1_0": "1_0", "1_1": "1_1", "1_2": "1_2",
                 "l": "ba", "r": "b"})
    assert d.validate() == []
    cone = limit(d)
    assert cone.apex == "0"
    assert cone.legs == {"0": "1_0", "1": "a", "2": "ba"}


def test_limit_failure_raises():
    # the parallel pair has no equalizer of its two arrows inside itself
    pp = zoo.parallel_pair()
    d = identity_functor(pp)
    with pytest.raises(NoLimit):
        limit(d)


def test_limit_terminal_object():
    # the limit of the empty diagram picks the terminal object
    empty = helpers.empty_category()
    three = zoo.composable_pair()
    d = Functor("E", empty, three, {}, {})
    cone = limit(d)
    assert cone.apex == "2"


def test_mediating_morphisms_unique_into_limit():
    shape = helpers.cospan_shape()
    three = zoo.composable_pair()
    d = Functor("D", shape, three,
                {"0": "0", "1": "1", "2": "2"},
                {"1_0": "1_0", "1_1": "1_1", "1_2": "1_2",
                 "l": "ba", "r": "b"})
    term = limit(d)
    for cone in all_cones(d):
        assert len(mediating_morphisms(term, cone)) == 1


def test_comma_category_slice_sizes():
    two = zoo.walking_arrow()
    # the slice 0/Two has two objects (1_0 and a), the slice 1/Two has one
    for obj, expected in [("0", 2), ("1", 1)]:
        comma = comma_category(zoo.pick(two, obj), identity_functor(two))
        assert len(comma.category.objects) == expected
        assert validate_category(comma.category) == []
        assert comma.proj_left.validate() == []
        assert comma.proj_right.validate() == []


def test_comma_category_canonical_square_commutes():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    f = all_functors(two, three)[2]
    g = all_functors(two, three)[3]
    comma = comma_category(f, g)
    cat, e = comma.category, f.target
    for m in cat.morphisms:
        x, y = cat.src[m], cat.tgt[m]
        left = e.compose(comma.components[y], f.mor[comma.proj_left.mor[m]])
        right = e.compose(g.mor[comma.proj_right.mor[m]], comma.components[x])
        assert left == right


def test_indexes_match_scans():
    for cat in helpers.corpus_categories() + [helpers.chain(n) for n in range(6)]:
        assert helpers.indexes_agree_with_scans(cat), cat.name
        assert cat.hom("nowhere", "nowhere") == ()
        assert cat.into("nowhere") == cat.out_of("nowhere") == ()


def test_indexes_take_no_part_in_equality():
    cat = helpers.chain(3)
    bare = copy.copy(cat)
    for attr in ("_hom", "_into", "_out_of"):
        object.__setattr__(bare, attr, {})
    assert bare.hom("0", "1") == ()
    assert bare == cat
    assert hash(bare) == hash(cat)
    assert repr(bare) == repr(cat)


def test_classes_with_first_read_tables_share_one_equality():
    # every dblcat class with an OnFirstRead table compares by the one rule
    found = {}
    for info in pkgutil.iter_modules(dblcat.__path__):
        module = importlib.import_module(f"dblcat.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and hasattr(cls, "_first_read"):
                found[cls.__name__] = cls.__eq__
    assert set(found) == {"FinCategory", "Profunctor", "InternalProfunctor",
                          "Cell"}
    assert all(eq is equal_before_read for eq in found.values())


def test_only_deferred_instances_carry_first_read_descriptors():
    # an instance built with its tables reads them as plain attributes, and
    # one made by deferred is of a subclass under the same name
    cat = helpers.chain(3)
    t = tab.tabulate(prof.unit_prof(cat))
    made = {fincat.FinCategory: (cat, t.category),
            prof.Profunctor: (helpers.unit_prof_eager(cat), t.cell.hsrc),
            spanfin.InternalProfunctor: (spanfin.prof_bridge(t.j),
                                         spanfin.unit_internal_prof(cat)),
            prof.Cell: (prof.identity_cell(t.j), t.cell)}
    for cls, (eager, unread) in made.items():
        assert not any(attr in vars(cls) for attr in cls._first_read)
        assert type(eager) is cls
        assert type(unread).__mro__[1] is cls
        assert type(unread).__qualname__ == cls.__qualname__
        assert all(isinstance(vars(type(unread))[attr], fincat.OnFirstRead)
                   for attr in cls._first_read)
        assert "_tables" in vars(unread) and eager._tables is None


def test_connectivity():
    assert is_connected(zoo.walking_arrow())
    assert is_connected(zoo.parallel_pair())
    assert not is_connected(zoo.discrete(2))
    assert not is_connected(helpers.empty_category())


def test_find_isomorphism():
    two = zoo.walking_arrow()
    relabeled = make_category("R", ("u", "w"), {"k": ("u", "w")})
    iso = find_isomorphism(two, relabeled)
    assert iso is not None
    fwd, bwd = iso
    assert fwd.validate() == [] and bwd.validate() == []
    assert compose_functors(bwd, fwd) == identity_functor(two)
    assert find_isomorphism(two, zoo.parallel_pair()) is None
    assert find_isomorphism(two, zoo.discrete(2)) is None


def search_categories():
    """The corpus, shuffled ordinals and G_pq: hom-sets of one, none and
    several arrows, listed in orders that differ from building order."""
    return (helpers.corpus_categories() +
            [helpers.chain(n, random.Random(seed)) for seed in (3, 4)
             for n in range(4)] +
            [helpers.g_pq(p, q) for p, q in ((1, 2), (2, 1), (2, 2))])


def test_natural_transformation_search_matches_slow_twin():
    # components and order, between every pair of parallel functors from
    # corpus shapes into the search categories
    shapes = [zoo.walking_arrow(), zoo.parallel_pair(), zoo.iso_pair(),
              helpers.span_shape()]
    found = 0
    for a in shapes:
        for m in search_categories():
            fs = all_functors(a, m)[:12]
            for f, g in itertools.product(fs, repeat=2):
                got = all_natural_transformations(f, g)
                want = helpers.all_natural_transformations_oracle(f, g)
                assert [list(t.components.items()) for t in got] == \
                    [list(t.components.items()) for t in want]
                found += len(got)
    assert found == 956


def test_cone_and_limit_searches_match_slow_twins():
    # every cone in order, and the same limit apex and legs (or none), for
    # every diagram of a small shape into the search categories
    shapes = [helpers.empty_category(), zoo.terminal_category(),
              zoo.walking_arrow(), zoo.parallel_pair(), helpers.span_shape(),
              helpers.cospan_shape(), zoo.discrete(2)]
    cones = limits = 0
    for shape in shapes:
        for m in search_categories():
            for d in all_functors(shape, m)[:20]:
                got = all_cones(d)
                assert helpers.cone_tables(got) == \
                    helpers.cone_tables(helpers.all_cones_oracle(d))
                cones += len(got)
                try:
                    want = helpers.cone_tables([helpers.limit_oracle(d)])
                except NoLimit:
                    with pytest.raises(NoLimit):
                        limit(d)
                    continue
                assert helpers.cone_tables([limit(d)]) == want
                limits += 1
    assert (cones, limits) == (830, 481)


def test_find_isomorphism_matches_slow_twin():
    # the same pair of functors, or None, between relabelled and shuffled
    # copies of the search categories and between unrelated ones
    cats = search_categories()
    relabelled = [make_category(
        f"R{c.name}", tuple(reversed(c.objects)),
        {f"r{x}": (c.src[x], c.tgt[x]) for x in reversed(c.morphisms)
         if not c.is_identity(x)},
        {(f"r{g}", f"r{f}"): (f"r{h}" if not c.is_identity(h)
                              else f"1_{c.src[h]}")
         for (g, f), h in c.table.items()
         if not c.is_identity(g) and not c.is_identity(f)}) for c in cats]
    found = 0
    for a, b in itertools.product(cats, cats + relabelled):
        got = find_isomorphism(a, b)
        want = helpers.find_isomorphism_oracle(a, b)
        if want is None:
            assert got is None
            continue
        assert [helpers.functor_tables([f]) for f in got] == \
            [helpers.functor_tables([f]) for f in want]
        found += 1
    assert found == 74


def test_find_isomorphism_tests_only_bijections(monkeypatch):
    # the search keeps each hom-set injective, so the first functor it
    # yields is inverted: one test per pair.  Without that, the parallel
    # pair's first functor sends both arrows to one, and the search on the
    # comma object and comma category of the identity of G32 (14 objects,
    # 77 arrows, hom-sets of up to six arrows) runs for minutes
    calls, inverse = [], fincat.functor_inverse

    def counted(f):
        calls.append(f)
        assert len(calls) == 1, "a second candidate tested"
        return inverse(f)

    monkeypatch.setattr(fincat, "functor_inverse", counted)
    ident = identity_functor(helpers.g_pq(3, 2))
    co, cc = tab.comma_object(ident, ident), comma_category(ident, ident)
    assert (len(co.category.objects), len(co.category.morphisms)) == (14, 77)
    pp, g22 = zoo.parallel_pair(), helpers.g_pq(2, 2)
    for a, b in [(pp, pp), (g22, g22), (co.category, cc.category)]:
        calls.clear()
        assert find_isomorphism(a, b) is not None
        assert len(calls) == 1


def test_hash_agrees_with_equality_for_functors_transformations_cones():
    # each object beside a copy listing its tables in reversed insertion
    # order: a key read off dict.values() would hash the two apart
    functors = helpers.corpus_functors()
    nats = [alpha for f in functors for g in functors
            if (f.source, f.target) == (g.source, g.target)
            for alpha in all_natural_transformations(f, g)]
    cones = [c for d in helpers.corpus_functors(limit_per_pair=3)
             for c in all_cones(d)]
    for objects, fields in ((functors, ("obj", "mor")),
                            (nats, ("components",)), (cones, ("legs",))):
        copies = [helpers.reversed_copy(x, *fields) for x in objects]
        assert all(c == x and hash(c) == hash(x)
                   for x, c in zip(objects, copies))
        bad, equal = helpers.hash_disagreements(objects + copies)
        assert not bad
        assert equal >= len(objects)
    assert (len(nats), len(cones)) == (391, 116)
