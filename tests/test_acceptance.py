"""End-to-end acceptance checks; each test covers one headline criterion
and prints as a single pass/fail line under ``pytest -v``."""

import os

import helpers
from dblcat import cli, dsl, kan, laws, spanfin, tab, zoo
from dblcat.fincat import (all_functors, comma_category, find_isomorphism,
                           identity_functor)
from dblcat.prof import (Cell, cells_between, companion,
                         compose_prof, componentwise_bijective, conjoint,
                         rhom, unit_prof, validate_cell)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "arrows.dcat")


def test_criterion_01_double_category_laws():
    # interchange, unitor/associator coherence and the bending identities
    # across at least one hundred enumerated configurations
    ok, report = laws.run_all()
    assert ok, report
    assert sum(r["configurations"] for r in report.values()) >= 100


def test_criterion_02_companions_conjoints_restriction():
    ok, count = laws.check_companion_identities()
    assert ok and count > 0
    # the restriction along (f, g) is the three-fold composite with the
    # companion and the conjoint, witnessed by an invertible comparison
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    ks = [unit_prof(three), companion(all_functors(two, three)[2])]
    checked = 0
    for k in ks:
        for f in all_functors(two, k.source)[:3]:
            for g in all_functors(two, k.target)[:3]:
                cell = helpers.restriction_iso_cell(k, f, g)
                assert validate_cell(cell) == []
                assert componentwise_bijective(cell)
                checked += 1
    assert checked >= 12


def test_criterion_03_coend_quotients_match_oracle():
    # union-find composition against the naive fixed-point refinement
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


def test_criterion_04_right_hom_adjunction():
    # cells J * H -> K biject with cells J -> K <| H, by an explicit
    # transposition with a two-sided inverse
    for j, h, k in helpers.adjunction_setups():
        jh, jh_classes = compose_prof(j, h)
        rh = rhom(k, h)
        ida, idb = identity_functor(j.source), identity_functor(j.target)
        ide = identity_functor(k.target)
        lhs = cells_between(jh, k, ida, ide)
        rhs = cells_between(j, rh, ida, idb)
        assert len(lhs) == len(rhs)
        images = set()
        for phi in lhs:
            psi = helpers.rhom_transpose(phi, jh_classes, rh, j, h)
            assert psi in rhs
            assert helpers.rhom_untranspose(psi, jh, h, k) == phi
            images.add(psi)
        assert len(images) == len(rhs)


def test_criterion_05_kan_soundness():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    d = identity_functor(three)
    js = [unit_prof(two)] + [companion(f) for f in all_functors(two, three)]
    for j in js:
        target = d if j.target is three else \
            all_functors(j.target, three)[2]
        cand = kan.pointwise_ran(j, target)
        assert cand.validate() == []
        assert kan.is_ran(cand)
        assert kan.is_pointwise_ran(cand)
    # and the deciders reject enumerated non-extensions
    j = companion(all_functors(two, three)[2])
    um = unit_prof(three)
    rejected = 0
    for s in all_functors(two, three):
        for eps in cells_between(j, um, s, d):
            if not kan.is_ran(kan.RanCandidate(j, d, s, eps)):
                rejected += 1
    assert rejected > 0


def test_criterion_06_pointwise_probe_equivalence():
    # a candidate is pointwise exactly when every object probe is, and a
    # pointwise restriction is in particular an ordinary extension
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    d = identity_functor(three)
    j = companion(all_functors(two, three)[2])
    um = unit_prof(three)
    candidates = [kan.pointwise_ran(j, d)]
    for s in all_functors(two, three):
        for eps in cells_between(j, um, s, d)[:2]:
            candidates.append(kan.RanCandidate(j, d, s, eps))
    checked = 0
    for cand in candidates:
        overall = kan.is_pointwise_ran(cand)
        report = kan.check_pointwise_probes(cand)
        object_probes = {name: v for name, v in report.items()
                         if name.startswith("pick_")}
        assert overall == all(v["pointwise"] for v in report.values())
        for v in report.values():
            if v["pointwise"]:
                assert v["ordinary"]
        assert object_probes
        checked += 1
    assert checked >= 4


def test_criterion_07_exact_squares():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    probes = [zoo.terminal_category(), zoo.walking_arrow()]
    configs = [
        (zoo.pick(two, "0"), identity_functor(two)),
        (zoo.pick(two, "1"), identity_functor(two)),
        (all_functors(two, three)[2], all_functors(two, three)[3]),
    ]
    for f, k in configs:
        cell, _ = kan.comma_square_cell(f, k)
        assert kan.beck_chevalley(cell)
        ok, counterexample = kan.is_right_exact(cell, probe_cats=probes)
        assert ok and counterexample is None
    # a square that forgets every heteromorphism is not exact
    bad = Cell("z", helpers.empty_prof(two, two), unit_prof(two),
               identity_functor(two), identity_functor(two), {})
    assert not kan.beck_chevalley(bad)
    ok, counterexample = kan.is_right_exact(bad, probe_cats=[two])
    assert not ok and counterexample is not None


def test_criterion_08_initial_functors():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    assert kan.is_initial_functor(zoo.pick(two, "0"))
    assert not kan.is_initial_functor(zoo.pick(two, "1"))
    # limits restrict along an initial functor up to the mediating pair
    emb = next(g for g in all_functors(two, three)
               if g.obj == {"0": "0", "1": "1"})
    assert kan.is_initial_functor(emb)
    for g, d in [(emb, identity_functor(three))] + \
            [(zoo.pick(two, "0"), d) for d in all_functors(two, three)]:
        fwd, bwd = kan.initial_mediating_iso(g, d)
        mc = d.target
        apex = mc.tgt[fwd]
        assert mc.compose(bwd, fwd) == mc.identity(mc.src[fwd])
        assert mc.compose(fwd, bwd) == mc.identity(apex)


def test_criterion_09_tabulations_and_comma_objects():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    for j in [unit_prof(two), companion(zoo.pick(two, "0"))]:
        t = tab.tabulate(j)
        ok, report = tab.verify_tabulation(t)
        assert ok, report
        assert tab.is_opcartesian_tabulation(t)
    for f, g in [(zoo.pick(two, "0"), identity_functor(two)),
                 (all_functors(two, three)[1], all_functors(two, three)[2])]:
        co = tab.comma_object(f, g)
        assert find_isomorphism(co.category,
                                comma_category(f, g).category) is not None


def test_criterion_10_internal_tabulation():
    two = zoo.walking_arrow()
    j = spanfin.prof_bridge(unit_prof(two))
    t = spanfin.internal_tabulate(j)
    assert len(t.category.objects) == 3
    assert len(t.category.morphisms) == 6
    ok, checked = spanfin.verify_internal_tabulation(t)
    assert ok, checked
    assert checked["one_dimensional"] > 0
    assert checked["two_dimensional"] > 0
    assert checked["opcartesian"] > 0
    assert find_isomorphism(t.category,
                            tab.tabulate(unit_prof(two)).category) is not None


def test_criterion_11_vertical_correspondence():
    # transformations out of a unit correspond to their object parts
    two = zoo.walking_arrow()
    x = zoo.composable_pair()
    k = spanfin.prof_bridge(unit_prof(two))
    ux = spanfin.unit_internal_prof(x)
    checked = 0
    for f in spanfin.all_internal_functors(x, k.source):
        for g in spanfin.all_internal_functors(x, k.target):
            transfs = spanfin.all_internal_transformations(ux, k, f, g)
            lifted = []
            for t in transfs:
                phi0 = spanfin.transf_object_part(t)
                back = spanfin.transf_from_object_part(x, k, f, g, phi0)
                assert back is not None and back.map == t.map
                lifted.append(phi0)
            # distinct transformations have distinct object parts
            assert len({tuple(sorted(p.items())) for p in lifted}) == \
                len(transfs)
            checked += len(transfs)
    assert checked > 0


def test_criterion_12_dsl_round_trip_and_fuzz(capsys):
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        ws = dsl.parse(fh.read())
    assert dsl.parse(dsl.serialize(ws)) == ws
    survived = 0
    for text in helpers.fuzz_inputs(100_000):
        try:
            dsl.parse(text)
        except dsl.DslError:
            pass
        survived += 1
    assert survived == 100_000
    code = cli.main(["laws", "--quiet"])
    capsys.readouterr()
    assert code == 0
