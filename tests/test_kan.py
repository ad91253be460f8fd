import pytest

from dblcat import kan, zoo
from dblcat.fincat import (Functor, all_functors, compose_functors,
                           identity_functor, validate_category, NoLimit)
from dblcat.prof import (Cell, cells_between, companion, conjoint,
                         empty_prof, unit_prof, validate_cell)


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


def test_non_extensions_are_rejected():
    two, three = zoo.walking_arrow(), zoo.composable_pair()
    d = identity_functor(three)
    j = companion(all_functors(two, three)[2])
    good = kan.pointwise_ran(j, d)
    um = unit_prof(three)
    verdicts = []
    for s in all_functors(two, three):
        for eps in cells_between(j, um, s, d):
            cand = kan.RanCandidate(j, d, s, eps)
            verdicts.append(kan.is_ran(cand))
            assert kan.is_ran(cand) == kan.is_pointwise_ran(cand)
    assert any(verdicts)          # the genuine extension is among them
    assert not all(verdicts)      # and plenty of candidates are not


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
    cell = Cell("z", empty_prof(two, two), unit_prof(two),
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
    cell = Cell("z", empty_prof(two, two), unit_prof(two),
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
