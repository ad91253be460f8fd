"""One memo per decision: within a decision each construction is built
once per distinct arguments, and nothing outlives the outermost decision."""

import dataclasses

import pytest

import helpers
from dblcat import fincat, kan, laws, prof, tab, zoo
from dblcat.fincat import Functor, NoLimit, decision, identity_functor
from dblcat.prof import conjoint, identity_cell, unit_prof

CONSTRUCTIONS = (
    fincat.all_functors, fincat.all_natural_transformations,
    prof.unit_prof, prof.companion, prof.conjoint, prof.compose_prof,
    prof.naturality_plan, kan.RanProblem, kan.CompetitorNetwork,
    laws.transformation_cells,
)


def decisions():
    """Each decision with an input, as a call of no arguments."""
    two, three = helpers.chain(2), helpers.chain(3)
    hom = unit_prof(two)
    cand = kan.pointwise_ran(hom, identity_functor(two))
    cell = identity_cell(unit_prof(three))
    t = tab.tabulate(hom)
    return {
        "pointwise_ran": lambda: kan.pointwise_ran(hom, identity_functor(two)),
        "is_ran": lambda: kan.is_ran(cand),
        "is_pointwise_ran": lambda: kan.is_pointwise_ran(cand),
        "is_right_exact[pointwise]": lambda: kan.is_right_exact(cell),
        "is_right_exact[ordinary]": lambda: kan.is_right_exact(cell,
                                                               "ordinary"),
        "verify_tabulation": lambda: tab.verify_tabulation(t),
        "check_interchange": laws.check_interchange,
        "check_unitors_and_triangle": laws.check_unitors_and_triangle,
        "check_pentagon": laws.check_pentagon,
        "check_companion_identities": laws.check_companion_identities,
    }


def count_all_builds(monkeypatch):
    return {c.__name__: helpers.count_builds(monkeypatch, c)
            for c in CONSTRUCTIONS}


def take(builds):
    """The number of builds per construction so far, then start again."""
    counts = {name: len(built) for name, built in builds.items()}
    for built in builds.values():
        built.clear()
    return counts


@pytest.mark.parametrize("name", list(decisions()))
def test_a_decision_builds_the_same_again_when_called_again(monkeypatch,
                                                            name):
    decide = decisions()[name]
    builds = count_all_builds(monkeypatch)
    first = decide()
    assert fincat._memo is None
    counts = take(builds)
    assert decide() == first
    assert fincat._memo is None
    assert take(builds) == counts and sum(counts.values()) > 0


def test_memo_is_dropped_when_a_decision_raises(monkeypatch):
    # a malformed candidate: a component moved within its fiber
    pp = zoo.parallel_pair()
    good = kan.pointwise_ran(unit_prof(pp), identity_functor(pp))
    key, val = next((key, val) for key, val in good.eps.comp.items()
                    if len(pp.hom(good.r.obj[key[0]], key[1])) > 1)
    other = next(m for m in pp.hom(good.r.obj[key[0]], key[1]) if m != val)
    bad = dataclasses.replace(good, eps=dataclasses.replace(
        good.eps, comp={**good.eps.comp, key: other}))
    # a right extension into the parallel pair, which lacks the product
    disc = zoo.discrete(2)
    d = Functor("d", disc, pp, {"0": "0", "1": "1"},
                {"1_0": "1_0", "1_1": "1_1"})
    builds = count_all_builds(monkeypatch)
    for raising, error in ((lambda: kan.is_ran(bad), ValueError),
                           (lambda: kan.pointwise_ran(conjoint(zoo.bang(disc)),
                                                      d), NoLimit)):
        counts = []
        for _ in range(2):
            with pytest.raises(error):
                raising()
            assert fincat._memo is None
            counts.append(take(builds))
        assert counts[0] == counts[1] and sum(counts[0].values()) > 0


def test_inner_decisions_share_the_memo_of_the_outer_one(monkeypatch):
    two = helpers.chain(2)
    cand = kan.pointwise_ran(unit_prof(two), identity_functor(two))
    builds = count_all_builds(monkeypatch)
    # on its own, each probe's two deciders are decisions of their own
    report = kan.check_pointwise_probes(cand)
    assert fincat._memo is None
    alone = take(builds)

    @decision
    def twice():
        first = kan.check_pointwise_probes(cand)
        assert fincat._memo is not None
        between = take(builds)
        with pytest.raises(ValueError):     # an inner decision raises
            kan.is_right_exact(identity_cell(unit_prof(two)), "neither")
        assert fincat._memo is not None
        return first, kan.check_pointwise_probes(cand), between

    first, second, between = twice()
    assert fincat._memo is None
    assert first == second == report
    # the second round builds nothing, and the first no more than alone
    assert sum(take(builds).values()) == 0
    assert all(between[name] <= alone[name] for name in alone)
    assert sum(between.values()) < sum(alone.values())
    assert kan.check_pointwise_probes(cand) == report
    assert take(builds) == alone


def test_outside_a_decision_a_construction_is_a_plain_call():
    two = zoo.walking_arrow()
    assert fincat._memo is None
    assert unit_prof(two) is not unit_prof(two)
    assert unit_prof(two) == unit_prof(two)
