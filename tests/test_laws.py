import dataclasses

import pytest

import helpers
from dblcat import laws, prof


def test_interchange():
    ok, count = laws.check_interchange(max_configs=60)
    assert ok and count == 60


def test_unitors_and_triangle():
    ok, count = laws.check_unitors_and_triangle()
    assert ok and count == 33


def test_pentagon():
    ok, count = laws.check_pentagon()
    assert ok and count == 8


def test_companion_identities():
    ok, count = laws.check_companion_identities()
    assert ok and count == 11


def test_run_all_report_shape():
    ok, report = laws.run_all(max_interchange=40)
    assert ok
    assert set(report) == {"interchange", "unitors_triangle", "pentagon",
                           "companion_conjoint"}
    assert all(r["ok"] for r in report.values())


def test_each_run_composes_afresh(monkeypatch):
    built = helpers.count_builds(monkeypatch, prof.compose_prof)
    assert laws.run_all()[0]
    first = len(built)
    assert laws.run_all()[0]
    assert len(built) - first == first
    # one build per distinct pair and suite; 1,258 without the memo
    assert first == 205


def moved(cell, within_fiber):
    """``cell`` with its first movable component moved to another element
    of its fiber, or, if not ``within_fiber``, to another element of the
    bottom profunctor.  The interchange suite needs the latter: its cells
    land in composites of hom profunctors whose fibers all have one
    element."""
    f, g = cell.vsrc, cell.vtgt
    everywhere = [x for _, _, x in cell.htgt.elements()]
    for (a, b, x), img in cell.comp.items():
        fib = cell.htgt.fiber(f.obj[a], g.obj[b]) if within_fiber else everywhere
        others = [y for y in fib if y != img]
        if others:
            return dataclasses.replace(cell,
                                       comp={**cell.comp, (a, b, x): others[0]})
    return cell


@pytest.mark.parametrize("name, check, within_fiber", [
    ("associator", laws.check_pentagon, True),
    ("left_unitor", laws.check_unitors_and_triangle, True),
    ("hcompose", laws.check_interchange, False),
])
def test_suites_fail_when_a_cell_is_broken(monkeypatch, name, check,
                                           within_fiber):
    real = getattr(laws, name)
    broken = []

    def breaking(*args, **kwargs):
        # break one call only: breaking every call alike can keep a law
        cell = real(*args, **kwargs)
        out = cell if broken else moved(cell, within_fiber)
        if out is not cell:
            broken.append((cell, out))
        return out

    monkeypatch.setattr(laws, name, breaking)
    ok, _ = check()
    assert len(broken) == 1 and not ok
    (cell, out), = broken
    (a, b, x), = [k for k in cell.comp if cell.comp[k] != out.comp[k]]
    fib = cell.htgt.fiber(cell.vsrc.obj[a], cell.vtgt.obj[b])
    assert (out.comp[(a, b, x)] in fib) == within_fiber


def test_each_suite_builds_each_unit_once(monkeypatch):
    built = helpers.count_builds(monkeypatch, prof.unit_prof)
    counts = []
    for _ in range(2):
        built.clear()
        assert laws.run_all()[0]
        counts.append(len(built))
    # interchange 2, unitors and triangle 4, pentagon 1, companion
    # identities 4; building one per configuration made 1,189
    assert counts == [11, 11]


def test_interchange_searches_and_composes_each_distinct_pair_once(
        monkeypatch):
    calls = {"all_natural_transformations": helpers.count_builds(
        monkeypatch, laws.all_natural_transformations)}
    for name, seen in (("vcompose", []), ("hcompose", [])):
        calls[name] = seen
        real = getattr(laws, name)

        def counting(x, y, *rest, _real=real, _seen=seen):
            _seen.append((x, y))
            return _real(x, y, *rest)

        monkeypatch.setattr(laws, name, counting)
    ok, report = laws.run_all()
    assert ok
    assert {k: r["configurations"] for k, r in report.items()} == {
        "interchange": 120, "unitors_triangle": 33, "pentagon": 8,
        "companion_conjoint": 11}
    for seen in calls.values():
        seen.clear()
    assert laws.check_interchange() == (True, 120)
    counts = {name: (len(seen), len(set(seen))) for name, seen in calls.items()}
    # 780 searches over 22 pairs and 720 composites over 151 pairs before
    # the memos
    assert counts == {"all_natural_transformations": (22, 22),
                      "vcompose": (120, 120), "hcompose": (31, 31)}
