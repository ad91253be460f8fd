import dataclasses

import pytest

import helpers
from dblcat import laws, prof, zoo


def test_interchange():
    ok, count = laws.check_interchange()
    assert ok and count == 120


def test_unitors_and_triangle():
    ok, count = laws.check_unitors_and_triangle()
    assert ok and count == 33


def test_each_unitor_is_checked_once(monkeypatch):
    checked, real = [], prof.componentwise_bijective

    def counting(cell):
        checked.append(cell.name)
        return real(cell)

    # wherever the suite looks it up, in laws or through prof
    for module in (laws, prof):
        monkeypatch.setattr(module, "componentwise_bijective", counting)
    assert laws.check_unitors_and_triangle() == (True, 33)
    # both unitors of each of the 12 profunctors, and nothing else
    assert len(checked) == 24
    assert all(name.startswith(("lu_", "ru_")) for name in checked)


def test_pentagon():
    ok, count = laws.check_pentagon()
    assert ok and count == 8


def test_companion_identities():
    ok, count = laws.check_companion_identities()
    assert ok and count == 11


def test_run_all_report_shape():
    ok, report = laws.run_all()
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


def test_a_run_reads_the_tables_of_few_composites(monkeypatch):
    built, build = [], prof.compose_prof.__wrapped__

    def keeping(j, h):
        out = build(j, h)
        built.append(out[0])
        return out

    monkeypatch.setattr(prof.compose_prof, "__wrapped__", keeping)
    assert laws.run_all()[0]
    read = [p for p in built if "left" in vars(p) or "right" in vars(p)]
    # each table is built on its first read, and most composites are only
    # named in witnesses or compared with themselves; a composite over a
    # middle with no non-identity arrow reads neither slide table
    assert (len(built), len(read)) == (205, 39)
    assert (sum("left" in vars(p) for p in read),
            sum("right" in vars(p) for p in read)) == (30, 9)


def moved(cell, within_fiber):
    """``cell`` with its first movable component moved to another element
    of its fiber, or, if not ``within_fiber``, to another element of the
    bottom profunctor.  The interchange suite's default configurations
    need the latter: their cells land in composites of hom profunctors
    whose fibers all have one element."""
    f, g = cell.vsrc, cell.vtgt
    everywhere = [x for _, _, x in cell.htgt.elements()]
    for (a, b, x), img in cell.comp.items():
        fib = cell.htgt.fiber(f.obj[a], g.obj[b]) if within_fiber else everywhere
        others = [y for y in fib if y != img]
        if others:
            return dataclasses.replace(cell,
                                       comp={**cell.comp, (a, b, x): others[0]})
    return cell


def check_interchange_over_pair():
    """``laws.check_interchange`` on the grids over Three -> Two -> Pair,
    whose horizontal composites land in composites of 1_Pair: its fiber
    over (0, 1) holds s and t."""
    configs = laws.interchange_configs
    laws.interchange_configs = lambda: laws.interchange_grids(
        zoo.composable_pair(), zoo.walking_arrow(), zoo.parallel_pair())
    try:
        return laws.check_interchange()
    finally:
        laws.interchange_configs = configs


# the configurations each suite holds on before the one with the broken cell
HELD_BEFORE_THE_BREAK = {laws.check_pentagon: 0,
                         laws.check_unitors_and_triangle: 1,
                         laws.check_interchange: 0,
                         check_interchange_over_pair: 19}


@pytest.mark.parametrize("name, check, within_fiber", [
    ("associator", laws.check_pentagon, True),
    ("left_unitor", laws.check_unitors_and_triangle, True),
    ("hcompose", laws.check_interchange, False),
    ("hcompose", check_interchange_over_pair, True),
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
    assert check() == (False, HELD_BEFORE_THE_BREAK[check])
    assert len(broken) == 1
    (cell, out), = broken
    (a, b, x), = [k for k in cell.comp if cell.comp[k] != out.comp[k]]
    fib = cell.htgt.fiber(cell.vsrc.obj[a], cell.vtgt.obj[b])
    assert (out.comp[(a, b, x)] in fib) == within_fiber


def test_interchange_over_pair_meets_two_element_fibers(monkeypatch):
    real = laws.hcompose
    sizes = []

    def measuring(left, right):
        cell = real(left, right)
        sizes.extend(len(cell.htgt.fiber(cell.vsrc.obj[a], cell.vtgt.obj[b]))
                     for a, b, _ in cell.comp)
        return cell

    monkeypatch.setattr(laws, "hcompose", measuring)
    assert check_interchange_over_pair() == (True, 120)
    assert max(sizes) == 2


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
