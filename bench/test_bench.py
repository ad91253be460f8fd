"""Tests of the benchmark itself: its closed-form oracles, its tracer and a
smoke pass of each workload.

Run from the repository root:  python3 -m pytest bench
"""

import itertools
import json
import random
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from tracer import MARK, Tracer, package_modules

BENCH = workloads.HERE


def installed_wrappers():
    """Every module or class attribute in dblcat that holds a wrapper."""
    found = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{cattr}"
                          for cattr, cvalue in vars(value).items()
                          if getattr(cvalue, MARK, False)]
    return found


@pytest.fixture(scope="module")
def dc():
    return workloads.import_dblcat()


def test_functor_count_matches_enumeration(dc):
    rng = random.Random(1)
    for a, b in itertools.product(range(1, 5), repeat=2):
        found = dc.fincat.all_functors(workloads.ordinal(dc, a, rng),
                                       workloads.ordinal(dc, b, rng))
        assert len(found) == workloads.functor_count(a, b)


@pytest.mark.parametrize("seed", [0, 7])
def test_tabulation_counts_match_constructions(dc, seed):
    rng = random.Random(seed)
    for n in range(1, 6):
        cat = workloads.ordinal(dc, n, rng)
        hom = dc.prof.unit_prof(cat)
        ident = dc.fincat.identity_functor(cat)
        for built in (dc.tab.tabulate(hom), dc.tab.comma_object(ident, ident),
                      dc.fincat.comma_category(ident, ident)):
            assert workloads.count_problem(built.category, n) is None


def test_tabulation_counts_known_values():
    assert [workloads.tabulation_counts(n) for n in (3, 6, 8, 10)] == \
        [(6, 20), (21, 196), (36, 540), (55, 1210)]


def test_composite_fibers_match_hom_sets(dc):
    rng = random.Random(2)
    for n in range(1, 5):
        hom = dc.prof.unit_prof(workloads.ordinal(dc, n, rng))
        assert workloads.fiber_problem(hom, n) is None
        assert workloads.fiber_problem(dc.prof.compose_prof(hom, hom)[0], n) is None


def test_oracle_detects_a_wrong_fiber(dc):
    hom = dc.prof.unit_prof(workloads.ordinal(dc, 3, random.Random(0)))
    assert workloads.fiber_problem(hom, 4) is not None


def test_seed_only_permutes(dc):
    one = workloads.build("ord-build", 1, dc)
    two = workloads.build("ord-build", 2, dc)
    assert sorted(j.name for j in one) == sorted(j.name for j in two)
    assert [j.name for j in one] != [j.name for j in two]
    again = workloads.build("ord-build", 1, dc)
    assert [j.name for j in one] == [j.name for j in again]


def test_tracer_rebinds_everywhere_and_restores(dc):
    original_hom = dc.fincat.FinCategory.hom
    original_functors = dc.fincat.all_functors
    tracer = Tracer(layers.TRACED, count_results=layers.ENUMERATORS)
    with tracer:
        # copies bound by "from .fincat import all_functors" are wrapped too
        for module in (dc.fincat, dc.kan, dc.tab, dc.laws, dc.spanfin, dc.zoo):
            assert module.all_functors is not original_functors
        assert dc.fincat.FinCategory.hom is not original_hom
        two = dc.zoo.walking_arrow()
        found = dc.tab.all_functors(two, two)
    assert installed_wrappers() == []
    assert dc.fincat.FinCategory.hom is original_hom
    for module in (dc.fincat, dc.kan, dc.tab, dc.laws, dc.spanfin, dc.zoo):
        assert module.all_functors is original_functors
    calls, self_s, results = tracer.snapshot()["fincat.all_functors"]
    assert (calls, results) == (1, len(found))
    assert self_s > 0
    assert tracer.snapshot()["fincat.FinCategory.hom"][0] > 0


def test_tracer_restores_after_an_exception(dc):
    with pytest.raises(ValueError):
        with Tracer(layers.TRACED):
            dc.fincat.compose_functors(
                dc.fincat.identity_functor(dc.zoo.walking_arrow()),
                dc.fincat.identity_functor(dc.zoo.terminal_category()))
    assert installed_wrappers() == []


def test_self_time_excludes_children(dc):
    tracer = Tracer(["tab.tabulate", "prof.unit_prof", "fincat.FinCategory.hom"])
    hom = dc.prof.unit_prof(workloads.ordinal(dc, 5, random.Random(0)))
    with tracer:
        with tracer.span("job"):
            dc.tab.tabulate(hom)
    spans = {s[0]: s for s in tracer.spans}
    root = [s for s in tracer.spans if s[1] == "job"][0]
    tab_span = [s for s in tracer.spans if s[1] == "tab.tabulate"][0]
    assert tab_span[4] == root[0]
    assert all(s[5] == root[0] for s in tracer.spans)
    assert all(s[4] in spans or s[4] == -1 for s in tracer.spans)
    snap = tracer.snapshot()
    total = sum(v[1] for v in snap.values())
    assert total <= tab_span[3] - tab_span[2] + 1e-9


def run_bench(cwd, workload, trace=0):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def test_pass_times_are_trimmed_means_in_reference_units():
    assert run.trimmed_mean([3.0, 1.0, 2.0]) == 2.0
    # ten values: the smallest and the largest are left out
    assert run.trimmed_mean([100.0] + [2.0] * 8 + [-50.0]) == 2.0
    assert run.job_means([[1.0, 5.0], [3.0, 5.0]]) == [2.0, 5.0]
    loop = run.Loop([])
    loop.reference_s = [4.0, 1.0, 1.0]
    assert loop.in_reference_units(6.0) == 3.0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_pass_has_no_failures(workload):
    proc = run_bench(workloads.ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] / result["attempted"] == 0
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])


def test_traced_run_covers_its_layers():
    proc = run_bench(workloads.ROOT, "fixture-cli", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    names = [name for name, _ in layers.metric_names()]
    assert list(result["metrics"]) == names
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "fixture-cli")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
