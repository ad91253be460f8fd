"""Run the mutants of ``tests/mutants.json``: each must be caught.

Usage, from the repository root:

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py NAME ...   # the named mutants only

A mutant names a source file, an exact old text that occurs once in it,
its replacement, and the test node ids that must fail once it is applied.
First every named test runs on an unchanged copy of ``src`` and ``tests``,
where each must pass.  Then each mutant is applied to a fresh copy, and
each of its tests runs alone, in a fresh process.  The run fails when a
named test passes under its mutant (the mutant survives), when a test
fails on the unchanged copy, or when an old text does not occur exactly
once (a stale entry to update).  Standard library only; pytest does not
collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"


def copy_tree(dest):
    """A copy of the package, the tests, the pytest settings and the
    README, whose commands a test runs."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    for part in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / part, dest / part)


def pytest(where, node_ids):
    """The exit code of pytest on ``node_ids`` in the copy ``where``."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *node_ids], cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return done.returncode


def apply(where, mutant):
    """Apply ``mutant`` to the copy ``where``; a problem, or None."""
    path = where / mutant["file"]
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant["old"])
    if found != 1:
        return f"old text occurs {found} times in {mutant['file']}"
    path.write_text(text.replace(mutant["old"], mutant["new"]),
                    encoding="utf-8")
    return None


def main(names):
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print("unknown mutants:", ", ".join(sorted(unknown)))
        return 2
    if names:
        mutants = [m for m in mutants if m["name"] in names]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        node_ids = sorted({t for m in mutants for t in m["tests"]})
        # pytest exits 0 when every test passes, 1 when some fail and 4
        # when a node id names no test
        code = pytest(clean, node_ids)
        if code != 0:
            failures.append(f"the named tests exit {code} on the unchanged copy")
        for n, mutant in enumerate(mutants):
            where = Path(tmp) / f"mutant{n}"
            copy_tree(where)
            problem = apply(where, mutant)
            if problem is None:
                # a test catches its mutant when it fails (exit 1); any
                # other exit, such as 0 or a collection error, is reported
                missed = [f"{t} (exit {code})" for t in mutant["tests"]
                          if (code := pytest(where, [t])) != 1]
                if missed:
                    problem = "not caught by " + ", ".join(missed)
            print(f"{'caught' if problem is None else 'FAILED'}: "
                  f"{mutant['name']}" + (f" ({problem})" if problem else ""))
            if problem:
                failures.append(f"{mutant['name']}: {problem}")
            shutil.rmtree(where)
    for failure in failures:
        print("FAILED", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
