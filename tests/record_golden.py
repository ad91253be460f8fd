"""Record what each ``dcat`` command of ``tests/golden/commands.txt`` prints.

Usage, with ``dblcat`` importable (installed, or ``PYTHONPATH=src``):

    python tests/record_golden.py

This deletes every record, then, for each command and format, text and
json, calls ``cli.main`` in-process from the repository root and writes
stdout, stderr and the exit code to ``tests/golden/<slug>.<format>.out``,
``.err`` and ``.code``.  ``tests/test_cli.py::test_golden`` compares each
record with a fresh call.  Standard library and ``dblcat`` only.
"""

import contextlib
import io
import os
from pathlib import Path

from dblcat import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TABLE = "commands.txt"
FORMATS = ("text", "json")
PARTS = ("out", "err", "code")


def slug(argv):
    """``argv`` joined by ``-``, each workspace path cut to its stem; an
    option keeps its two dashes."""
    return "-".join(Path(w).stem if w.endswith(".dcat") else
                    w[1:] if w.startswith("--") else w for w in argv)


def records():
    """(name, argv) of each record, in table order: the command's slug and
    format, and the arguments of ``dcat`` that print it."""
    lines = (GOLDEN / TABLE).read_text(encoding="utf-8").splitlines()
    argvs = [line.split()[1:] for line in lines]
    return [(f"{slug(argv)}.{fmt}", argv + ["--format", fmt])
            for argv in argvs for fmt in FORMATS]


def run(argv):
    """stdout, stderr and the exit code of ``dcat argv``, in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), f"{code}\n"


def main():
    os.chdir(ROOT)
    for path in GOLDEN.iterdir():
        if path.name != TABLE:
            path.unlink()
    for name, argv in records():
        for part, text in zip(PARTS, run(argv)):
            (GOLDEN / f"{name}.{part}").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
