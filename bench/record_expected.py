"""Write the stored known answers under ``expected/`` from the current program.

These files hold the seed's output for the jobs that have no closed form:
the JSON payload and exit code of every fixture-cli job, and the report
counts of the two tabulation verifiers.  A changed verdict, witness id or
payload is a bug, so rerun this only for a change that is meant to alter
output, and say so in that change.

Run from the repository root:  python3 bench/record_expected.py
"""

from __future__ import annotations

import json
import random

import workloads


def main():
    dc = workloads.import_dblcat()
    answers = {}
    for name in workloads.CLI_JOBS:
        code, out = workloads.call_cli(dc.cli, workloads.cli_argv(name))
        answers[name] = {"code": code, "payload": json.loads(out)}
    write("fixture-cli", answers)

    rng = random.Random(0)
    hom3 = dc.prof.unit_prof(workloads.ordinal(dc, workloads.TABULATION_SIZE, rng))
    hom2 = dc.prof.unit_prof(workloads.ordinal(dc, workloads.INTERNAL_SIZE, rng))
    ok3, report3 = dc.tab.verify_tabulation(dc.tab.tabulate(hom3))
    ok2, report2 = dc.spanfin.verify_internal_tabulation(
        dc.spanfin.internal_tabulate(dc.spanfin.prof_bridge(hom2)),
        workloads.internal_probes(dc))
    if not (ok3 and ok2):
        raise SystemExit("a tabulation verifier failed; nothing written")
    write("ord-decide", {"verify_tabulation": report3,
                         "verify_internal_tabulation": report2})


def write(workload, answers):
    path = workloads.EXPECTED / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
