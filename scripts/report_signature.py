#!/usr/bin/env python3
"""Fingerprint of everything the suites report, timings left out.

Collects (suite, id, status, statement, witness) of every check of
`run_all()` on the paper's table and on the first N tables drawn by
`random_mutation(random.Random(SEED))`, writes them as JSON to
`report_signature.json` in the working directory, and prints the sha256
of that file.  Two versions of the package that report the same thing
print the same digest.  Usage: report_signature.py [N] [SEED]
(defaults 120 and 3).
"""

import hashlib
import json
import random
import sys

from fano22 import PaperConstants, SuiteConfig, random_mutation, run_all

OUT = "report_signature.json"


def signature(reports) -> list:
    return [[r.suite, c.id, c.status, c.statement, c.witness]
            for r in reports for c in r.checks]


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 120
    seed = int(argv[1]) if len(argv) > 1 else 3
    rng = random.Random(seed)
    tables = [{"key": None, "checks": signature(run_all())}]
    for _ in range(count):
        key, raw = random_mutation(rng)
        reports = run_all(SuiteConfig(constants=PaperConstants(raw=raw)))
        tables.append({"key": key, "checks": signature(reports)})
    data = json.dumps({"count": count, "seed": seed, "tables": tables},
                      indent=1, sort_keys=True).encode()
    with open(OUT, "wb") as fh:
        fh.write(data)
    print(f"{hashlib.sha256(data).hexdigest()}  {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
