#!/usr/bin/env python3
"""Tampering-detection experiment.

Perturbs one random constant at a time and reports which checks catch
each perturbation.  A mutant is killed by a fail when some check fails,
killed only by an error when checks error but none fails, and missed
when every check passes.  Usage: mutation_experiment.py [N_MUTATIONS] [SEED].
"""

import random
import sys
import time

from fano22 import PaperConstants, SuiteConfig, random_mutation, run_all


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 20
    seed = int(argv[1]) if len(argv) > 1 else 20260823
    rng = random.Random(seed)
    outcomes = {"killed_by_fail": 0, "error_only": 0, "missed": 0}
    start = time.perf_counter()
    for i in range(count):
        key, raw = random_mutation(rng)
        reports = run_all(SuiteConfig(constants=PaperConstants(raw=raw)))
        caught = [(f"{r.suite}/{c.id}[{c.status}]", c.status)
                  for r in reports for c in r.checks if c.status != "pass"]
        fails = [name for name, status in caught if status == "fail"]
        if fails:
            outcomes["killed_by_fail"] += 1
            print(f"#{i:02d} {key}: killed by fail in {len(fails)} of "
                  f"{len(caught)} checks, first: {fails[0]}")
        elif caught:
            outcomes["error_only"] += 1
            print(f"#{i:02d} {key}: killed only by error in {len(caught)} "
                  f"checks, first: {caught[0][0]}")
        else:
            outcomes["missed"] += 1
            print(f"#{i:02d} {key}: NOT DETECTED")
    elapsed = time.perf_counter() - start
    print(", ".join(f"{name} {n}" for name, n in outcomes.items())
          + f" of {count} mutations in {elapsed:.1f}s")
    return 0 if outcomes["missed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
