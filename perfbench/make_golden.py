#!/usr/bin/env python3
"""Write the census golden file used by the census workload.

    python3 perfbench/make_golden.py

Runs `a4csl census --nmax N` from ./src and refuses to write the file
unless every row has match = true and the class count of every row equals
the ideal-zeta count computed independently in reference.py.
"""

from __future__ import annotations

import sys

from run import load_program


def main() -> int:
    load_program()
    from workloads import CENSUS_GOLDEN, CENSUS_NMAX, census_golden_check, run_census

    code, text = run_census(CENSUS_NMAX)
    problems = census_golden_check(text, CENSUS_NMAX) if code == 0 else [f"exit code {code}"]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    CENSUS_GOLDEN.parent.mkdir(exist_ok=True)
    CENSUS_GOLDEN.write_text(text)
    print(f"wrote {CENSUS_GOLDEN.name}: {len(text.splitlines()) - 1} rows, all cross-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
