#!/usr/bin/env python3
"""Check that two ``scripts/corpus.py`` outputs hold the same numbers, to 1e-12.

Usage: python scripts/corpus_diff.py OLD NEW

Both files must list the same results in the same order.  A result may differ
only in its floats (``float.hex`` values), and each float by at most 1e-12;
any other difference fails: a leaf's order, a verdict, a transcript, or an
error's type or message (an error must match exactly).  The script prints the
number of results compared, how many are bit-identical, and the worst float
difference with its result's name, then each result that fails.  It exits 0
when none fails and 1 otherwise.
"""

from __future__ import annotations

import pathlib
import re
import sys

TOLERANCE = 1e-12
# A float as float.hex writes it: a finite value (infinities and NaN are compared as text).
HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]\d+")


def results(path: str) -> list[tuple[str, str]]:
    """The (name, result) of each line of a corpus file."""
    return [tuple(line.split(" = ", 1))
            for line in pathlib.Path(path).read_text().splitlines()]


def difference(old: str, new: str) -> float | None:
    """The largest float difference between two results, or None if they differ otherwise."""
    if old.startswith("raises ") or new.startswith("raises "):
        return None   # differing lines: an error differs in its type or message
    if HEX_FLOAT.split(old) != HEX_FLOAT.split(new):
        return None
    pairs = zip(HEX_FLOAT.findall(old), HEX_FLOAT.findall(new))
    return max((abs(float.fromhex(a) - float.fromhex(b)) for a, b in pairs), default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = results(argv[0]), results(argv[1])
    failures = []
    if [name for name, _ in old] != [name for name, _ in new]:
        failures.append(f"the files list different results ({len(old)} and {len(new)})")
    identical, worst, worst_name = 0, 0.0, None
    for (name, a), (_, b) in zip(old, new):
        if a == b:
            identical += 1
            continue
        diff = difference(a, b)
        if diff is None:
            failures.append(f"{name}: differs in more than its floats")
        elif diff > TOLERANCE:
            failures.append(f"{name}: a float differs by {diff:.3g}")
        if diff is not None and diff >= worst:
            worst, worst_name = diff, name
    print(f"{len(old)} results compared, {identical} bit-identical; worst float difference "
          f"{worst:.3g}" + (f" ({worst_name})" if worst_name else ""))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
