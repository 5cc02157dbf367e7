"""Exit 0 iff a verify report matches a golden report once every ``elapsed_ms`` is dropped.

    python tests/same_report.py REPORT GOLDEN

REPORT is the JSON that ``python -m weylpoly verify`` prints; GOLDEN is one under
``tests/data``, the same command's report with every ``elapsed_ms`` dropped.  On a
difference the script prints the entries that differ and exits 1.
"""

import json
import sys


def main(report: str, golden: str) -> int:
    with open(report, encoding="utf-8") as handle:
        got = json.load(handle)
    for entry in got["entries"]:
        entry.pop("elapsed_ms")
    with open(golden, encoding="utf-8") as handle:
        want = json.load(handle)
    if got == want:
        return 0
    if len(got["entries"]) != len(want["entries"]):
        print(f"{len(got['entries'])} entries against {len(want['entries'])} in {golden}", file=sys.stderr)
    for a, b in zip(got["entries"], want["entries"]):
        if a != b:
            print(f"got  {json.dumps(a)}\nwant {json.dumps(b)}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
