"""Compare two directories of CLI artifacts written by ``demos/cli_artifacts.sh``.

    python demos/compare_artifacts.py DIR_A DIR_B --tol T

The directories must hold the same file names and the same ``exits.txt``.
Every other file must be byte-equal, or else equal token by token: the text
between numbers equal, and every number within T of its counterpart
(absolute), numbers inside strings such as "worst slack 1.55e-15" included.
The script prints the largest difference of each file that is not
byte-equal, and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# a decimal number; the capture group makes re.split keep it, so the pieces
# alternate text, number, text, ..., text
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def compare_text(a: str, b: str, tol: float) -> tuple[float, str | None]:
    """The largest difference of two numbers in a and b, and why they do not
    match (None when every text piece is equal and every number within tol)."""
    pieces_a, pieces_b = NUMBER.split(a), NUMBER.split(b)
    if len(pieces_a) != len(pieces_b):
        return 0.0, f"{len(pieces_a) // 2} numbers against {len(pieces_b) // 2}"
    worst = 0.0
    for k, (x, y) in enumerate(zip(pieces_a, pieces_b)):
        if k % 2 == 0:
            if x != y:
                return worst, f"text {x[:40]!r} against {y[:40]!r}"
        else:
            worst = max(worst, abs(float(x) - float(y)))
    return worst, None if worst <= tol else f"a number differs by more than {tol:g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--tol", type=float, required=True, help="largest absolute difference of a number")
    args = parser.parse_args(argv)
    names_a, names_b = set(os.listdir(args.dir_a)), set(os.listdir(args.dir_b))
    ok = names_a == names_b
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {args.dir_a if name in names_a else args.dir_b}")
    identical = 0
    for name in sorted(names_a & names_b):
        with open(os.path.join(args.dir_a, name), "rb") as fa, open(os.path.join(args.dir_b, name), "rb") as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            identical += 1
            continue
        if name == "exits.txt":
            worst, why = 0.0, "exit codes differ"
        else:
            worst, why = compare_text(a.decode("utf-8"), b.decode("utf-8"), args.tol)
        print(f"{name}: largest difference {worst:.3g}" + (f"; mismatch: {why}" if why else ""))
        ok = ok and why is None
    print(f"{identical} of {len(names_a & names_b)} files byte-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
