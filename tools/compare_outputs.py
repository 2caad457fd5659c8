"""Compare two directories written by tools/outputs.py, allowing floating-point moves only.

Usage:

    python tools/compare_outputs.py DIR_A DIR_B

Every file is read as text and cut into floating-point tokens (a number
with a decimal point or an exponent, or nan and inf) and the text
between them. Two files differ only in numbers when that text, every
integer in it included (exit codes, counts, labels), is the same and
the tokens pair up one to one. The script prints how many files are
byte-identical and how many differ only in numbers, then the worst
move of a DIR_A value v to its DIR_B value: relative, |b - v|/|v|, where
|v| >= 1e-9, and absolute below that, where a roundoff zero has no
scale. Any other difference (a file in one tree only, a changed word or
integer, a NaN or infinity that moves) is listed, and the exit status
is then 1. Only the standard library is used.
"""

from __future__ import annotations

import math
import os
import re
import sys

SMALL = 1e-9
FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?"
                   r"|(?<![A-Za-z])[-+]?(?:nan|inf|NaN|Infinity)(?![A-Za-z])")


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(base, name), root)
            for base, _, names in os.walk(root) for name in names}


def _split(text: str) -> tuple[list[str], list[str]]:
    """(the text between the floating-point tokens, the tokens)."""
    return FLOAT.split(text), FLOAT.findall(text)


class Moves:
    """The worst relative and absolute moves seen, with where each was seen."""

    def __init__(self) -> None:
        self.relative = (0.0, None)
        self.absolute = (0.0, None)

    def add(self, name: str, a: str, b: str) -> bool:
        """Record the move from token a to token b; False when it is not a finite move."""
        x, y = float(a), float(b)
        if not (math.isfinite(x) and math.isfinite(y)):
            return x == y or (math.isnan(x) and math.isnan(y))
        where = f"{name}: {a} -> {b}"
        if abs(x) >= SMALL:
            move = abs(y - x) / abs(x)
            if move > self.relative[0]:
                self.relative = (move, where)
        elif abs(y - x) > self.absolute[0]:
            self.absolute = (abs(y - x), where)
        return True


def _numbers_only(name: str, a: str, b: str, moves: Moves) -> bool:
    text_a, numbers_a = _split(a)
    text_b, numbers_b = _split(b)
    if text_a != text_b:
        return False
    return all(moves.add(name, x, y) for x, y in zip(numbers_a, numbers_b) if x != y)


def compare(dir_a: str, dir_b: str) -> tuple[list[str], int, int, Moves]:
    """(the files that differ otherwise, identical files, numbers-only files, the moves)."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    others = [f"only in {dir_a}: {name}" for name in sorted(files_a - files_b)]
    others += [f"only in {dir_b}: {name}" for name in sorted(files_b - files_a)]
    identical = numeric = 0
    moves = Moves()
    for name in sorted(files_a & files_b):
        with open(os.path.join(dir_a, name), "rb") as handle:
            a = handle.read()
        with open(os.path.join(dir_b, name), "rb") as handle:
            b = handle.read()
        if a == b:
            identical += 1
            continue
        try:
            same = _numbers_only(name, a.decode("utf-8"), b.decode("utf-8"), moves)
        except UnicodeDecodeError:
            same = False
        if same:
            numeric += 1
        else:
            others.append(f"differs: {name}")
    return others, identical, numeric, moves


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(path) for path in argv):
        print(__doc__, file=sys.stderr)
        return 2
    others, identical, numeric, moves = compare(*argv)
    print(f"identical: {identical}")
    print(f"numbers only: {numeric}")
    for label, (move, where) in ((f"relative, |v| >= {SMALL:g}", moves.relative),
                                 (f"absolute, |v| < {SMALL:g}", moves.absolute)):
        print(f"worst {label}: {move:.3g}" + (f" ({where})" if where else ""))
    print(f"other differences: {len(others)}")
    for line in others:
        print(f"  {line}")
    return 1 if others else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
