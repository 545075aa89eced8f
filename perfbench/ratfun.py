"""Seeded elimination batch over GF(2)(s,t) through ``altalg.linalg.rref``.

Each problem is a dense n x n matrix A of monomial/monomial entries and a
vector x of monomials; the batch row-reduces the augmented matrix [A | A x]
and checks that the result is [I | x] (rank n, pivots 0..n-1, entries
compared with ``F.eq``), so the check does not depend on how the program
represents its unreduced fractions.

The base problems are drawn once from a fixed generator.  ``--seed`` picks,
per problem, a monomial change of variables (s, t) -> (s^a t^b, s^c t^d)
with ad - bc != 0.  That map is injective on exponents, so every
intermediate polynomial keeps its term count: every seed does the same
elimination work on different matrices, and wall time spreads only with
the machine.

Run as a script it prints one JSON line per problem and exits 0 iff every
problem checked out.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

if __name__ == "__main__":
    from workloads import use_checkout_source
    use_checkout_source()

from altalg import linalg
from altalg.fields import Poly2, RatFun, RatFunField

P = 2
# (size, count): 7x7 is the costly case; 8x8 takes minutes and stays out.
SHAPES = ((6, 4), (7, 1))
BASE_SEED = 2012


def _base_problems() -> list:
    rng = random.Random(BASE_SEED)

    def mono():
        return ((rng.randint(0, 1), rng.randint(0, 1)),)

    out = []
    for n, count in SHAPES:
        for _ in range(count):
            A = [[(mono(), mono()) for _ in range(n)] for _ in range(n)]
            x = [mono() for _ in range(n)]
            out.append((A, x))
    return out


def _substitution(rng) -> tuple:
    while True:
        a, b, c, d = (rng.randint(0, 2) for _ in range(4))
        if a * d - b * c:
            return a, b, c, d


def make_batch(seed: int) -> list:
    """[(F, augmented rows, x)] for the seed; see the module docstring."""
    F = RatFunField(P)
    rng = random.Random(seed)
    batch = []
    for A, x in _base_problems():
        a, b, c, d = _substitution(rng)

        def poly(monos):
            return Poly2(P, {(a * i + c * j, b * i + d * j): 1 for i, j in monos})

        def entry(num_den):
            return RatFun(poly(num_den[0]), poly(num_den[1]))

        rows = [[entry(e) for e in row] for row in A]
        xs = [RatFun(poly(m), Poly2.const(P, 1)) for m in x]
        for row in rows:
            acc = F.zero
            for aij, xj in zip(row, xs):
                acc = F.add(acc, F.mul(aij, xj))
            row.append(acc)
        batch.append((F, rows, xs))
    return batch


def run_batch(batch: list) -> tuple:
    """Row-reduce every problem; return (report text, all problems correct)."""
    lines, all_ok = [], True
    for F, rows, xs in batch:
        n = len(xs)
        red, rank, pivots = linalg.rref(linalg.Matrix(F, rows, n + 1))
        ok = (rank == n and list(pivots) == list(range(n))
              and all(F.eq(red.rows[i][j], F.one if i == j else F.zero)
                      for i in range(n) for j in range(n))
              and all(F.eq(red.rows[i][n], xs[i]) for i in range(n)))
        all_ok = all_ok and ok
        lines.append(json.dumps({"n": n, "rank": rank, "solved": ok}))
    return "\n".join(lines) + "\n", all_ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    text, ok = run_batch(make_batch(args.seed))
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
