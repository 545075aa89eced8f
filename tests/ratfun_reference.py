"""Reference GF(p)(s, t) arithmetic: the schoolbook polynomial product, the
rational-function add/mul/sub built on it, and Gauss-Jordan over
GF(p)(s, t) through those operations; and the fused row step on dense rows,
every cell of every row.  The program's sized products and its fused step
on sparse rows must return the same term dicts, and its term budget must
stop the elimination where the dense step stops."""

from altalg import fields
from altalg.fields import (Poly2, RatFun, TermBudgetError, _add_terms,
                           _mul_terms)


def reference_poly_mul(a: Poly2, b: Poly2) -> Poly2:
    p = a.p
    out: dict = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            e = (i1 + i2, j1 + j2)
            s = (out.get(e, 0) + c1 * c2) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Poly2(p, out)


def reference_poly_add(a: Poly2, b: Poly2) -> Poly2:
    p = a.p
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return Poly2(p, out)


def reference_neg(a: RatFun) -> RatFun:
    return RatFun(Poly2(a.num.p, {e: -c for e, c in a.num.terms.items()}), a.den)


def reference_add(a: RatFun, b: RatFun) -> RatFun:
    num = reference_poly_add(reference_poly_mul(a.num, b.den),
                             reference_poly_mul(b.num, a.den))
    return RatFun(num, reference_poly_mul(a.den, b.den))


def reference_sub(a: RatFun, b: RatFun) -> RatFun:
    return reference_add(a, reference_neg(b))


def reference_mul(a: RatFun, b: RatFun) -> RatFun:
    return RatFun(reference_poly_mul(a.num, b.num), reference_poly_mul(a.den, b.den))


def reference_rref_ratfun2(F, rows: list, ncols: int):
    """Gauss-Jordan without division during elimination (row_i := piv * row_i
    - f * pivot row); each pivot row is scaled by its inverse at the end."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if F.is_zero(f):
                continue
            rows[i] = [reference_sub(reference_mul(piv, x), reference_mul(f, y))
                       for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i, c in enumerate(pivots):
        inv = F.inv(rows[i][c])
        rows[i] = [reference_mul(inv, x) for x in rows[i]]
    return rows, r, pivots


def dense_rref_ratfun2(F, rows: list, ncols: int):
    """Gauss-Jordan with the fused row step of ``altalg.linalg`` on dense
    rows: once per row P1 = piv.num*f.den, P2 = f.num*piv.den and
    D = piv.den*f.den, then for every cell, zeros included,
    num = P1*(x.num*y.den) - P2*(y.num*x.den) and den = D*(x.den*y.den).
    Every product is checked against ``fields.TERM_BUDGET`` and every entry
    goes through ``F._guard``; each pivot row is scaled by its inverse at
    the end."""
    p, budget = F.p, fields.TERM_BUDGET

    def mul(a, b):
        ab = _mul_terms(p, a, b)
        if len(ab) > budget:
            raise TermBudgetError(f"elimination product grew to {len(ab)} terms")
        return ab

    def step(prow, c, row):
        pn, pd = prow[c].num.terms, prow[c].den.terms
        fn, fd = row[c].num.terms, row[c].den.terms
        p1, p2, d = mul(pn, fd), mul(fn, pd), mul(pd, fd)
        out = []
        for x, y in zip(row, prow):
            xn, xd, yn, yd = x.num.terms, x.den.terms, y.num.terms, y.den.terms
            a = mul(p1, mul(xn, yd)) if xn else {}
            b = mul(p2, mul(yn, xd)) if yn else {}
            out.append(F._guard(RatFun.of(p, _add_terms(p, a, b, -1) if b else a,
                                          mul(d, mul(xd, yd)))))
        return out

    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = step(rows[r], c, rows[i])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i, c in enumerate(pivots):
        inv = F.inv(rows[i][c])
        rows[i] = [F.mul(inv, x) for x in rows[i]]
    return rows, r, pivots
