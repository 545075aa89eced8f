"""Reference GF(p)(s, t) arithmetic: the schoolbook polynomial product, the
rational-function add/mul/sub built on it, and Gauss-Jordan over
GF(p)(s, t) through those operations.  The program's sized products and
fused elimination step must return the same term dicts."""

from altalg.fields import Poly2, RatFun


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
