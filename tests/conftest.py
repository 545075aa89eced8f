import itertools
import math
import random

import pytest

from altalg import algebra
from altalg.algebra import Algebra
from altalg.fields import PrimeField, RatFunField, RationalField, make_field
from altalg.linalg import Subspace

# Laws the program decides by basis conditions, given a contraction here so
# that they are swept, as an oracle for the certified route:
# (x, x, y) = (xx)y - x(xy), and (y, x, x) swept in x.
LEFT_ALTERNATIVE = algebra._LAWS["left-alternative"]._replace(
    contraction=((1, "abu,ujm->abjm"), (-1, "bju,aum->abjm")))
RIGHT_ALTERNATIVE = algebra._LAWS["right-alternative"]._replace(
    contraction=((1, "jau,ubm->abjm"), (-1, "abu,jum->abjm")))


def vneg(A, x):
    """-x in the algebra A."""
    return [A.field.neg(a) for a in x]


def random_nonzero(F, rng):
    """A seeded random element of F other than zero."""
    while True:
        a = F.random_element(rng)
        if not F.is_zero(a):
            return a


def mat2(field):
    """Full 2x2 matrix algebra, basis (E11, E12, E21, E22)."""
    F = make_field(field)
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    table = {}
    for (a, b), i in idx.items():
        for (c, dd), j in idx.items():
            if b == c:
                table[(i, j)] = [(idx[(a, dd)], F.one)]
    return Algebra(F, 4, table, ["E11", "E12", "E21", "E22"])


def restricted_algebra(A: Algebra, S: Subspace) -> Algebra:
    """The multiplication of A restricted to a multiplicatively closed
    subspace, as a structure-constant algebra on the RREF basis of S."""
    F = A.field
    m = S.dim
    table = {}
    for i in range(m):
        for j in range(m):
            prod = A.mul(list(S.rows[i]), list(S.rows[j]))
            resid = S.reduce_vector(prod)
            if not all(F.is_zero(a) for a in resid):
                raise ValueError("subspace is not closed under multiplication")
            # RREF rows have unit pivots, so coordinates read off at pivots
            table[(i, j)] = [(r, prod[c]) for r, c in enumerate(S.pivots)]
    return Algebra(F, m, table)


def dense_rows(F, rows, ncols):
    """Sparse rows {column: value} as dense rows, F.zero elsewhere."""
    return [[row.get(j, F.zero) for j in range(ncols)] for row in rows]


def reference_dedupe_rows(F, rows):
    """Dense condition rows without zero rows and, over GF(p) and Q, without
    repeats (keyed on the dense tuple), keeping the first of each."""
    out = []
    if F.kind != "ratfun2":
        seen = set()
        for r in rows:
            if all(F.is_zero(a) for a in r):
                continue
            key = tuple(r)
            if key not in seen:
                seen.add(key)
                out.append(r)
    else:
        for r in rows:
            if not all(F.is_zero(a) for a in r):
                out.append(r)
    return out


def reference_normal_rows(F, rows):
    """Dense condition rows over GF(p) or Q, each divided by its leading
    entry and, over Q, multiplied by the lcm of the denominators (primitive
    integers with a positive leading entry), zero rows dropped and the first
    of each normal form kept."""
    out, seen = [], set()
    for r in rows:
        lead = next((a for a in r if not F.is_zero(a)), None)
        if lead is None:
            continue
        monic = [F.div(a, lead) for a in r]
        if F.kind == "rationals":
            scale = math.lcm(*(a.denominator for a in monic))
            monic = [a * scale for a in monic]
        key = tuple(monic)
        if key not in seen:
            seen.add(key)
            out.append(monic)
    return out


def reference_is_leibniz(A, phi, n):
    """The Leibniz law of order n on all d^n basis tuples in
    ``itertools.product`` order, every left-normed product formed from
    scratch with field operations, as ``is_leibniz`` did before it walked
    the prefix trie on lifted values.  (True, None) or (False, (tuple,
    discrepancy))."""
    d = A.dim
    e = A.basis()
    phi_e = [phi.mulvec(e[r]) for r in range(d)]
    for idx in itertools.product(range(d), repeat=n):
        prefixes = [e[idx[0]]]
        for t in range(1, n):
            prefixes.append(A.mul(prefixes[-1], e[idx[t]]))
        lhs = phi.mulvec(prefixes[-1])
        rhs = A.zero()
        for t in range(n):
            v = phi_e[idx[t]] if t == 0 else A.mul(prefixes[t - 1], phi_e[idx[t]])
            for u in range(t + 1, n):
                v = A.mul(v, e[idx[u]])
            rhs = A.vadd(rhs, v)
        diff = A.vsub(lhs, rhs)
        if not A.is_zero_vec(diff):
            return False, (idx, diff)
    return True, None


@pytest.fixture
def rng():
    return random.Random(42)


@pytest.fixture
def swept(monkeypatch):
    """swept(A, name, law=None): the witness arguments of check_identity(A,
    name) with ``law`` in the law table, or None if the law holds; the
    identity must be decided by an exhaustive sweep."""
    def run(A, name, law=None):
        if law is not None:
            monkeypatch.setitem(algebra._LAWS, name, law)
        r = algebra.check_identity(A, name)
        assert r.provenance == "exhaustive", (name, r)
        return None if r.holds else r.witness.args
    return run


@pytest.fixture(params=["gf2", "gf3", "rationals", "ratfun2"])
def any_field(request):
    return {
        "gf2": PrimeField(2),
        "gf3": PrimeField(3),
        "rationals": RationalField(),
        "ratfun2": RatFunField(2),
    }[request.param]


def sample_elements(field, rng, count=128):
    """Deterministic elements for property checks: exhaustive for the tiny
    prime fields, seeded samples elsewhere."""
    if field.is_finite and field.order <= 3:
        return list(field.elements())
    return [field.random_element(rng) for _ in range(count)]


def sparse_element(field, rng):
    """Matrix-entry sampler; for ratfun2 the field's own sampler already keeps
    entries monomial/monomial so unreduced matrices stay inside the budget."""
    return field.random_element(rng)
