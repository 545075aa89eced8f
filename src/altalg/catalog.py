"""Named instances: the concrete algebras the verification suites run on.

Every builder returns an Instance bundling the algebra with whatever extra
structure belongs to it (quadratic data, a distinguished derivation, the
generated subfield, ...).  Defaults reproduce the desk computations; field
choices can be overridden where that makes sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .algebra import Algebra, generated, restricted_algebra
from .fields import Field, PrimeField, RationalField, RatFunField, make_field
from .linalg import Matrix, Subspace
from .operators import is_derivation
from .quadratic import (InvolutiveAlgebra, QuadraticAlgebra, cd_tower,
                        ground_field, zorn)


@dataclass
class Instance:
    name: str
    algebra: Algebra
    quadratic: QuadraticAlgebra | None = None
    involutive: InvolutiveAlgebra | None = None
    derivation: Matrix | None = None
    extras: dict = dataclass_field(default_factory=dict)
    note: str = ""


class UnknownInstanceError(ValueError):
    pass


def build(name: str, **params) -> Instance:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownInstanceError(
            f"unknown catalog instance {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        ) from None
    return builder(**params)


def _resolve_field(field, default: Field) -> Field:
    return default if field is None else make_field(field)


def _build_zorn(field=None) -> Instance:
    F = _resolve_field(field, PrimeField(3))
    q = zorn(F)
    return Instance("zorn", q.algebra, quadratic=q,
                    involutive=q.as_involutive(),
                    note="split octonions as Zorn vector matrices")


def _build_quaternions_q(**_ignored) -> Instance:
    inv = cd_tower(RationalField(), (-1, -1))
    return Instance("quaternions-Q", inv.algebra, quadratic=inv.quadratic,
                    involutive=inv,
                    note="rational quaternions, doubling parameters (-1, -1)")


def _build_split_octonions_q(**_ignored) -> Instance:
    inv = cd_tower(RationalField(), (-1, -1, 1))
    return Instance("split-octonions-Q", inv.algebra, quadratic=inv.quadratic,
                    involutive=inv,
                    note="doubling tower (-1, -1, 1) over the rationals")


def gagola_generators(F: RatFunField, alpha=None, beta=None):
    """The two trace-zero generators [0 (a,0,0); (1,0,0) 0], [0 (0,b,0); (0,1,0) 0]."""
    if alpha is None:
        alpha = F.s()
    if beta is None:
        beta = F.t()
    g1 = [F.zero] * 8
    g1[2] = alpha   # u1
    g1[5] = F.one   # v1
    g2 = [F.zero] * 8
    g2[3] = beta    # u2
    g2[6] = F.one   # v2
    return g1, g2


def _build_gagola_b(field=None, alpha=None, beta=None) -> Instance:
    F = _resolve_field(field, RatFunField(2))
    if F.kind != "ratfun2" or F.char != 2:
        raise ValueError("the generated subfield lives over GF(2)(s, t)")
    q = zorn(F)
    g1, g2 = gagola_generators(F, alpha, beta)
    b_space = generated(q.algebra, "subalgebra", [g1, g2])
    b_alg = restricted_algebra(q.algebra, b_space)
    return Instance("gagola-B", q.algebra, quadratic=q,
                    extras={"b_space": b_space, "generators": [g1, g2],
                            "b_algebra": b_alg},
                    note="4-dim subfield of the split octonions over an "
                         "imperfect field of characteristic 2")


def _build_lemma23_dx(a=(0, 0)) -> Instance:
    """D[x]/(x^2) for D the 4-element field, with d(D)=0, d(x)=1+ax.

    Basis (1, w, x, wx) over GF(2) with w^2 = 1 + w; the parameter a is a
    pair of GF(2) coordinates of a = a0 + a1 w.
    """
    F = PrimeField(2)
    one, w, x, wx = 0, 1, 2, 3
    table = {
        (one, one): [(one, 1)],
        (one, w): [(w, 1)], (w, one): [(w, 1)],
        (one, x): [(x, 1)], (x, one): [(x, 1)],
        (one, wx): [(wx, 1)], (wx, one): [(wx, 1)],
        (w, w): [(one, 1), (w, 1)],
        (w, x): [(wx, 1)], (x, w): [(wx, 1)],
        (w, wx): [(x, 1), (wx, 1)], (wx, w): [(x, 1), (wx, 1)],
    }
    A = Algebra(F, 4, table, ["1", "w", "x", "wx"])
    a0, a1 = (int(v) % 2 for v in a)
    d = Matrix.zeros(F, 4, 4)
    # d(x) = 1 + a x = 1 + a0 x + a1 wx
    d.rows[one][x] = 1
    d.rows[x][x] = a0
    d.rows[wx][x] = a1
    # d(wx) = w d(x) = w + a1 x + (a0 + a1) wx
    d.rows[w][wx] = 1
    d.rows[x][wx] = a1
    d.rows[wx][wx] = (a0 + a1) % 2
    if not is_derivation(A, d):
        raise ValueError("lemma23 map is not a derivation (bad parameter?)")
    dspace = Subspace.from_vectors(F, 4, [A.basis_vec(one), A.basis_vec(w)])
    return Instance("lemma23-Dx", A, derivation=d,
                    extras={"kernel_space": dspace, "a": (a0, a1)},
                    note="outer derivation with invertible values on a "
                         "quadratic extension of GF(2) with a square-zero x")


def _build_remark22(field=None) -> Instance:
    """The 7-dimensional nilpotent algebra with only singular derivations.

    Table (all unlisted products zero): e1^2=u1, e2^2=u2, e2e3=e3e2=-v,
    e3e1=u2, e1e3=u2, e1u1=u1e1=v, e2u2=u2e2=w, e1v=ve1=w, u1^2=w.
    """
    F = _resolve_field(field, PrimeField(3))
    e1, e2, e3, u1, u2, v, w = range(7)
    m1 = F.neg(F.one)
    table = {
        (e1, e1): [(u1, F.one)],
        (e2, e2): [(u2, F.one)],
        (e2, e3): [(v, m1)], (e3, e2): [(v, m1)],
        (e3, e1): [(u2, F.one)],
        (e1, e3): [(u2, F.one)],
        (e1, u1): [(v, F.one)], (u1, e1): [(v, F.one)],
        (e2, u2): [(w, F.one)], (u2, e2): [(w, F.one)],
        (e1, v): [(w, F.one)], (v, e1): [(w, F.one)],
        (u1, u1): [(w, F.one)],
    }
    A = Algebra(F, 7, table, ["e1", "e2", "e3", "u1", "u2", "v", "w"])
    return Instance("remark22", A,
                    note="7-dim nilpotent algebra over GF(3) whose derivations "
                         "are all singular")


def _build_trivial_nilpotent(field=None) -> Instance:
    F = _resolve_field(field, RationalField())
    A = Algebra(F, 2, {(0, 0): [(1, F.one)]}, ["e", "f"])
    return Instance("trivial-nilpotent", A, note="e^2 = f, everything else 0")


def _build_upper3(field=None) -> Instance:
    F = _resolve_field(field, RationalField())
    A = Algebra(F, 3, {(0, 2): [(1, F.one)]}, ["E12", "E13", "E23"])
    return Instance("upper3", A, note="strictly upper-triangular 3x3 matrices")


_BUILDERS = {
    "zorn": _build_zorn,
    "quaternions-Q": _build_quaternions_q,
    "split-octonions-Q": _build_split_octonions_q,
    "gagola-B": _build_gagola_b,
    "lemma23-Dx": _build_lemma23_dx,
    "remark22": _build_remark22,
    "trivial-nilpotent": _build_trivial_nilpotent,
    "upper3": _build_upper3,
}

CATALOG_NAMES = tuple(_BUILDERS)


# ---- plain helpers used by suites and tests ---------------------------------

def field_algebra(field) -> Algebra:
    """A field as a 1-dimensional unital algebra."""
    return ground_field(field).algebra


def zero_algebra(field, dim: int) -> Algebra:
    return Algebra(make_field(field), dim, {})


def mat2(field) -> Algebra:
    """Full 2x2 matrix algebra, basis (E11, E12, E21, E22)."""
    F = make_field(field)
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    table = {}
    for (a, b), i in idx.items():
        for (c, dd), j in idx.items():
            if b == c:
                table[(i, j)] = [(idx[(a, dd)], F.one)]
    return Algebra(F, 4, table, ["E11", "E12", "E21", "E22"])
