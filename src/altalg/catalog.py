"""Named instances: the concrete algebras the verification suites run on.

Every builder returns an Instance bundling the algebra with whatever extra
structure belongs to it (quadratic data, a distinguished derivation, the
generated subfield, ...).  Defaults reproduce the desk computations; a
builder's keyword parameters (a field, a map parameter) override them.
``build`` hands its keywords to the builder, so one that the builder does
not take raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, generated
from .fields import Field, PrimeField, RationalField, RatFunField, make_field
from .linalg import Matrix, Subspace
from .operators import is_derivation
from .quadratic import (InvolutiveAlgebra, QuadraticAlgebra, cd_tower,
                        ground_field, zorn)


@dataclass
class Instance:
    algebra: Algebra
    quadratic: QuadraticAlgebra | None = None
    involutive: InvolutiveAlgebra | None = None
    derivation: Matrix | None = None
    b_space: Subspace | None = None         # gagola-B: the generated subfield
    kernel_space: Subspace | None = None    # lemma23-Dx: ker d = D


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
    """The split octonions as Zorn vector matrices."""
    F = _resolve_field(field, PrimeField(3))
    q = zorn(F)
    return Instance(q.algebra, quadratic=q, involutive=q.as_involutive())


def _build_quaternions_q() -> Instance:
    """The rational quaternions, doubling parameters (-1, -1)."""
    inv = cd_tower(RationalField(), (-1, -1))
    return Instance(inv.algebra, quadratic=inv.quadratic, involutive=inv)


def _build_split_octonions_q() -> Instance:
    """The doubling tower (-1, -1, 1) over the rationals."""
    inv = cd_tower(RationalField(), (-1, -1, 1))
    return Instance(inv.algebra, quadratic=inv.quadratic, involutive=inv)


def gagola_generators(F: RatFunField):
    """The two trace-zero generators [0 (s,0,0); (1,0,0) 0], [0 (0,t,0); (0,1,0) 0]."""
    g1 = [F.zero] * 8
    g1[2] = F.s()   # u1
    g1[5] = F.one   # v1
    g2 = [F.zero] * 8
    g2[3] = F.t()   # u2
    g2[6] = F.one   # v2
    return g1, g2


def _build_gagola_b() -> Instance:
    """The split octonions over the imperfect field GF(2)(s, t) of
    characteristic 2, with the 4-dim subfield B that ``gagola_generators``
    generate."""
    F = RatFunField(2)
    q = zorn(F)
    g1, g2 = gagola_generators(F)
    b_space = generated(q.algebra, "subalgebra", [g1, g2])
    return Instance(q.algebra, quadratic=q, b_space=b_space)


def _build_lemma23_dx(a=(0, 0)) -> Instance:
    """D[x]/(x^2) for D the 4-element field, with d(D)=0, d(x)=1+ax: an
    outer derivation with invertible values on a quadratic extension of
    GF(2) with a square-zero x.

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
    return Instance(A, derivation=d, kernel_space=dspace)


def _build_remark22(field=None) -> Instance:
    """The 7-dimensional nilpotent algebra (over GF(3) by default) whose
    derivations are all singular.

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
    return Instance(A)


def _build_trivial_nilpotent(field=None) -> Instance:
    """e^2 = f, everything else 0."""
    F = _resolve_field(field, RationalField())
    A = Algebra(F, 2, {(0, 0): [(1, F.one)]}, ["e", "f"])
    return Instance(A)


def _build_upper3(field=None) -> Instance:
    """The strictly upper-triangular 3x3 matrices."""
    F = _resolve_field(field, RationalField())
    A = Algebra(F, 3, {(0, 2): [(1, F.one)]}, ["E12", "E13", "E23"])
    return Instance(A)


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
