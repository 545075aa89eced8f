"""Hypothesis strategies: random structure-constant algebras of dimension at
most 4 over GF(2), GF(3), GF(7) and Q, and their elements."""

from hypothesis import strategies as st

from altalg.algebra import Algebra
from altalg.fields import PrimeField, RationalField

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(7), RationalField())


def elements(F):
    """Field elements: residues over GF(p), small fractions over Q."""
    if F.kind == "prime":
        return st.integers(0, F.p - 1)
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def algebras(draw, max_dim: int = 4):
    """An algebra whose basis products e_i e_j have at most two terms."""
    F = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, max_dim))
    nonzero = elements(F).filter(lambda a: a != 0)
    table = {}
    for i in range(d):
        for j in range(d):
            ks = draw(st.lists(st.integers(0, d - 1), max_size=2, unique=True))
            if ks:
                table[(i, j)] = [(k, draw(nonzero)) for k in ks]
    return Algebra(F, d, table)


def vectors(A):
    """Elements of the algebra A."""
    return st.lists(elements(A.field), min_size=A.dim, max_size=A.dim)
