import random

import pytest

from altalg import algebra
from altalg.fields import PrimeField, RatFunField, RationalField

# Laws the program decides by basis conditions, given a contraction here so
# that they are swept, as an oracle for the certified route:
# (x, x, y) = (xx)y - x(xy), and (y, x, x) swept in x.
LEFT_ALTERNATIVE = algebra._LAWS["left-alternative"]._replace(
    contraction=((1, "abu,ujm->abjm"), (-1, "bju,aum->abjm")))
RIGHT_ALTERNATIVE = algebra._LAWS["right-alternative"]._replace(
    contraction=((1, "jau,ubm->abjm"), (-1, "abu,jum->abjm")))


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
