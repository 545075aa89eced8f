import random

import pytest

from altalg.fields import PrimeField, RatFunField, RationalField
from altalg.scan import Law

# Laws the program decides by basis conditions, swept here as an oracle for
# the certified route: (x, x, y) = (xx)y - x(xy), and (x, y, y) swept in y.
LEFT_ALTERNATIVE = Law(2, ((1, "abu,ujm->abjm"), (-1, "bju,aum->abjm")))
RIGHT_ALTERNATIVE = Law(2, ((1, "jau,ubm->abjm"), (-1, "abu,jum->abjm")),
                        basis_first=True)


@pytest.fixture
def rng():
    return random.Random(42)


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
