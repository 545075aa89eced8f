"""Properties over random small algebras (``strategies.algebras``), run on a
fixed, derandomized set of examples."""

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import algebras, vectors

from altalg.algebra import permuted
from altalg.linalg import Matrix, Subspace
from altalg.operators import derivation_space, flatten_map

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def reference_mul(A, x, y):
    """xy by field operations, one term of the table at a time."""
    F = A.field
    out = [F.zero] * A.dim
    for (i, j), terms in A.table.items():
        for k, c in terms:
            out[k] = F.add(out[k], F.mul(F.mul(x[i], y[j]), c))
    return out


@PROPERTY
@given(st.data())
def test_mul_matches_the_field_operation_loop(data):
    A = data.draw(algebras())
    x, y = data.draw(vectors(A)), data.draw(vectors(A))
    assert A.mul(x, y) == reference_mul(A, x, y)


@PROPERTY
@given(st.data())
def test_derivation_space_of_a_permuted_algebra_conjugates_back(data):
    A = data.draw(algebras())
    F, d = A.field, A.dim
    perm = data.draw(st.permutations(range(d)))
    # P e_a = e_perm[a] takes coordinates on the permuted basis to A's
    Pinv = Matrix(F, [A.basis_vec(p) for p in perm], d)
    P = Pinv.transpose()
    DP = derivation_space(permuted(A, perm))
    back = [flatten_map(P.matmul(M).matmul(Pinv)) for M in DP.basis_maps()]
    assert Subspace.from_vectors(F, d * d, back) == derivation_space(A).space
