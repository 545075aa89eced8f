"""Properties over random small algebras (``strategies.algebras``), run on a
fixed, derandomized set of examples."""

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import algebras, elements, vectors

from altalg.algebra import permuted
from altalg.linalg import Matrix, Subspace
from altalg.operators import derivation_space, flatten_map
from altalg.quadratic import QuadraticAlgebra

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


def reference_forms(q, x, y):
    """t(x), n(x) and f(x, y) by field operations over the form data."""
    F, d = q.field, q.dim
    t, n, f = F.zero, F.zero, F.zero
    for i in range(d):
        t = F.add(t, F.mul(q.trace_vec[i], x[i]))
        for j in range(i, d):
            c = q.qform[i][j]
            n = F.add(n, F.mul(c, F.mul(x[i], x[j])))
            f = F.add(f, F.mul(c, F.add(F.mul(x[i], y[j]), F.mul(x[j], y[i]))))
    return t, n, f


@PROPERTY
@given(st.data())
def test_lifted_forms_match_the_field_operation_loops(data):
    # the forms as given, without the construction checks they need not pass
    A = data.draw(algebras())
    F, d = A.field, A.dim
    q = QuadraticAlgebra.__new__(QuadraticAlgebra)
    q.algebra = A
    q.trace_vec = data.draw(st.lists(elements(F), min_size=d, max_size=d))
    q.qform = data.draw(st.lists(st.lists(elements(F), min_size=d, max_size=d),
                                 min_size=d, max_size=d))
    q._lift_forms()
    x, y = data.draw(vectors(A)), data.draw(vectors(A))
    assert (q.trace(x), q.norm(x), q.bilinear(x, y)) == reference_forms(q, x, y)
