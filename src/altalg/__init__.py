"""Exact-arithmetic toolkit for structure-constant algebras: derivation-type
operator spaces, split octonions and Cayley-Dickson doubling, and push-button
verification suites."""

__version__ = "0.1.0"

from .fields import (FieldError, PrimeField, RationalField, RatFunField,
                     TermBudgetError, make_field)
from .linalg import Matrix, Subspace, kernel, rref, solve
from .algebra import (Algebra, IdentityReport, TableFormatError,
                      algebra_from_json, algebra_to_json, check_identity,
                      derived_algebra, evaluate_identity, generated,
                      permuted, power_chain, special_subspace,
                      subspace_product)
from .quadratic import (InvolutiveAlgebra, QuadraticAlgebra, cd_double,
                        cd_inverse, cd_tower, find_isotropic, ground_field,
                        orthocomplement, zorn, zorn_frame, zorn_isomorphism)
from .operators import (InvertibilityVerdict, InvertibleValuesVerdict,
                        Lemma22Certificate, MoensResult, OperatorSpace,
                        derivation_space, invertible_in_space,
                        invertible_values_check, is_derivation, is_inner,
                        is_leibniz, leibniz_space, lemma22_case1,
                        lemma22_case2, moens_construction, mult_lie_algebra,
                        norm_certificate_check, quasider_space,
                        quasider_witness_q)
