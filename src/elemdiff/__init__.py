"""Exact combinatorics of elementary differentials: labelled rooted trees,
arity multi-indices, truncated polynomial jets, and certified linear algebra
over their evaluation maps."""

from .config import RunConfig
from .errors import (ElemdiffError, MismatchError, PreconditionError,
                     SizeLimitError, SpanInstabilityError)
from .trees import (Permutation, Tree, chain_tree, enumerate_trees, find_sigma,
                    relabel, retarget, retarget_edges, trees_with_arities)
from .multiindex import MultiIndex, enumerate_multi_indices, project_arities
from .jets import (Jet, add, assemble, component, monomial_basis_size,
                   monomials_up_to, mul_scalar, multi_partial, partial,
                   random_jet_tuple, truncate)
from .differentials import (eval_multiindex, eval_tree,
                            standard_identity_tree_terms)
from .relations import (CertifiedRelation, CertifyResult,
                        DimensionCertificate, EvalMatrix, JetStream,
                        block_basis, build_matrix, certify_relation,
                        dimension_certificate, dimension_labelled,
                        dimension_w, eliminate_mod, rational_reconstruct,
                        trace_on_span)
from .groups import (CharacterRow, ConjugacyClass, ScanReport, SubgroupClass,
                     character_table, conjugacy_classes, constraint_scan,
                     coset_character, reduced_tree_character,
                     sign_natural_character, subgroup_classes,
                     tree_fixed_character)
from .labelling import LabelledObject, canonicalize_labelled, enumerate_labelled

__version__ = "0.1.0"
