"""Exact combinatorics of elementary differentials: labelled rooted trees,
arity multi-indices, truncated polynomial jets, and certified linear algebra
over their evaluation maps."""

from .config import RunConfig
from .errors import (ElemdiffError, MismatchError, PreconditionError,
                     SizeLimitError, SpanInstabilityError)
from .trees import (Permutation, Tree, all_permutations, bplus, chain_tree,
                    enumerate_trees, find_sigma, graft_sum, is_linear,
                    relabel, retarget, retarget_edges, subtree_above)
from .multiindex import (MultiIndex, enumerate_multi_indices, project_arities,
                         relabel_multi_index, tree_with_arities)
from .jets import (Jet, add, assemble, component, eval_at_zero,
                   monomial_basis, monomial_basis_size, monomial_jet,
                   monomials_up_to, mul_scalar, multi_partial, partial,
                   random_jet, random_jet_tuple, restrict, scale, truncate,
                   zero_jet)
from .differentials import (corolla_witness_family, eval_multiindex,
                            eval_tree, eval_tree_labelled,
                            find_distinguishing_witness, left_chain,
                            monomial_term, pre_lie, standard_identity,
                            standard_identity_tree_terms, tree_polynomial,
                            tree_value_at_zero)
from .relations import (CertifiedRelation, CertifyResult,
                        DimensionCertificate, EvalMatrix, JetStream,
                        block_basis, build_matrix, certify_relation,
                        dimension_certificate, dimension_labelled,
                        dimension_w, eliminate_mod, rational_reconstruct,
                        span_rows, trace_on_span)
from .groups import (CharacterRow, ConjugacyClass, ScanReport, SubgroupClass,
                     character_table, conjugacy_classes, constraint_scan,
                     coset_character, point_stabilizer_class,
                     reduced_tree_character, sign_natural_character,
                     subgroup_classes, tree_fixed_character)
from .labelling import (LabelledObject, canonicalize_labelled,
                        enumerate_labelled, identify)

__version__ = "0.1.0"
