"""The package's values are plain classes: equal fields give equal objects
with the hash of their field tuple, so sets and dicts of them keep their
order, copies and pickles are equal values, and every value and record
refuses assignment."""

import copy
import pickle

import pytest

from elemdiff.config import RunConfig
from elemdiff.errors import MismatchError, PreconditionError
from elemdiff.groups import (CharacterRow, character_table, conjugacy_classes, constraint_scan,
                             subgroup_classes)
from elemdiff.labelling import LabelledObject
from elemdiff.multiindex import MultiIndex
from elemdiff.relations import certify_relation, dimension_w
from elemdiff.trees import Permutation, Tree, chain_tree

# make, then a function building fresh equal fields, then other fields
VALUES = {
    "Tree": (Tree, lambda: ((0, 1, 1),), ((2, 0, 2),)),
    "Permutation": (Permutation, lambda: ((2, 3, 1),), ((1, 2, 3),)),
    "MultiIndex": (MultiIndex, lambda: ((2, 0, 0),), ((0, 2, 0),)),
    "LabelledObject": (LabelledObject, lambda: (Tree((0, 1, 1)), (1, 2, 2)),
                       (Tree((0, 1, 1)), (1, 1, 2))),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_values_with_the_field_tuple_hash(name):
    make, fields, other = VALUES[name]
    a, b = make(*fields()), make(*fields())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields())
    assert len({a, b}) == 1
    assert a != make(*other)
    assert a != fields() and a != object()
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


def test_a_tree_is_remade_from_its_parents_alone():
    # the layout a tree stores is derived, so copies, pickles and the repr
    # name the parent tuple only
    t = Tree((0, 1, 1))
    assert repr(t) == "Tree((0, 1, 1))"
    assert repr(LabelledObject(t, (1, 2, 2))) == "LabelledObject(Tree((0, 1, 1)), (1, 2, 2))"
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert (twin.parents, twin.root, twin.child_lists, twin.order) == (
            (0, 1, 1), 1, ((1,), (2, 3), (), ()), (1, 2, 3))


def _frozen():
    """One instance of every read-only class."""
    cert = dimension_w(1, 3)    # 9 trees span 6 at d = 1: it holds relations
    failed = certify_relation([(1, chain_tree([1, 2, 3]))], 1)
    scan = constraint_scan()
    return [Tree((0, 1)), Permutation((1,)), MultiIndex((0,)),
            LabelledObject(Tree((0,)), (1,)), RunConfig(), cert, cert.block_bounds[0],
            cert.relations[0], failed, failed.witness, conjugacy_classes(3)[0],
            character_table(3)[0], subgroup_classes(3)[0], scan, scan.survivors[0]]


def test_every_value_and_record_refuses_assignment():
    for obj in _frozen():
        field = type(obj).__slots__[0]
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is not None


@pytest.mark.parametrize("make,error", [
    (lambda: Permutation((1, 1)), PreconditionError),
    (lambda: Permutation((0, 1)), PreconditionError),
    (lambda: MultiIndex((-1, 1, 1)), PreconditionError),
    (lambda: LabelledObject(Tree((0, 1)), (1,)), MismatchError),
    (lambda: LabelledObject(Tree((0, 1)), (1, 0)), PreconditionError),
    (lambda: LabelledObject(Tree((0, 1)), (1, "2")), PreconditionError),
    (lambda: RunConfig(seed=-1), PreconditionError),
    (lambda: RunConfig(random_bound=0), PreconditionError),
    (lambda: CharacterRow(3, "x", (1, 1)), MismatchError),   # one value per class
])
def test_validation_still_raises(make, error):
    # test_trees and test_multiindex hold the other cases
    with pytest.raises(error):
        make()
