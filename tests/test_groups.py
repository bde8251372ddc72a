import math
from fractions import Fraction

import pytest

from elemdiff.errors import PreconditionError
from elemdiff.groups import (CharacterRow, character_table, conjugacy_classes, constraint_scan,
                             coset_character, reduced_tree_character, sign_natural_character,
                             subgroup_classes, tree_fixed_character)
from elemdiff.trees import Permutation, enumerate_trees, relabel
from oracles import all_permutations, point_stabilizer_class


def klass(n, label):
    for cc in conjugacy_classes(n):
        if cc.label == label:
            return cc
    raise KeyError(label)


# ---------------------------------------------------------------------------
# conjugacy classes


def test_class_sizes_s5():
    classes = conjugacy_classes(5)
    assert [cc.label for cc in classes] == [
        "id", "(12)", "(123)", "(12)(34)", "(1234)", "(12)(345)", "(12345)"]
    assert [cc.size for cc in classes] == [1, 10, 20, 15, 30, 20, 24]
    assert sum(cc.size for cc in classes) == 120


def test_class_sizes_s4():
    classes = conjugacy_classes(4)
    assert [cc.size for cc in classes] == [1, 6, 8, 3, 6]
    assert sum(cc.size for cc in classes) == 24


def test_class_representatives_live_in_their_class():
    for n in (3, 4, 5):
        for cc in conjugacy_classes(n):
            assert cc.representative.cycle_type() == cc.partition


# ---------------------------------------------------------------------------
# character rows


def test_tree_fixed_character_small():
    assert tree_fixed_character(3).values == (9, 1, 0)
    assert tree_fixed_character(4).values == (64, 4, 1, 0, 0)


def test_tree_fixed_character_n5():
    # fix counts under relabelling, pinned by direct enumeration below
    chi = tree_fixed_character(5)
    assert chi.values == (625, 27, 4, 5, 1, 0, 0)


def test_tree_fixed_character_matches_brute_force():
    # the count reads parent lists; relabelling whole trees is the oracle
    for n in (1, 2, 3, 4, 5):
        trees = enumerate_trees(n)
        expected = tuple(sum(1 for t in trees if relabel(t, cc.representative) == t)
                         for cc in conjugacy_classes(n))
        assert tree_fixed_character(n).values == expected
    assert tree_fixed_character(1).values == (1,)
    assert tree_fixed_character(2).values == (2, 0)


def test_character_is_class_function():
    # a conjugate of (12)(34) fixes as many trees as the class's entry says
    chi = tree_fixed_character(5)
    g = Permutation.from_cycles(5, (2, 5), (1, 4))
    fixed = sum(1 for t in enumerate_trees(5) if relabel(t, g) == t)
    at_class = [cc.partition for cc in conjugacy_classes(5)].index(g.cycle_type())
    assert fixed == chi.values[at_class] == 5


def test_burnside_orbit_counts():
    # averaging fix counts recovers the orbit counts 2, 4, 9
    for n, orbits in ((3, 2), (4, 4), (5, 9)):
        chi = tree_fixed_character(n)
        total = sum(cc.size * chi.values[i] for i, cc in enumerate(conjugacy_classes(n)))
        assert total == math.factorial(n) * orbits


def test_sign_natural_character():
    chi = sign_natural_character(2)
    assert chi.values == (5, -3, 2, 1, -1, 0, 0)
    # squared norm 2: a sum of two distinct irreducible pieces
    assert chi.inner(chi) == 2


def test_reduced_tree_character():
    chi = reduced_tree_character(2)
    assert chi.values == (620, 30, 2, 4, 2, 0, 0)
    diff = tree_fixed_character(5).minus(sign_natural_character(2), chi.name)
    assert diff.values == chi.values


def test_character_table_rows():
    rows = character_table(5)
    assert len(rows) == 3
    assert rows[0].values[0] == 625
    assert rows[1].values[0] == 5
    assert rows[2].values[0] == 620
    assert [row.values for row in character_table(1)] == [(1,), (1,), (0,)]
    with pytest.raises(PreconditionError):
        character_table(4)


def test_stated_difference_row_is_not_a_character():
    # criterion 5's erratum without enumeration: the multiplicity of the
    # trivial character in a character is a whole number, and the stated
    # row's is 1050/120
    trivial = CharacterRow(5, "trivial", (1,) * 7)
    stated = CharacterRow(5, "stated", (620, 30, 2, 2, 2, 0, 0))
    assert stated.inner(trivial) == Fraction(35, 4)
    assert reduced_tree_character(2).inner(trivial) == 9


def test_inner_product_orthogonality_sanity():
    # the sign character has norm 1
    from elemdiff.groups import CharacterRow
    sgn = CharacterRow(5, "sign", tuple(
        cc.representative.sign() for cc in conjugacy_classes(5)))
    assert sgn.inner(sgn) == 1
    assert sgn.inner(sgn) == Fraction(1)


# ---------------------------------------------------------------------------
# subgroup classification


def test_subgroup_class_counts():
    assert len(subgroup_classes(1)) == 1
    assert len(subgroup_classes(2)) == 2
    assert len(subgroup_classes(3)) == 4
    assert len(subgroup_classes(4)) == 11
    assert len(subgroup_classes(5)) == 19
    assert len(subgroup_classes(6)) == 56


def test_total_subgroup_counts():
    # summing conjugates over the classes counts every subgroup once
    # (OEIS A000638 counts the classes, A005432 the subgroups)
    assert sum(sc.class_size for sc in subgroup_classes(3)) == 6
    assert sum(sc.class_size for sc in subgroup_classes(4)) == 30
    assert sum(sc.class_size for sc in subgroup_classes(5)) == 156
    assert sum(sc.class_size for sc in subgroup_classes(6)) == 1455


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_sizes_are_normalizer_indices(n):
    # the number of conjugates is n! / |N(H)|, with N(H) counted over S_n
    group = all_permutations(n)
    for sc in subgroup_classes(n):
        normalizer = sum(
            1 for s in group
            if all(s.compose(h).compose(s.inverse()) in sc.elements for h in sc.elements))
        assert sc.class_size == math.factorial(n) // normalizer


def test_subgroup_records_are_groups():
    for sc in subgroup_classes(4):
        elems = set(sc.elements)
        assert len(elems) == sc.order
        assert Permutation.identity(4) in elems
        for a in sc.elements:
            assert a.inverse() in elems
            for b in sc.elements:
                assert a.compose(b) in elems


def test_subgroup_orders_divide_group_order():
    for n in (3, 4, 5):
        for sc in subgroup_classes(n):
            assert math.factorial(n) % sc.order == 0


def test_point_stabilizer():
    sc = point_stabilizer_class(5)
    assert sc.order == 24
    assert sc.fixes_point
    assert sc.class_size == 5
    assert sc.label == "order24a"


def test_labels_deterministic():
    labels = [sc.label for sc in subgroup_classes(5)]
    assert labels == sorted(labels, key=lambda s: (len(s), s)) or len(set(labels)) == 19
    assert labels[0] == "order1a"
    assert labels[-1] == "order120a"


# ---------------------------------------------------------------------------
# coset characters


def values_by_label(chi, n):
    return {cc.label: chi.values[i] for i, cc in enumerate(conjugacy_classes(n))}


def test_coset_character_whole_group_and_trivial():
    classes = subgroup_classes(5)
    trivial = next(sc for sc in classes if sc.order == 1)
    whole = next(sc for sc in classes if sc.order == 120)
    assert coset_character(trivial).values == (120, 0, 0, 0, 0, 0, 0)
    assert coset_character(whole).values == (1, 1, 1, 1, 1, 1, 1)


def test_coset_character_point_stabilizer_is_natural():
    chi = coset_character(point_stabilizer_class(5))
    assert chi.values == (5, 3, 2, 1, 1, 0, 0)


def _coset_enumeration(sub, n):
    """Fixed left cosets of each class representative, counted coset by
    coset: the oracle for the cycle-profile formula."""
    reps, covered = [], set()
    for x in all_permutations(n):
        if x not in covered:
            reps.append(x)
            covered.update(x.compose(h) for h in sub.elements)
    return tuple(sum(1 for x in reps
                     if x.inverse().compose(cc.representative).compose(x) in sub.elements)
                 for cc in conjugacy_classes(n))


@pytest.mark.parametrize("n,classes", [(3, 4), (4, 11), (5, 19)])
def test_coset_character_matches_coset_enumeration(n, classes):
    subs = subgroup_classes(n)
    assert len(subs) == classes
    for sub in subs:
        assert coset_character(sub).values == _coset_enumeration(sub, n)


def test_coset_character_identity_is_index():
    for sc in subgroup_classes(4):
        assert coset_character(sc).values[0] == 24 // sc.order


# ---------------------------------------------------------------------------
# the constraint scan


def test_scan_reports_nineteen_classes():
    report = constraint_scan()
    assert report.n == 5
    assert report.class_count == 19


def test_scan_survivors():
    report = constraint_scan()
    by_label = {s.subgroup.label: s for s in report.survivors}
    assert set(by_label) == {"order4c", "order24a"}

    cyclic = by_label["order4c"].subgroup
    assert cyclic.order == 4
    assert any(4 in profile for profile in cyclic.cycle_profile)
    assert cyclic.fixes_point

    stab = by_label["order24a"].subgroup
    assert stab.order == 24
    assert stab.fixes_point


def test_scan_final_inequality():
    report = constraint_scan()
    by_label = {s.subgroup.label: s for s in report.survivors}
    ref = values_by_label(reduced_tree_character(2), 5)
    # twice the three-cycle coset value against the reference row
    s24 = by_label["order24a"]
    assert s24.final_lhs == 4 and s24.final_rhs == ref["(123)"] == 2
    assert s24.contradiction
    s4 = by_label["order4c"]
    assert s4.final_lhs == 0 and s4.final_rhs == 2
    assert not s4.contradiction


def test_scan_survivor_constraints_hold():
    report = constraint_scan()
    ref = values_by_label(reduced_tree_character(2), 5)
    for s in report.survivors:
        vals = values_by_label(coset_character(s.subgroup), 5)
        assert all(vals[k] <= ref[k] for k in vals)
        assert vals["(12)(34)"] == vals["(1234)"] >= 1
        assert vals["(12)(345)"] == vals["(12345)"] == 0


def test_control_scan_differs():
    control = constraint_scan(reference=tree_fixed_character(5))
    labels = {s.subgroup.label for s in control.survivors}
    assert labels == {"order24a"}


def test_stated_difference_row_scan_admits_order4c():
    # the stated row differs from the computed one only at (12)(34), where
    # order4c's coset value 2 fits under both 2 and 4
    stated = CharacterRow(5, "stated", (620, 30, 2, 2, 2, 0, 0))
    labels = {s.subgroup.label for s in constraint_scan(reference=stated).survivors}
    assert labels == {"order4c", "order24a"}


def test_scan_json_shape():
    obj = constraint_scan().to_json_dict()
    assert obj["n"] == 5
    assert obj["classCount"] == 19
    assert obj["survivorCount"] == len(obj["survivors"]) == 2
    for s in obj["survivors"]:
        assert {"label", "order", "generators", "fixesPoint", "cosetValues",
                "finalTest"} <= set(s)
