"""Tests of the benchmark's own reference answers.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q dblbench
"""

import random

import pytest

from dblkit import zoo
from dblkit.functors import identity_functor, product_projections
from dblkit.kernel import check_double_category, embed_two_category, product, pullback, quintet, transpose
from dblkit.mutate import apply_mutation, mutation_slots, sample_mutants

from dblbench import reference as ref
from dblbench.common import relabel


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_counter_matches_closed_form_on_cyclic_squares(n):
    d = quintet(zoo.cyclic_group_cat(n))
    assert len(d.squares) == n**3
    assert sum(ref.law_counts(d).values()) == ref.quintet_closed_form(n)


def test_closed_form_at_five_is_todays_checked_count():
    assert ref.quintet_closed_form(5) == 553_996


def _small_generators():
    qa = quintet(zoo.walking_arrow())
    q2 = quintet(zoo.cyclic_group_cat(2))
    base = product(qa, q2)
    p1, _ = product_projections(qa, q2, base)
    gens = [quintet(c) for _, c in zoo.small_category_catalog()]
    gens += [embed_two_category(zoo.sign_two_category()), base, pullback(p1, p1)]
    return gens + [transpose(d) for d in gens]


def test_counter_matches_checker_on_generators():
    for d in _small_generators():
        counts = ref.law_counts(d)
        rep = check_double_category(d)
        assert rep.status == "pass"
        assert rep.checked == sum(counts.values()) == ref.expected_checked(d, counts)


def test_brute_force_agrees_with_checker_on_every_sign_mutant():
    host = embed_two_category(zoo.sign_two_category())
    assert not ref.brute_force_violations(host)
    for slot in mutation_slots(host):
        mutant = apply_mutation(host, slot)
        rep = check_double_category(mutant)
        found = ref.brute_force_violations(mutant)
        assert rep.status == "fail"
        assert ref.report_violations(rep) == found, slot
        assert rep.checked == ref.expected_checked(mutant, ref.law_counts(mutant))
        assert all(ref.is_real_violation(mutant, v) for v in rep.violations)


def test_every_square_category_mutant_fails_at_a_real_witness():
    host = quintet(zoo.walking_iso())
    for _, mutant in sample_mutants(host, 60, seed=3):
        rep = check_double_category(mutant)
        assert rep.status == "fail"
        assert rep.checked == ref.expected_checked(mutant, ref.law_counts(mutant))
        assert all(ref.is_real_violation(mutant, v) for v in rep.violations)


def test_a_wrong_witness_is_not_a_violation():
    host = embed_two_category(zoo.sign_two_category())
    slot = next(s for s in mutation_slots(host) if s[0] == "vcomp2")
    rep = check_double_category(apply_mutation(host, slot))
    v = rep.violations[0]
    assert ref.is_real_violation(apply_mutation(host, slot), v)
    assert not ref.is_real_violation(host, v)


def test_relabelled_copy_keeps_counts_and_verdict():
    d = quintet(zoo.span_poset())
    copy = relabel(d, random.Random(7))
    assert copy.squares != d.squares
    assert ref.law_counts(copy) == ref.law_counts(d)
    assert check_double_category(copy).status == "pass"


def test_fiber_product_counts_match_pullback():
    qa = quintet(zoo.walking_arrow())
    q2 = quintet(zoo.cyclic_group_cat(2))
    base = product(qa, q2)
    p1, p2 = product_projections(qa, q2, base)
    for f, g in ((p1, p1), (p2, p2), (identity_functor(base), identity_functor(base))):
        assert ref.fiber_product_counts(f, g) == ref.pullback_shape(pullback(f, g))


def test_fincategory_count_matches_checker():
    for _, c in zoo.small_category_catalog():
        assert c.check().checked == ref.fincategory_law_count(c)
