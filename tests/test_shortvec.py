import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from a4csl.errors import BudgetError, DomainError
from a4csl.field import gauss_jordan
from a4csl.icosian import NORM_A_GRAM, TRACE_GRAM
from a4csl.shortvec import NodeBudget, enumerate_form, enumerate_two_forms, eval_form

rng = random.Random(4181)


def _box(gram, target):
    """Every integer x with x^T G x <= target: |x_i|^2 <= target * (G^-1)_ii."""
    n = len(gram)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(gram)
    ]
    gauss_jordan(aug, n)
    radii = [isqrt(int(target * aug[i][n + i])) for i in range(n)]
    return itertools.product(*(range(-r, r + 1) for r in radii))


def _canonical(x) -> bool:
    """The +-representative: the highest-index nonzero coordinate is positive."""
    nz = [v for v in x if v]
    return bool(nz) and nz[-1] > 0


def _random_gram(dim):
    b = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    return tuple(
        tuple(sum(b[k][i] * b[k][j] for k in range(dim)) + (i == j) for j in range(dim))
        for i in range(dim)
    )


@pytest.fixture(scope="module")
def icosian_box():
    """(x, trace value, norm-a value) for all canonical x with x^T TRACE_GRAM x <= 4."""
    out = []
    for x in _box(TRACE_GRAM, 4):
        if _canonical(x):
            t = eval_form(TRACE_GRAM, x)
            if t <= 4:
                out.append((x, t, eval_form(NORM_A_GRAM, x)))
    return out


def test_ball_matches_brute_force_on_random_forms():
    for _ in range(25):
        gram = _random_gram(rng.randint(1, 4))
        target = rng.randint(0, 14)
        got = sorted(enumerate_form(gram, target, equal=False))
        want = sorted(
            (x, v)
            for x in _box(gram, target)
            if _canonical(x) and (v := eval_form(gram, x)) <= target
        )
        assert got == want


def test_equality_matches_brute_force_on_random_forms():
    for _ in range(25):
        gram = _random_gram(rng.randint(1, 4))
        target = rng.randint(1, 14)
        got = sorted(enumerate_form(gram, target))
        want = sorted(
            (x, target)
            for x in _box(gram, target)
            if _canonical(x) and eval_form(gram, x) == target
        )
        assert got == want


def test_two_forms_match_brute_force_on_random_forms():
    for _ in range(25):
        dim = rng.randint(1, 4)
        g1, g2 = _random_gram(dim), _random_gram(dim)
        t1 = rng.randint(1, 14)
        vals = {}
        for x in _box(g1, t1):
            if _canonical(x) and eval_form(g1, x) == t1:
                vals.setdefault(eval_form(g2, x), []).append(x)
        for t2, xs in vals.items():
            assert sorted(enumerate_two_forms(g1, t1, g2, t2)) == sorted(xs)
        t2 = max(vals, default=0) + 1
        assert list(enumerate_two_forms(g1, t1, g2, t2)) == []


def test_icosian_forms_match_brute_force(icosian_box):
    for target in (2, 4):
        got = sorted(enumerate_form(TRACE_GRAM, target, equal=False))
        assert got == sorted((x, t) for x, t, _ in icosian_box if t <= target)
    assert sorted(enumerate_form(TRACE_GRAM, 4)) == sorted((x, 4) for x, t, _ in icosian_box if t == 4)
    # nr(x) = 1: the 120 units of reduced norm one, one per +-pair.
    units = sorted(enumerate_two_forms(NORM_A_GRAM, 2, TRACE_GRAM, 4))
    assert units == sorted(x for x, t, a in icosian_box if t == 4 and a == 2)
    assert len(units) == 60


def test_one_per_pair_and_never_zero():
    gram = _random_gram(3)
    for target in (0, 1, 5, 12):
        ball = [x for x, _ in enumerate_form(gram, target, equal=False)]
        assert len(set(ball)) == len(ball)
        for x in ball:
            assert any(x) and _canonical(x)
            assert tuple(-v for v in x) not in ball
    assert list(enumerate_form(gram, 0, equal=False)) == []
    assert list(enumerate_form(gram, 0)) == []
    assert list(enumerate_form(gram, -3, equal=False)) == []
    assert list(enumerate_two_forms(TRACE_GRAM, 0, NORM_A_GRAM, 2)) == []


def test_not_positive_definite_rejected():
    with pytest.raises(DomainError):
        list(enumerate_form(((1, 2), (2, 1)), 3))


def _nodes():
    budget = NodeBudget(1 << 62)
    list(enumerate_two_forms(NORM_A_GRAM, 4, TRACE_GRAM, 12, budget=budget))
    return budget.used


def test_budget_error_at_limit_plus_one():
    total = _nodes()
    assert total > 10
    exact = NodeBudget(total)
    list(enumerate_two_forms(NORM_A_GRAM, 4, TRACE_GRAM, 12, budget=exact))
    assert exact.used == total
    for limit in (0, 1, total // 2, total - 1):
        budget = NodeBudget(limit)
        with pytest.raises(BudgetError):
            list(enumerate_two_forms(NORM_A_GRAM, 4, TRACE_GRAM, 12, budget=budget))
        assert budget.used == limit + 1


def test_budget_accumulates_across_calls():
    total = _nodes()
    budget = NodeBudget(1 << 62)
    list(enumerate_two_forms(NORM_A_GRAM, 4, TRACE_GRAM, 12, budget=budget))
    ball = list(enumerate_form(TRACE_GRAM, 4, equal=False, budget=budget))
    assert ball and budget.used > total
    both = budget.used
    # The second call sees what the first one used.
    budget = NodeBudget(both - 1)
    list(enumerate_two_forms(NORM_A_GRAM, 4, TRACE_GRAM, 12, budget=budget))
    assert budget.used == total
    with pytest.raises(BudgetError):
        list(enumerate_form(TRACE_GRAM, 4, equal=False, budget=budget))
    assert budget.used == both
