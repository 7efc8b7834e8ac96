import math

import numpy as np
import pytest
from scipy import stats

from loora.design import (
    CompleteDesign,
    SimpleDesign,
    draw,
    draw_rows,
    draw_with,
    enumerate_assignments,
)
from loora.exceptions import InvalidSpec, TooLarge


def test_simple_spec_validation():
    SimpleDesign(np.array([0.2, 0.5, 0.8]))
    with pytest.raises(InvalidSpec):
        SimpleDesign(np.array([0.0, 0.5]))
    with pytest.raises(InvalidSpec):
        SimpleDesign(np.array([0.5, 1.0]))
    with pytest.raises(InvalidSpec):
        SimpleDesign(np.array([0.5, 1.0 - 1e-17]))  # rounds to 1.0
    with pytest.raises(InvalidSpec):
        SimpleDesign(np.array([]))


def test_complete_spec_validation():
    CompleteDesign(5, 1)
    CompleteDesign(5, 4)
    for bad in (0, 5, 6):
        with pytest.raises(InvalidSpec):
            CompleteDesign(5, bad)


def test_complete_draw_counts():
    spec = CompleteDesign(5, 3)
    for seed in range(25):
        d = draw(spec, seed)
        assert d.sum() == 3
        assert set(np.unique(d)) <= {0.0, 1.0}


def test_draw_is_the_row_of_draw_rows():
    for spec in (SimpleDesign(np.array([0.2, 0.7, 0.5])), CompleteDesign(3, 1)):
        d = draw(spec, 3)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        assert d.dtype == np.float64 and d.shape == (3,)
        assert np.array_equal(d, draw_rows(spec, (rng,))[0])


def test_draw_deterministic_in_seed():
    spec = SimpleDesign(np.full(12, 0.4))
    assert np.array_equal(draw(spec, 99), draw(spec, 99))
    spec_c = CompleteDesign(12, 5)
    assert np.array_equal(draw(spec_c, 99), draw(spec_c, 99))


def test_simple_draw_frequency():
    spec = SimpleDesign(np.full(4, 0.5))
    rng = np.random.default_rng(5)
    total = np.zeros(4)
    reps = 100_000
    for _ in range(reps):
        total += draw_with(spec, rng)
    freq = total / reps
    assert np.all(freq > 0.49) and np.all(freq < 0.51)


def test_enumerate_simple_uniform():
    pairs = list(enumerate_assignments(SimpleDesign(np.array([0.5, 0.5]))))
    assert len(pairs) == 4
    assert all(prob == pytest.approx(0.25) for _, prob in pairs)


def test_enumerate_complete_counts():
    pairs = list(enumerate_assignments(CompleteDesign(4, 2)))
    assert len(pairs) == 6
    assert all(prob == pytest.approx(1.0 / 6.0) for _, prob in pairs)
    assert all(d.sum() == 2 for d, _ in pairs)


def test_enumerate_simple_hand_probabilities():
    pairs = list(enumerate_assignments(SimpleDesign(np.array([0.2, 0.8]))))
    got = {tuple(int(v) for v in d): prob for d, prob in pairs}
    assert got[(0, 0)] == pytest.approx(0.8 * 0.2)
    assert got[(0, 1)] == pytest.approx(0.8 * 0.8)
    assert got[(1, 0)] == pytest.approx(0.2 * 0.2)
    assert got[(1, 1)] == pytest.approx(0.2 * 0.8)
    assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-15)


def test_enumeration_probabilities_sum_to_one():
    for spec in (SimpleDesign(np.array([0.3, 0.6, 0.45, 0.9])), CompleteDesign(7, 3)):
        total = math.fsum(prob for _, prob in enumerate_assignments(spec))
        assert abs(total - 1.0) <= 1e-14


def test_enumeration_lexicographic_d_order():
    for spec in (SimpleDesign(np.array([0.4, 0.5, 0.6])), CompleteDesign(5, 2)):
        seen = [tuple(int(v) for v in d) for d, _ in enumerate_assignments(spec)]
        assert seen == sorted(seen)


def test_enumeration_guards():
    with pytest.raises(TooLarge):
        next(iter(enumerate_assignments(SimpleDesign(np.full(21, 0.5)))))
    with pytest.raises(TooLarge):
        next(iter(enumerate_assignments(CompleteDesign(40, 20))))


def test_draw_frequencies_match_enumeration_chisquare():
    # empirical draws against exact probabilities at n = 3
    spec = SimpleDesign(np.array([0.3, 0.5, 0.7]))
    exact = {tuple(int(v) for v in d): prob for d, prob in enumerate_assignments(spec)}
    rng = np.random.default_rng(123)
    counts = {key: 0 for key in exact}
    reps = 100_000
    for _ in range(reps):
        counts[tuple(int(v) for v in draw_with(spec, rng))] += 1
    observed = np.array([counts[key] for key in exact])
    expected = np.array([exact[key] * reps for key in exact])
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.001
