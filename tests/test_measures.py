import numpy as np
import pytest

from fluidq.measures import TailMeasure, sup_distance, uniform_probes

_ZERO = TailMeasure([0.0], [0.0], 0.0)  # the zero measure


def test_from_samples_examples():
    empty = TailMeasure.from_samples([], 0.01)
    assert empty.total == 0.0
    assert empty.tail_at(0.0) == 0.0

    m = TailMeasure.from_samples([1.0, 2.0, 3.0], 1.0)
    assert m.tail_at(1.5) == 2.0
    assert m.total == 3.0

    m = TailMeasure.from_samples([-0.5, 0.5], 0.5)
    assert m.tail_at(0.0) == 0.5  # negative residual counts in total, not in tail(0)
    assert m.total == 1.0


def test_tail_at_examples():
    assert _ZERO.tail_at(-3.0) == 0.0 and _ZERO.tail_at(7.0) == 0.0

    emp = TailMeasure.from_samples([1.0, 2.0, 3.0], 1.0)
    assert emp.tail_at(2.0) == 1.0  # strict count of values > 2

    fluid = TailMeasure(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0, "linear")
    assert fluid.tail_at(0.5) == pytest.approx(0.5, abs=1e-15)


def test_tail_at_boundary_conventions():
    m = TailMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.9, 0.4, 0.1]), 1.0, "linear")
    assert m.tail_at(-5.0) == 1.0   # below the grid: total
    assert m.tail_at(9.0) == pytest.approx(0.1)  # above the grid: last value
    step = TailMeasure(np.array([0.0, 1.0]), np.array([0.7, 0.0]), 0.7, "step")
    assert step.tail_at(0.999) == pytest.approx(0.7)  # previous-step evaluation
    assert step.tail_at(1.0) == 0.0


def test_sup_distance_examples():
    m = TailMeasure.from_samples([0.5, 1.5], 1.0)
    assert sup_distance(m, m, [0.0, 1.0, 2.0]) == 0.0

    d1 = TailMeasure.from_samples([1.0], 1.0)
    d2 = TailMeasure.from_samples([2.0], 1.0)
    assert sup_distance(d1, d2, [0.0, 1.5, 3.0]) == 1.0  # separated at probe 1.5

    emp = TailMeasure.from_samples([1.0, 2.0], 0.5)
    assert sup_distance(emp, _ZERO, [0.0]) == 1.0  # total-mass term

    with pytest.raises(ValueError, match="probes"):
        sup_distance(d1, d2, [])


def _random_measure(rng):
    size = rng.integers(1, 8)
    values = rng.normal(0.0, 2.0, size=size)
    return TailMeasure.from_samples(values, float(rng.uniform(0.1, 2.0)))


def test_sup_distance_is_a_pseudometric():
    rng = np.random.default_rng(123)
    probes = np.linspace(-5.0, 5.0, 33)
    for _ in range(200):
        a, b, c = (_random_measure(rng) for _ in range(3))
        dab, dba = sup_distance(a, b, probes), sup_distance(b, a, probes)
        assert dab >= 0.0
        assert dab == dba
        assert dab <= sup_distance(a, c, probes) + sup_distance(c, b, probes) + 1e-12


def test_from_samples_matches_brute_force_counting():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        values = rng.normal(0.0, 1.5, size=rng.integers(0, 12))
        mass = float(rng.uniform(0.01, 3.0))
        x = float(rng.normal(0.0, 2.0))
        m = TailMeasure.from_samples(values, mass)
        assert m.tail_at(x) == pytest.approx(mass * int(np.sum(values > x)), abs=1e-12)



def _unique_from_samples(values, mass_per_point):
    """The two-sort construction from_samples replaced, kept as an oracle."""
    values = np.asarray(values, dtype=float)
    grid = np.unique(values) if values.size else np.array([0.0])
    counts = values.size - np.searchsorted(np.sort(values), grid, side="right")
    return TailMeasure(grid, mass_per_point * counts, mass_per_point * values.size, "step")


@pytest.mark.parametrize("values", [
    [], [2.5], [1.0] * 7, [3.0, 1.0, 3.0, 2.0, 1.0, 3.0], [-2.0, -0.5, -7.0, -0.5],
    [0.0, -0.0, 1.0, -0.0, 0.0, -1.0], [-0.0, 0.0], [0.0, -0.0],
    np.round(np.random.default_rng(5).normal(0.0, 2.0, 500), 1),
], ids=["empty", "single", "all-equal", "ties", "negatives", "mixed-zeros", "-0-first",
        "+0-first", "rounded-normal"])
def test_from_samples_equals_the_unique_construction(values):
    # one sort must give the grid, tails and total of np.unique plus a second sort,
    # bit for bit, including which zero a run of +-0.0 keeps
    for mass in (1.0, 0.3):
        got, want = TailMeasure.from_samples(values, mass), _unique_from_samples(values, mass)
        assert got.grid.tobytes() == want.grid.tobytes()
        assert got.tails.tobytes() == want.tails.tobytes()
        assert got.total.hex() == want.total.hex()
        assert got.interpolation == want.interpolation == "step"

def test_constructor_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        TailMeasure(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError, match="nonincreasing"):
        TailMeasure(np.array([0.0, 1.0]), np.array([0.2, 0.6]), 1.0)
    with pytest.raises(ValueError, match="interpolation"):
        TailMeasure(np.array([0.0]), np.array([0.0]), 0.0, "cubic")


def test_inverse_tail_linear():
    m = TailMeasure(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0, "linear")
    assert m.inverse_tail(0.5) == pytest.approx(0.5, abs=1e-12)
    assert m.inverse_tail(1.0) == 0.0
    assert m.inverse_tail(0.0) == 1.0


def test_scaled():
    m = TailMeasure.from_samples([1.0, 2.0], 1.0)
    half = m.scaled(0.5)
    assert half.total == 1.0
    assert half.tail_at(1.5) == 0.5


def test_uniform_probes():
    p = uniform_probes(-2.0, 2.0, 9)
    assert p[0] == -2.0 and p[-1] == 2.0 and p.size == 9
    with pytest.raises(ValueError):
        uniform_probes(1.0, 0.0, 8)
