import numpy as np
import pytest

from avcalib.params import ParameterSpace, ParameterSpec, build_parameter_space
from avcalib.saga import (
    DegeneratePopulationError,
    SagaConfig,
    adaptive_probability,
    crossover,
    mutation,
    run_saga,
    selection,
    selection_probabilities,
)


def space3(width=0.2):
    return build_parameter_space({"a": 1.0, "b": 2.0, "c": 3.0}, width)


def initial_values(space):
    return {s.id: s.initial for s in space.specs}


def within_bounds(space, values):
    return all(s.lower <= values[s.id] <= s.upper for s in space.specs)


# ---------------------------------------------------------------------------
# selection


def test_selection_probabilities_exact_for_positive_accuracies():
    probs = selection_probabilities([0.2, 0.3, 0.5])
    assert probs.tolist() == [0.2, 0.3, 0.5]


def test_equal_accuracies_give_uniform_probabilities():
    probs = selection_probabilities([0.4] * 8)
    assert np.allclose(probs, 1 / 8)
    probs = selection_probabilities([0.0, 0.0, 0.0])
    assert np.allclose(probs, 1 / 3)


def test_negative_accuracies_shifted_ordering_preserved():
    probs = selection_probabilities([-0.5, 0.1, 0.4])
    assert probs[0] < probs[1] < probs[2]
    assert probs.sum() == pytest.approx(1.0)
    assert (probs > 0).all()


def test_failed_individuals_get_zero_weight():
    probs = selection_probabilities([float("-inf"), 0.5, 0.5])
    assert probs[0] == 0.0
    with pytest.raises(DegeneratePopulationError):
        selection_probabilities([float("-inf"), float("-inf")])


def test_empirical_selection_frequencies_match():
    rng = np.random.default_rng(42)
    population = [{"a": 1.0}, {"a": 2.0}, {"a": 3.0}]
    accuracies = [0.2, 0.3, 0.5]
    n = 100_000
    pool = [population[i] for i in selection(accuracies, rng, pool_size=n)]
    freq = np.array([sum(1 for p in pool if p["a"] == v) / n for v in (1.0, 2.0, 3.0)])
    assert np.allclose(freq, [0.2, 0.3, 0.5], atol=0.01)


# ---------------------------------------------------------------------------
# adaptive probabilities


def test_adaptive_probability_crossover_bounds():
    assert adaptive_probability(0.4, 0.9, 0.5, 0.6, 0.9) == pytest.approx(0.9, abs=1e-12)
    assert adaptive_probability(0.9, 0.9, 0.5, 0.6, 0.9) == pytest.approx(0.6, abs=1e-12)
    assert adaptive_probability(0.7, 0.9, 0.5, 0.6, 0.9) == pytest.approx(0.75, abs=1e-12)


def test_adaptive_probability_mutation_bounds():
    assert adaptive_probability(0.4, 0.9, 0.5, 0.05, 0.25) == pytest.approx(0.25, abs=1e-12)
    assert adaptive_probability(0.9, 0.9, 0.5, 0.05, 0.25) == pytest.approx(0.05, abs=1e-12)
    assert adaptive_probability(0.7, 0.9, 0.5, 0.05, 0.25) == pytest.approx(0.15, abs=1e-12)


def test_adaptive_probability_uniform_generation_returns_max():
    assert adaptive_probability(0.5, 0.5, 0.5, 0.6, 0.9) == 0.9


def test_adaptive_probability_stays_inside_bounds():
    rng = np.random.default_rng(1)
    for _ in range(500):
        avg = rng.uniform(-1, 1)
        fmax = avg + abs(rng.normal())
        f = rng.uniform(-2, 2)
        p = adaptive_probability(f, fmax, avg, 0.6, 0.9)
        assert 0.6 - 1e-12 <= p <= 0.9 + 1e-12


# ---------------------------------------------------------------------------
# crossover / mutation


class _CutRng:
    def __init__(self, cut):
        self.cut = cut

    def integers(self, lo, hi):
        assert lo <= self.cut < hi
        return self.cut


def test_crossover_identical_parents():
    p = {"a": 1.0, "b": 2.0, "c": 3.0}
    c1, c2 = crossover(p, dict(p), np.random.default_rng(0))
    assert c1 == p and c2 == p


def test_crossover_cut_after_first_gene():
    pa = {"a": 1.0, "b": 2.0, "c": 3.0}
    pb = {"a": 10.0, "b": 20.0, "c": 30.0}
    c1, c2 = crossover(pa, pb, _CutRng(1))
    assert c1 == {"a": 1.0, "b": 20.0, "c": 30.0}
    assert c2 == {"a": 10.0, "b": 2.0, "c": 3.0}


def test_crossover_preserves_genes_per_position():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pa = {k: float(rng.uniform(0, 1)) for k in "abcde"}
        pb = {k: float(rng.uniform(0, 1)) for k in "abcde"}
        c1, c2 = crossover(pa, pb, rng)
        for k in "abcde":
            assert sorted([c1[k], c2[k]]) == sorted([pa[k], pb[k]])


def test_mutation_changes_exactly_two_positions():
    space = space3()
    rng = np.random.default_rng(9)
    start = initial_values(space)
    for _ in range(100):
        out = mutation(start, space, rng)
        changed = [k for k in start if out[k] != start[k]]
        assert len(changed) == 2
        assert within_bounds(space, out)


def test_mutation_single_parameter_space():
    space = ParameterSpace([ParameterSpec("only", 0.0, 1.0, 0.5)])
    out = mutation({"only": 0.5}, space, np.random.default_rng(2))
    assert 0.0 <= out["only"] <= 1.0


def test_mutation_respects_narrow_bounds():
    space = ParameterSpace(
        [ParameterSpec("a", 1.0, 1.0 + 1e-9, 1.0), ParameterSpec("b", 2.0, 2.0 + 1e-9, 2.0)]
    )
    out = mutation({"a": 1.0, "b": 2.0}, space, np.random.default_rng(3))
    assert within_bounds(space, out)


def test_mutated_values_uniform_on_bounds():
    from scipy import stats

    space = ParameterSpace([ParameterSpec("a", 0.0, 1.0, 0.5), ParameterSpec("b", 0.0, 1.0, 0.5)])
    rng = np.random.default_rng(17)
    draws = []
    for _ in range(10_000):
        out = mutation({"a": 0.5, "b": 0.5}, space, rng)
        draws.extend([out["a"], out["b"]])
    # both genes are always resampled here, so every draw is fresh uniform
    stat = stats.kstest(draws, "uniform")
    assert stat.pvalue > 0.01


# ---------------------------------------------------------------------------
# the full loop


def per_individual(score):
    """A batch evaluate scoring each individual of a generation with score."""
    return lambda generation: [score(comb) for comb in generation]


def _tracking_objective(target):
    return per_individual(
        lambda comb: 1.0 - sum(abs(comb[k] - target[k]) / abs(target[k]) for k in target)
    )


def test_run_saga_converges_on_synthetic_objective():
    # standard usage seeds the initial parameter values into generation 0
    target = {"a": 1.07, "b": 1.91, "c": 3.2}
    space = space3()
    hits = 0
    for seed in range(10):
        cfg = SagaConfig(population_size=20, max_generations=15, accuracy_threshold=0.95)
        result = run_saga(
            _tracking_objective(target), space, cfg, seed,
            seed_individuals=[initial_values(space)],
        )
        if result.best_accuracy >= 0.95:
            hits += 1
    assert hits >= 8


def test_run_saga_stops_when_threshold_met_immediately():
    cfg = SagaConfig(population_size=4, max_generations=10, accuracy_threshold=0.0)
    result = run_saga(per_individual(lambda c: 0.5), space3(), cfg, 1)
    assert len(result.history) == 1
    assert result.best_accuracy == 0.5
    assert result.n_evaluations == 4


def test_run_saga_is_deterministic():
    cfg = SagaConfig(population_size=8, max_generations=5, accuracy_threshold=2.0)
    target = {"a": 1.1, "b": 2.1, "c": 2.9}
    r1 = run_saga(_tracking_objective(target), space3(), cfg, 33)
    r2 = run_saga(_tracking_objective(target), space3(), cfg, 33)
    assert r1.best == r2.best
    assert r1.best_accuracy == r2.best_accuracy
    assert len(r1.history) == len(r2.history)
    for g1, g2 in zip(r1.history, r2.history):
        assert g1.population == g2.population
        assert g1.accuracies == g2.accuracies


def test_best_so_far_is_non_decreasing_and_bounds_hold():
    cfg = SagaConfig(population_size=10, max_generations=8, accuracy_threshold=2.0)
    space = space3()
    result = run_saga(_tracking_objective({"a": 1.0, "b": 2.0, "c": 3.0}), space, cfg, 4)
    prev = float("-inf")
    for rec in result.history:
        assert rec.best_accuracy_so_far >= prev
        prev = rec.best_accuracy_so_far
        assert len(rec.population) == 10
        assert rec.f_max_cur >= rec.f_avg_cur
        for ind in rec.population:
            assert within_bounds(space, ind)


def test_seed_individuals_enter_first_generation():
    space = space3()
    seeds = [initial_values(space), {"a": 0.81, "b": 1.62, "c": 2.43}]
    cfg = SagaConfig(population_size=6, max_generations=1, accuracy_threshold=2.0)
    result = run_saga(per_individual(lambda c: c["a"]), space, cfg, 0, seed_individuals=seeds)
    first = result.history[0].population
    assert first[0] == seeds[0]
    assert first[1] == seeds[1]


def test_seed_individual_outside_bounds_rejected():
    cfg = SagaConfig(population_size=4, max_generations=1)
    with pytest.raises(ValueError):
        run_saga(
            per_individual(lambda c: 1.0), space3(), cfg, 0,
            seed_individuals=[{"a": 9.0, "b": 2.0, "c": 3.0}],
        )


def test_selection_only_degeneracy_with_operators_off():
    # probabilities this small never fire for the seeded draw sequence, so
    # every generation must be a resampling of its predecessor
    cfg = SagaConfig(
        population_size=8, max_generations=4, pc_min=1e-15, pc_max=2e-15,
        pm_min=1e-15, pm_max=2e-15, accuracy_threshold=2.0,
    )
    result = run_saga(_tracking_objective({"a": 1.0, "b": 2.0, "c": 3.0}), space3(), cfg, 12)
    for prev, cur in zip(result.history[:-1], result.history[1:]):
        prev_keys = {tuple(sorted(p.items())) for p in prev.population}
        for ind in cur.population:
            assert tuple(sorted(ind.items())) in prev_keys


def test_failed_objective_scores_minus_inf_and_run_continues():
    # the evaluator reports every fifth individual it sees as failed
    calls = {"n": 0}

    def flaky(generation):
        scores = []
        for comb in generation:
            calls["n"] += 1
            scores.append(float("-inf") if calls["n"] % 5 == 0 else comb["a"])
        return scores

    cfg = SagaConfig(population_size=6, max_generations=3, accuracy_threshold=2.0)
    result = run_saga(flaky, space3(), cfg, 8)
    assert np.isfinite(result.best_accuracy)
    assert any(a == float("-inf") for rec in result.history for a in rec.accuracies)


def test_config_validation():
    with pytest.raises(ValueError):
        SagaConfig(population_size=5)
    with pytest.raises(ValueError):
        SagaConfig(pc_min=0.9, pc_max=0.6)
    with pytest.raises(ValueError):
        SagaConfig(pm_min=0.0, pm_max=0.2)
