"""Simulation-in-the-loop adaptive genetic algorithm.

The optimizer maximizes a black-box accuracy objective over a box-bounded
parameter space. Crossover and mutation probabilities are not fixed: for
each parent pair they are interpolated between configured bounds according
to where the pair's mean accuracy sits between the generation average and
the generation maximum, so strong pairs are perturbed less than weak ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParameterSpace

_SHIFT_EPS = 1e-12


class DegeneratePopulationError(RuntimeError):
    """No individual in the population produced a finite accuracy."""


@dataclass(frozen=True)
class SagaConfig:
    population_size: int = 20
    max_generations: int = 15
    pc_min: float = 0.6
    pc_max: float = 0.9
    pm_min: float = 0.05
    pm_max: float = 0.25
    accuracy_threshold: float = 0.8

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise ValueError("population_size must be even and at least 4")
        for lo, hi, name in (
            (self.pc_min, self.pc_max, "crossover"),
            (self.pm_min, self.pm_max, "mutation"),
        ):
            if not (0.0 < lo < hi <= 1.0):
                raise ValueError(f"{name} probability bounds must satisfy 0 < min < max <= 1")


@dataclass(frozen=True)
class GenerationRecord:
    index: int
    population: tuple[dict, ...]
    accuracies: tuple[float, ...]
    f_max_cur: float
    f_avg_cur: float
    best_accuracy_so_far: float


@dataclass(frozen=True)
class SagaResult:
    best: dict
    best_accuracy: float
    history: tuple[GenerationRecord, ...]
    n_evaluations: int


def selection_probabilities(accuracies) -> np.ndarray:
    """Fitness-proportional probabilities. Positive accuracies are used
    as-is; if any accuracy is <= 0 the whole set is shifted up so ordering
    is preserved while every weight stays positive. Non-finite accuracies
    (failed evaluations) get zero weight."""
    acc = np.asarray(accuracies, dtype=float)
    finite = np.isfinite(acc)
    if not finite.any():
        raise DegeneratePopulationError("every individual failed evaluation")
    weights = np.zeros_like(acc)
    vals = acc[finite]
    low = vals.min()
    if low <= 0.0:
        vals = vals - low + _SHIFT_EPS
    weights[finite] = vals
    total = weights.sum()
    if total <= 0.0:
        raise DegeneratePopulationError("total fitness is zero")
    return weights / total


def selection(accuracies, rng, pool_size=None) -> np.ndarray:
    """Indices of a mating pool sampled with replacement, proportional to
    fitness; the pool has one entry per individual unless pool_size says
    otherwise."""
    probs = selection_probabilities(accuracies)
    n = pool_size if pool_size is not None else len(probs)
    return rng.choice(len(probs), size=n, replace=True, p=probs)


def adaptive_probability(f_pair, f_max_cur, f_avg_cur, p_min, p_max) -> float:
    """Probability for a parent pair with mean accuracy f_pair: p_max at or
    below the generation average, dropping linearly to p_min at the
    generation maximum. A uniform generation (max == avg) keeps p_max."""
    if f_max_cur < f_avg_cur:
        raise ValueError("f_max_cur must be >= f_avg_cur")
    if f_pair <= f_avg_cur or f_max_cur == f_avg_cur:
        return p_max
    p = p_max - (p_max - p_min) * (f_pair - f_avg_cur) / (f_max_cur - f_avg_cur)
    return min(max(p, p_min), p_max)


def crossover(pa: dict, pb: dict, rng) -> tuple[dict, dict]:
    """Single-point crossover over the ordered parameter ids; gene values
    are copied, never blended, so offspring stay inside any box bounds the
    parents satisfied."""
    ids = list(pa.keys())
    if list(pb.keys()) != ids:
        raise ValueError("parents must share the same parameter ids")
    if len(ids) < 2:
        return dict(pa), dict(pb)
    cut = int(rng.integers(1, len(ids)))
    c1, c2 = {}, {}
    for i, pid in enumerate(ids):
        if i < cut:
            c1[pid] = pa[pid]
            c2[pid] = pb[pid]
        else:
            c1[pid] = pb[pid]
            c2[pid] = pa[pid]
    return c1, c2


def mutation(c: dict, space: ParameterSpace, rng) -> dict:
    """Resample two distinct parameters uniformly within their bounds (one,
    if the space only has one parameter)."""
    ids = [pid for pid in c.keys()]
    out = dict(c)
    n_mut = 2 if len(ids) >= 2 else 1
    picks = rng.choice(len(ids), size=n_mut, replace=False)
    for i in picks:
        lo, hi = space.bounds(ids[int(i)])
        out[ids[int(i)]] = float(rng.uniform(lo, hi))
    return out


def _uniform_individual(space: ParameterSpace, rng) -> dict:
    return {
        s.id: float(rng.uniform(s.lower, s.upper)) for s in space.specs
    }


def run_saga(
    evaluate,
    space: ParameterSpace,
    config: SagaConfig,
    seed: int,
    seed_individuals=None,
) -> SagaResult:
    """Run the adaptive GA and return the best combination ever evaluated;
    seed fixes every random draw.

    evaluate maps one generation, a list of parameter combinations, to
    their accuracies in input order; it must be deterministic for a given
    combination. A failed individual comes back as -inf: it gets no
    selection weight and the run continues. The evaluator does that
    conversion (in the pipeline, evaluate_batch is the one place that turns
    a case's errors into -inf); an exception it raises ends the run.
    """
    rng = np.random.default_rng([int(seed), 0x5A6A])
    population: list[dict] = []
    for ind in seed_individuals or []:
        space.validate_combination(ind)
        population.append({pid: float(ind[pid]) for pid in space.ids})
    population = population[: config.population_size]
    while len(population) < config.population_size:
        population.append(_uniform_individual(space, rng))

    best: dict | None = None
    best_acc = float("-inf")
    history: list[GenerationRecord] = []
    n_evals = 0

    for gen in range(config.max_generations + 1):
        accuracies = [float(a) for a in evaluate(population)]
        n_evals += len(population)
        finite = [a for a in accuracies if np.isfinite(a)]
        if not finite:
            raise DegeneratePopulationError(f"generation {gen}: every evaluation failed")
        f_max_cur = max(finite)
        # the mean can exceed the max by one ulp when the population collapses
        f_avg_cur = min(sum(finite) / len(finite), f_max_cur)
        i_best = max(range(len(accuracies)), key=lambda i: accuracies[i])
        if accuracies[i_best] > best_acc:
            best_acc = accuracies[i_best]
            best = dict(population[i_best])
        history.append(
            GenerationRecord(
                index=gen,
                population=tuple(dict(p) for p in population),
                accuracies=tuple(accuracies),
                f_max_cur=f_max_cur,
                f_avg_cur=f_avg_cur,
                best_accuracy_so_far=best_acc,
            )
        )
        if best_acc > config.accuracy_threshold or gen == config.max_generations:
            break

        pool_idx = selection(accuracies, rng)
        pool = [dict(population[i]) for i in pool_idx]
        pool_acc = [accuracies[i] for i in pool_idx]
        offspring: list[dict] = []
        # consecutive overlapping pairs (M[i], M[i+1]); the extra offspring
        # beyond N_p are dropped by the truncation below
        for i in range(0, len(pool) // 2 + 1):
            pa, pb = pool[i], pool[i + 1]
            f_pair = (pool_acc[i] + pool_acc[i + 1]) / 2.0
            p_c = adaptive_probability(f_pair, f_max_cur, f_avg_cur, config.pc_min, config.pc_max)
            p_m = adaptive_probability(f_pair, f_max_cur, f_avg_cur, config.pm_min, config.pm_max)
            if rng.random() < p_c:
                c1, c2 = crossover(pa, pb, rng)
            else:
                c1, c2 = dict(pa), dict(pb)
            if rng.random() < p_m:
                c1 = mutation(c1, space, rng)
            if rng.random() < p_m:
                c2 = mutation(c2, space, rng)
            offspring.extend((c1, c2))
        population = offspring[: config.population_size]

    return SagaResult(
        best=dict(best),
        best_accuracy=best_acc,
        history=tuple(history),
        n_evaluations=n_evals,
    )
