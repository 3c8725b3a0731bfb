import gc
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from gpscale import gp, pipe
from gpscale.gp import (
    GpConfig,
    binary_tournament,
    run_gp,
    subtree_crossover,
)
from gpscale.pipe import run_pipe
from gpscale.problems import Evaluator, evaluate, order_problem, trap_problem
from gpscale.trees import (
    Node,
    format_tree,
    generate_random_tree,
    iter_nodes,
    parse_tree,
)
from gpscale.primitives import PrimitiveSet


def test_config_validation():
    with pytest.raises(ValueError):
        GpConfig(pop_size=3, max_depth=2)
    with pytest.raises(ValueError):
        GpConfig(pop_size=0, max_depth=2)
    with pytest.raises(ValueError):
        GpConfig(pop_size=4, max_depth=-1)
    with pytest.raises(ValueError, match="seed"):  # random.Random(-11) replays seed 11
        GpConfig(pop_size=4, max_depth=2, seed=-11)


def test_tournament_single_individual():
    assert binary_tournament([0.0], random.Random(0)) == 0


def test_tournament_prefers_the_fitter():
    fitness = [0.0, 5.0]
    rng = random.Random(1)
    winners = Counter(binary_tournament(fitness, rng) for _ in range(2000))
    # the best individual loses only when both draws miss it: p = 1/4
    assert winners[1] / 2000 == pytest.approx(0.75, abs=0.05)


def test_tournament_best_selection_probability():
    # unique best among n, drawn with replacement: p = 2/n - 1/n^2
    n = 10
    trials = 100_000
    fitness = [0.0] * (n - 1) + [1.0]
    rng = random.Random(42)
    hits = sum(binary_tournament(fitness, rng) == n - 1 for _ in range(trials))
    p = 2 / n - 1 / n**2
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * sigma


def test_tournament_uniform_on_equal_fitness():
    n = 8
    trials = 100_000
    fitness = [1.0] * n
    rng = random.Random(7)
    counts = Counter(binary_tournament(fitness, rng) for _ in range(trials))
    expected = trials / n
    chi2 = sum((counts[i] - expected) ** 2 / expected for i in range(n))
    # df=7, alpha=0.001 cutoff 24.32
    assert chi2 < 24.32


def test_crossover_of_single_terminals_swaps_them():
    cfg = GpConfig(pop_size=2, max_depth=2)
    c1, c2 = subtree_crossover(Node("X1"), Node("X2"), cfg, random.Random(0))
    assert format_tree(c1) == "X2"
    assert format_tree(c2) == "X1"


def test_crossover_root_swap_returns_swapped_copies(monkeypatch):
    # depth-1 parents with bias 1.0 have only the roots as internal points
    monkeypatch.setattr(gp, "INTERNAL_NODE_BIAS", 1.0)
    cfg = GpConfig(pop_size=2, max_depth=1)
    p1 = parse_tree("(JOIN X1 X2)")
    p2 = parse_tree("(JOIN ~X1 ~X2)")
    c1, c2 = subtree_crossover(p1, p2, cfg, random.Random(3))
    assert format_tree(c1) == "(JOIN ~X1 ~X2)"
    assert format_tree(c2) == "(JOIN X1 X2)"


def test_crossover_leaf_swap_can_mix_pairs(monkeypatch):
    monkeypatch.setattr(gp, "INTERNAL_NODE_BIAS", 0.0)
    cfg = GpConfig(pop_size=2, max_depth=1)
    p1 = parse_tree("(JOIN X1 X2)")
    p2 = parse_tree("(JOIN ~X1 ~X2)")
    target = parse_tree("(JOIN ~X1 X2)")
    offspring = set()
    for seed in range(64):
        c1, c2 = subtree_crossover(p1, p2, cfg, random.Random(seed))
        offspring.add(str(c1))
        offspring.add(str(c2))
    assert str(target) in offspring


class _ScriptedRng:
    """random()/getrandbits() driven by fixed cycles, for forcing pick paths."""

    def __init__(self, random_values, getrandbits_values):
        self._random = random_values
        self._getrandbits = getrandbits_values
        self._i = 0
        self._j = 0

    def random(self):
        v = self._random[self._i % len(self._random)]
        self._i += 1
        return v

    def getrandbits(self, k):
        v = self._getrandbits[self._j % len(self._getrandbits)]
        self._j += 1
        return v % (1 << k)


def test_crossover_returns_parents_after_retry_exhaustion():
    # scripted picks: a depth-2 leaf of p1 against p2's root, violating the
    # budget both ways round, on every attempt
    p1 = generate_random_tree(PrimitiveSet(2), 2, "full", random.Random(0))
    p2 = generate_random_tree(PrimitiveSet(2), 2, "full", random.Random(1))
    cfg = GpConfig(pop_size=2, max_depth=2)
    rng = _ScriptedRng(random_values=[1.0, 0.0], getrandbits_values=[0, 0])
    c1, c2 = subtree_crossover(p1, p2, cfg, rng)
    assert c1 is p1
    assert c2 is p2


@given(seed=st.integers(0, 2**32), limit=st.integers(0, 5), bias=st.floats(0, 1))
def test_pick_spine_leads_to_the_pick_and_graft_rebuilds_only_the_spine(seed, limit, bias):
    ps = PrimitiveSet(3, num_junk=1, neg_join=True)
    rng = random.Random(seed)
    tree = generate_random_tree(ps, limit, "grow", rng)
    replacement = generate_random_tree(ps, 2, "full", rng)
    picked, spine = gp._pick_point(tree, bias, rng)
    node = tree
    for ancestor, step in spine:
        assert ancestor is node
        node = node.children[step]
    assert node is picked
    grafted = gp._graft(spine, replacement)
    node = grafted
    for ancestor, step in spine:
        assert node is not ancestor and node.symbol == ancestor.symbol
        assert node.children[1 - step] is ancestor.children[1 - step]  # off the spine
        node = node.children[step]
    assert node is replacement
    old = {id(n) for n in iter_nodes(tree)} | {id(n) for n in iter_nodes(replacement)}
    assert sum(id(n) not in old for n in iter_nodes(grafted)) == len(spine)


@given(
    seed=st.integers(0, 2**32),
    limit1=st.integers(0, 4),
    limit2=st.integers(0, 4),
    bias=st.floats(0, 1),
)
def test_crossover_offspring_are_valid_and_conserve_symbols(seed, limit1, limit2, bias):
    ps = PrimitiveSet(3, num_junk=1, neg_join=True)
    rng = random.Random(seed)
    max_depth = 4
    p1 = generate_random_tree(ps, limit1, "grow", rng)
    p2 = generate_random_tree(ps, limit2, "grow", rng)
    cfg = GpConfig(pop_size=2, max_depth=max_depth)
    with mock.patch.object(gp, "INTERNAL_NODE_BIAS", bias):
        c1, c2 = subtree_crossover(p1, p2, cfg, rng)
    assert c1.depth <= max_depth
    assert c2.depth <= max_depth
    for child in (c1, c2):
        for node in iter_nodes(child):
            assert len(node.children) in (0, 2)
    symbols = lambda *trees: Counter(
        n.symbol for t in trees for n in iter_nodes(t)
    )
    assert symbols(c1, c2) == symbols(p1, p2)


def test_run_gp_trivial_instance_succeeds_in_generation_zero():
    problem = order_problem(1)
    for seed in range(30):
        result = run_gp(problem, GpConfig(pop_size=16, max_depth=1, seed=seed))
        assert result.success
        assert result.generations_used == 0
        assert result.evaluations == 16
        assert result.best_fitness == 1.0


def test_run_gp_generation_cap_zero_fails_after_initialisation():
    result = run_gp(order_problem(6), GpConfig(pop_size=8, max_depth=3, seed=1, max_generations=0))
    assert not result.success
    assert result.generations_used == 0
    assert result.evaluations == 8


def test_run_gp_solves_a_small_order_instance():
    result = run_gp(order_problem(5), GpConfig(pop_size=64, max_depth=4, seed=3))
    assert result.success
    assert result.best_fitness == 5.0
    assert result.evaluations == 64 * (result.generations_used + 1)


def test_run_gp_population_invariants_via_observer():
    problem = order_problem(4)
    cfg = GpConfig(pop_size=20, max_depth=3, seed=5, max_generations=30)
    seen = []

    def observer(generation, trees):
        seen.append(generation)
        assert len(trees) == 20
        assert all(t.depth <= 3 for t in trees)
        assert all(evaluate(t, problem) <= problem.optimum_fitness for t in trees)

    result = run_gp(problem, cfg, observer=observer)
    assert seen == list(range(result.generations_used + 1))
    assert result.evaluations == 20 * (result.generations_used + 1)


def test_run_gp_fitness_of_shared_subtrees_matches_a_fresh_copy():
    # offspring share their parents' subtrees and those subtrees' expression
    # summaries; a freshly parsed copy builds its own and must score the same
    problem = trap_problem(6, 3, 0.25, num_junk=1, neg_join=True)
    cfg = GpConfig(pop_size=24, max_depth=4, seed=11, max_generations=8)
    checked = []

    def observer(generation, trees):
        for t in trees:
            assert evaluate(parse_tree(format_tree(t)), problem) == evaluate(t, problem)
        checked.append(generation)

    run_gp(problem, cfg, observer=observer)
    assert len(checked) > 1


@pytest.mark.parametrize("engine", [run_gp, run_pipe], ids=lambda engine: engine.__name__)
def test_run_leaves_no_reference_cycles(engine):
    # the cyclic collector is paused during a run, so garbage cycles made
    # there would keep their trees alive until the run ends.  It stays off
    # until the count below: re-enabled, its first collection would free
    # them unseen.
    gc.collect()
    gc.disable()
    try:
        engine(
            trap_problem(6, 3, 0.25, neg_join=True),
            GpConfig(pop_size=64, max_depth=4, seed=2, max_generations=10),
        )
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", [run_gp, run_pipe], ids=["run_gp", "run_pipe"])
def test_each_hook_is_called_once_per_selection_crossover_init_and_evaluation(
    engine, monkeypatch
):
    # the benchmark's trace times these attributes, so the hot loop must go
    # through each of them once per operation
    calls = Counter()

    def count(owner, attr, name):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(gp, "binary_tournament", "tournament")
    count(pipe, "binary_tournament", "tournament")
    count(gp, "subtree_crossover", "crossover")
    count(gp, "ramped_half_and_half", "init")
    count(Evaluator, "__call__", "evaluate")
    cfg = GpConfig(pop_size=32, max_depth=5, max_generations=5, seed=3)
    result = engine(order_problem(16), cfg)
    generations = result.generations_used
    assert generations == cfg.max_generations  # every generation made offspring
    assert calls["tournament"] == cfg.pop_size * generations
    crossovers = cfg.pop_size // 2 * generations if engine is run_gp else 0
    assert calls["crossover"] == crossovers
    assert calls["init"] == 1
    assert calls["evaluate"] == result.evaluations == cfg.pop_size * (generations + 1)


def test_run_gp_is_deterministic_per_seed():
    problem = trap_problem(6, 3, 0.25)
    cfg = GpConfig(pop_size=32, max_depth=4, seed=99, max_generations=50)
    assert run_gp(problem, cfg) == run_gp(problem, cfg)


def test_run_gp_solves_the_degenerate_delta_zero_trap():
    # at delta=0 the all-false vector ties the optimum, so runs must not be
    # cut short for missing positive terminals
    for seed in range(10):
        result = run_gp(
            trap_problem(3, 3, 0.0), GpConfig(pop_size=16, max_depth=3, seed=seed)
        )
        assert result.success
