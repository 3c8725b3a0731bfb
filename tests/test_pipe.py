import gc
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from gpscale.gp import GpConfig, RunResult
from gpscale.pipe import (
    build_model,
    dump_model,
    run_pipe,
    sample_model,
)
from gpscale.primitives import PrimitiveSet, arity
from gpscale.problems import optimum_reachable, order_problem
from gpscale.trees import (
    Node,
    format_tree,
    generate_random_tree,
    iter_nodes,
    parse_tree,
)


def test_build_model_single_leaf_program():
    model = build_model([Node("X1")])
    assert model.probs == {"X1": 1.0}
    assert model.children == ()


def test_build_model_mixed_shapes():
    model = build_model([parse_tree("(JOIN X1 X2)"), Node("X1")])
    assert model.probs == {"JOIN": 0.5, "X1": 0.5}
    left, right = model.children
    # child tables count only the program that reaches the position
    assert left.probs == {"X1": 1.0}
    assert right.probs == {"X2": 1.0}


def test_build_model_degenerate_population():
    tree = parse_tree("(JOIN (JOIN X1 X2) ~X1)")
    model = build_model([tree] * 100)
    for node in _model_nodes(model):
        assert len(node.probs) == 1
        assert next(iter(node.probs.values())) == 1.0


# programs that agree at the root, or along a whole shape, and differ below
_DEGENERACY_POOL = [
    "X1",
    "~X1",
    "(JOIN X1 X2)",
    "(JOIN X2 X1)",
    "(NEG_JOIN X1 X2)",
    "(JOIN X1 (JOIN X1 X2))",
    "(JOIN X1 (JOIN X2 X1))",
    "(JOIN (JOIN X1 X2) X1)",
]


@given(st.lists(st.sampled_from(_DEGENERACY_POOL), min_size=1, max_size=8))
@example(["(JOIN X1 X2)", "(JOIN X2 X1)"])
@example(["(JOIN X1 (JOIN X1 X2))"] * 3)
def test_model_is_degenerate_exactly_when_the_programs_are_identical(texts):
    # each text parsed anew, so repeats are equal programs, not one object
    model = build_model([parse_tree(t) for t in texts])
    assert model.degenerate == (len(set(texts)) == 1)


def test_build_model_rejects_empty_selection():
    with pytest.raises(ValueError):
        build_model([])


def _model_nodes(model):
    stack = [model]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def model_depth(model):
    if not model.children:
        return 0
    return 1 + max(model_depth(c) for c in model.children)


def _assert_within_model(tree, model):
    assert tree.symbol in model.probs
    assert model.probs[tree.symbol] > 0.0
    if tree.children:
        assert len(model.children) == 2
        for child, child_model in zip(tree.children, model.children):
            _assert_within_model(child, child_model)


def test_sampling_a_degenerate_model_reproduces_the_tree():
    tree = parse_tree("(JOIN (JOIN X1 ~X2) X3)")
    model = build_model([tree] * 5)
    rng = random.Random(0)
    for _ in range(50):
        assert format_tree(sample_model(model, rng)) == format_tree(tree)


def test_sampling_frequencies_match_the_table():
    model = build_model([parse_tree("(JOIN X1 X2)"), Node("X1")])
    rng = random.Random(123)
    draws = 10_000
    deep = sum(sample_model(model, rng).children != () for _ in range(draws))
    p = 0.5
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(deep / draws - p) < 3 * sigma


@given(
    seed=st.integers(0, 2**32),
    pop_size=st.integers(1, 8),
    limit=st.integers(0, 4),
)
def test_sampled_trees_stay_inside_the_model(seed, pop_size, limit):
    ps = PrimitiveSet(3, num_junk=1, neg_join=True)
    rng = random.Random(seed)
    population = [generate_random_tree(ps, limit, "grow", rng) for _ in range(pop_size)]
    model = build_model(population)
    source_depth = max(t.depth for t in population)
    assert model_depth(model) <= source_depth
    for node in _model_nodes(model):
        assert abs(sum(node.probs.values()) - 1.0) < 1e-9
        assert all(p > 0 for p in node.probs.values())
        if any(arity(s) for s in node.probs):
            assert len(node.children) == 2
        else:
            assert node.children == ()
    for _ in range(20):
        sample = sample_model(model, rng)
        _assert_within_model(sample, model)
        assert sample.depth <= source_depth
        for node in iter_nodes(sample):
            assert len(node.children) == arity(node.symbol)


def test_rebuilt_model_converges_to_the_source_tables():
    # KL divergence at the root under resampling, 1e5 draws on a 3-symbol table
    population = [Node("X1"), Node("X2"), parse_tree("(JOIN X1 X2)")]
    model = build_model(population)
    rng = random.Random(7)
    samples = [sample_model(model, rng) for _ in range(100_000)]
    rebuilt = build_model(samples)
    kl = sum(
        p * math.log(p / rebuilt.probs[s]) for s, p in model.probs.items()
    )
    assert kl < 0.01


def _enumerate_support(model):
    """All samplable trees with their exact probabilities."""
    out = []
    for symbol, p in model.probs.items():
        if arity(symbol):
            for left, pl in _enumerate_support(model.children[0]):
                for right, pr in _enumerate_support(model.children[1]):
                    out.append((Node(symbol, (left, right)), p * pl * pr))
        else:
            out.append((Node(symbol), p))
    return out


def test_joint_probability_is_the_product_of_node_tables():
    population = [
        parse_tree("(JOIN X1 X2)"),
        parse_tree("(JOIN ~X1 X2)"),
        Node("X3"),
        parse_tree("(JOIN X1 ~X3)"),
    ]
    model = build_model(population)
    support = _enumerate_support(model)
    assert abs(sum(p for _, p in support) - 1.0) < 1e-12
    # empirical frequencies agree with the enumerated product probabilities
    rng = random.Random(11)
    draws = 20_000
    counts = Counter(str(sample_model(model, rng)) for _ in range(draws))
    for tree, p in support:
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(counts[str(tree)] / draws - p) <= 4 * sigma + 1e-9


def test_dump_model_format():
    model = build_model([parse_tree("(JOIN X1 X2)"), Node("X1")])
    text = dump_model(model, PrimitiveSet(2))
    lines = text.splitlines()
    assert lines[0] == "/: {JOIN=0.500000,X1=0.500000}"
    assert lines[1] == "/0: {X1=1.000000}"
    assert lines[2] == "/1: {X2=1.000000}"
    line_re = re.compile(r"^[/0-9]+: \{[^{}]+\}$")
    assert all(line_re.match(line) for line in lines)
    # each table follows the instance's alphabet: functions, then X_i, ~X_i
    # and junk, pair numbers compared as numbers (X2 before X10)
    trees = ["(JOIN X10 J1)", "(NEG_JOIN X2 ~X10)", "(JOIN ~X2 X1)"]
    model = build_model([parse_tree(t) for t in trees])
    lines = dump_model(model, PrimitiveSet(10, 1, True)).splitlines()
    assert lines == [
        "/: {JOIN=0.666667,NEG_JOIN=0.333333}",
        "/0: {X2=0.333333,X10=0.333333,~X2=0.333333}",
        "/1: {X1=0.333333,~X10=0.333333,J1=0.333333}",
    ]
    # nested positions come in preorder
    model = build_model([parse_tree("(JOIN (JOIN X1 X2) X1)")])
    lines = dump_model(model, PrimitiveSet(2)).splitlines()
    assert [line.split(":")[0] for line in lines] == ["/", "/0", "/0/0", "/0/1", "/1"]


def test_dump_model_leaves_no_reference_cycles():
    # the CLI dumps the model after a run; a self-calling walk would leave
    # a cycle that only the cyclic collector frees
    model = build_model([parse_tree("(JOIN X1 X2)")])
    gc.collect()
    gc.disable()
    try:
        dump_model(model, PrimitiveSet(2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dump_model_rejects_a_symbol_outside_the_instance():
    model = build_model([parse_tree("(JOIN X1 X3)")])
    with pytest.raises(KeyError):
        dump_model(model, PrimitiveSet(2))


def test_run_pipe_trivial_instance():
    for seed in range(30):
        result = run_pipe(order_problem(1), GpConfig(pop_size=16, max_depth=1, seed=seed))
        assert result.success
        assert result.generations_used == 0
        assert result.evaluations == 16


def test_run_pipe_solves_a_small_order_instance():
    result = run_pipe(order_problem(5), GpConfig(pop_size=64, max_depth=4, seed=3))
    assert result.success
    assert result.evaluations == 64 * (result.generations_used + 1)


def test_run_pipe_invariants_via_observer():
    cfg = GpConfig(pop_size=16, max_depth=3, seed=2, max_generations=40)
    pops = []
    models = []
    run_pipe(
        order_problem(3),
        cfg,
        observer=lambda gen, pop: pops.append((gen, len(pop))),
        model_observer=lambda gen, model: models.append(gen),
    )
    assert all(size == 16 for _, size in pops)
    # one model per generation that produced offspring
    assert models == list(range(len(pops) - 1))


def test_run_pipe_detects_the_degenerate_absorbing_state():
    # a non-optimal converged selection can never improve: the run must stop
    # early instead of replaying identical generations to the cap
    problem = order_problem(2)
    cfg = GpConfig(pop_size=4, max_depth=2, seed=27, max_generations=10_000)
    pops = []
    models = []
    result = run_pipe(
        problem,
        cfg,
        observer=lambda gen, trees: pops.append((gen, trees)),
        model_observer=lambda gen, model: models.append(gen),
    )
    assert result == RunResult(False, 32, 7, 1.0)
    assert [gen for gen, _ in pops] == list(range(8))
    # generation 7 built a degenerate model and stopped there; the optimum was
    # still reachable, so neither the cap nor the reachability cut stopped it
    assert models == list(range(7))
    assert optimum_reachable(pops[-1][1], problem.primitives)


def test_run_pipe_is_deterministic_per_seed():
    problem = order_problem(4)
    cfg = GpConfig(pop_size=32, max_depth=3, seed=77, max_generations=60)
    assert run_pipe(problem, cfg) == run_pipe(problem, cfg)
