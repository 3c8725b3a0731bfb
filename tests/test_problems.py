import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gpscale.primitives import JOIN, NEG_JOIN, PrimitiveSet
from gpscale.problems import (
    Evaluator,
    ProblemSpec,
    TrapParams,
    evaluate,
    express,
    optimum_reachable,
    order_fitness,
    order_problem,
    trap_fitness,
    trap_problem,
    trap_subfunction,
)
from gpscale.trees import Node, generate_random_tree, inorder_leaves, iter_nodes, parse_tree

# ---------------------------------------------------------------- oracles
# Independent re-implementations used as ground truth; deliberately written
# with a different structure than the production code (recursive gather,
# Fraction arithmetic, first-occurrence via dict).


def oracle_express(tree, ps):
    def gather(node, neg_count):
        if not node.children:
            return [(node.symbol, neg_count)]
        bump = 1 if node.symbol == NEG_JOIN else 0
        return gather(node.children[0], neg_count + bump) + gather(
            node.children[1], neg_count + bump
        )

    first = {}
    for symbol, neg_count in gather(tree, 0):
        if symbol.startswith("J"):
            continue
        if symbol.startswith("~"):
            index, positive = int(symbol[2:]), False
        else:
            index, positive = int(symbol[1:]), True
        if neg_count >= 1:  # negated once, however many ancestors
            positive = not positive
        if index not in first:
            first[index] = positive
    return [first.get(i, False) for i in range(1, ps.num_pairs + 1)]


def oracle_trap_value(u, k, delta):
    if u == k:
        return Fraction(1)
    return (1 - Fraction(delta)) * (1 - Fraction(u, k - 1))


def oracle_evaluate(tree, problem):
    bits = oracle_express(tree, problem.primitives)
    if problem.trap is None:
        return float(len([b for b in bits if b]))
    tp = problem.trap
    total = Fraction(0)
    for start in range(0, len(bits), tp.k):
        total += oracle_trap_value(sum(bits[start : start + tp.k]), tp.k, tp.delta)
    return float(total)


def all_trees(ps, max_depth):
    """Every arity-valid tree over the full alphabet with depth <= max_depth."""
    trees = [Node(t) for t in ps.terminals]
    if max_depth == 0:
        return trees
    shallower = all_trees(ps, max_depth - 1)
    for f in ps.functions:
        for left in shallower:
            for right in shallower:
                trees.append(Node(f, (left, right)))
    return trees


# ------------------------------------------------------------- expression

FIG_ORDER_TREE = "(JOIN (JOIN ~X3 X1) (JOIN (JOIN ~X1 ~X2) (JOIN X4 ~X3)))"


def test_express_worked_example():
    # leaf walk ~X3 X1 ~X1 ~X2 X4 ~X3 expresses {X1, ~X2, ~X3, X4}
    tree = parse_tree(FIG_ORDER_TREE)
    assert express(tree, PrimitiveSet(4)) == [True, False, False, True]


def test_express_drops_junk_leaves():
    # surviving walk ~X3 ~X1 X2 X4 expresses {~X1, X2, ~X3, X4}
    tree = parse_tree("(JOIN (JOIN ~X3 J1) (JOIN (JOIN ~X1 X2) (JOIN J2 X4)))")
    assert express(tree, PrimitiveSet(4, num_junk=2)) == [False, True, False, True]


def test_express_neg_join_flips_leaves():
    tree = parse_tree("(NEG_JOIN ~X1 X2)")
    assert express(tree, PrimitiveSet(2, neg_join=True)) == [True, False]


def test_express_defaults_unseen_pairs_to_negative():
    assert express(Node("X1"), PrimitiveSet(3)) == [True, False, False]


@given(
    num_pairs=st.integers(1, 5),
    num_junk=st.integers(0, 2),
    neg_join=st.booleans(),
    limit=st.integers(0, 4),
    method=st.sampled_from(["full", "grow"]),
    seed=st.integers(0, 2**32),
)
def test_express_matches_oracle_on_random_trees(
    num_pairs, num_junk, neg_join, limit, method, seed
):
    ps = PrimitiveSet(num_pairs, num_junk, neg_join)
    tree = generate_random_tree(ps, limit, method, random.Random(seed))
    assert express(tree, ps) == oracle_express(tree, ps)


def _flagged_leaf_expression(tree, ps):
    """Reference expression computed from inorder_leaves only."""
    first = {}
    for symbol, negated in inorder_leaves(tree):
        info = ps.leaf_info[symbol]
        if info is None:
            continue
        index, positive = info
        if index not in first:
            first[index] = positive != negated
    return [first.get(i, False) for i in range(ps.num_pairs)]


@given(
    num_pairs=st.integers(1, 5),
    neg_join=st.booleans(),
    limit=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_express_is_a_function_of_the_flagged_leaf_walk(num_pairs, neg_join, limit, seed):
    ps = PrimitiveSet(num_pairs, num_junk=1, neg_join=neg_join)
    tree = generate_random_tree(ps, limit, "grow", random.Random(seed))
    assert express(tree, ps) == _flagged_leaf_expression(tree, ps)


@given(seed=st.integers(0, 2**32), limit=st.integers(1, 4))
def test_duplicating_a_leaf_after_itself_never_changes_expression(seed, limit):
    ps = PrimitiveSet(4, neg_join=True)
    rng = random.Random(seed)
    tree = generate_random_tree(ps, limit, "grow", rng)

    def duplicate_first_leaf(node):
        if not node.children:
            return Node(JOIN, (node, node))
        return Node(node.symbol, (duplicate_first_leaf(node.children[0]), node.children[1]))

    assert express(duplicate_first_leaf(tree), ps) == express(tree, ps)


@given(seed=st.integers(0, 2**32), limit=st.integers(0, 4), junk=st.integers(1, 2))
def test_adding_a_junk_leaf_never_changes_expression(seed, limit, junk):
    ps = PrimitiveSet(3, num_junk=junk, neg_join=True)
    rng = random.Random(seed)
    tree = generate_random_tree(ps, limit, "grow", rng)
    padded = Node(JOIN, (Node(f"J{junk}"), tree))
    assert express(padded, ps) == express(tree, ps)
    padded_right = Node(JOIN, (tree, Node(f"J{junk}")))
    assert express(padded_right, ps) == express(tree, ps)


@given(
    num_pairs=st.integers(1, 6),
    num_junk=st.integers(0, 2),
    limit=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_cached_subtrees_express_correctly_in_any_context(num_pairs, num_junk, limit, seed):
    # a subtree's summary is cached when it is first expressed; reusing it
    # under JOIN and NEG_JOIN parents, on either side, must still match the
    # oracle walk over the whole new tree
    ps = PrimitiveSet(num_pairs, num_junk, neg_join=True)
    rng = random.Random(seed)
    a = generate_random_tree(ps, limit, "grow", rng)
    b = generate_random_tree(ps, limit, "full", rng)
    assert express(a, ps) == oracle_express(a, ps)
    assert express(b, ps) == oracle_express(b, ps)
    for f in (JOIN, NEG_JOIN):
        for tree in (Node(f, (a, b)), Node(f, (b, a)), Node(JOIN, (Node(f, (a, a)), b))):
            assert express(tree, ps) == oracle_express(tree, ps)


@given(
    num_pairs=st.sampled_from([3, 9, 12]),
    delta=st.sampled_from([0.0, 0.25, 1.0]),
    neg_join=st.booleans(),
    limit=st.integers(0, 5),
    seed=st.integers(0, 2**32),
)
def test_evaluator_matches_oracle_on_trap_and_order(num_pairs, delta, neg_join, limit, seed):
    rng = random.Random(seed)
    for problem in (
        trap_problem(num_pairs, 3, delta, num_junk=1, neg_join=neg_join),
        order_problem(num_pairs, num_junk=1, neg_join=neg_join),
    ):
        tree = generate_random_tree(problem.primitives, limit, "grow", rng)
        assert Evaluator(problem)(tree) == oracle_evaluate(tree, problem)
        bits = express(tree, problem.primitives)
        want = order_fitness(bits) if problem.trap is None else trap_fitness(bits, problem.trap)
        assert evaluate(tree, problem) == want


# ---------------------------------------------------------------- fitness


def test_order_fitness_values():
    assert order_fitness([True, False, False, True]) == 2.0
    assert order_fitness([True] * 100) == 100.0
    assert order_fitness([False] * 7) == 0.0


def test_trap_subfunction_k4():
    tp = TrapParams(4, 0.25)
    values = [trap_subfunction(u, tp) for u in range(5)]
    assert values == [0.75, 0.5, 0.25, 0.0, 1.0]


def test_trap_subfunction_k3_needle():
    tp = TrapParams(3, 1.0)
    assert [trap_subfunction(u, tp) for u in range(4)] == [0.0, 0.0, 0.0, 1.0]


def test_trap_subfunction_delta_zero_ties_optimum():
    tp = TrapParams(3, 0.0)
    assert trap_subfunction(0, tp) == 1.0
    assert trap_subfunction(3, tp) == 1.0


def test_trap_subfunction_rejects_out_of_range():
    tp = TrapParams(3, 0.5)
    with pytest.raises(ValueError):
        trap_subfunction(-1, tp)
    with pytest.raises(ValueError):
        trap_subfunction(4, tp)


@given(
    k=st.integers(2, 6),
    delta=st.floats(0.01, 0.99),
)
def test_trap_subfunction_strictly_decreasing_below_k(k, delta):
    tp = TrapParams(k, delta)
    values = [trap_subfunction(u, tp) for u in range(k)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert trap_subfunction(k, tp) == 1.0


def test_trap_fitness_examples():
    assert trap_fitness([True] * 3 + [False] * 3, TrapParams(3, 1.0)) == 1.0
    assert trap_fitness([False] * 6, TrapParams(3, 0.25)) == 1.5
    for delta in (0.0, 0.25, 1.0):
        assert trap_fitness([True] * 6, TrapParams(3, delta)) == 2.0


@given(bits=st.lists(st.booleans(), min_size=6, max_size=6), delta=st.floats(0, 1))
def test_trap_fitness_matches_fraction_oracle(bits, delta):
    got = trap_fitness(bits, TrapParams(3, delta))
    want = float(
        sum(oracle_trap_value(sum(bits[s : s + 3]), 3, delta) for s in (0, 3))
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_trap_fitness_table_oracle_over_all_strings():
    # exhaustive 2^6 comparison against the Fraction oracle
    tp = TrapParams(3, 0.25)
    for code in range(64):
        bits = [(code >> i) & 1 == 1 for i in range(6)]
        want = float(
            oracle_trap_value(sum(bits[0:3]), 3, 0.25)
            + oracle_trap_value(sum(bits[3:6]), 3, 0.25)
        )
        assert trap_fitness(bits, tp) == pytest.approx(want, abs=1e-15)


def test_problem_spec_invariants():
    assert order_problem(7).optimum_fitness == 7.0
    assert trap_problem(6, 3, 1.0).optimum_fitness == 2.0
    assert order_problem(3).family == "order"
    assert trap_problem(4, 2, 0.5).family == "trap"
    with pytest.raises(ValueError):
        trap_problem(7, 3, 1.0)
    with pytest.raises(ValueError):
        TrapParams(1, 0.5)
    with pytest.raises(ValueError):
        TrapParams(3, 1.5)


def test_evaluate_worked_example_and_optimum():
    assert evaluate(parse_tree(FIG_ORDER_TREE), order_problem(4)) == 2.0
    optimum = parse_tree("(JOIN (JOIN X1 X2) (JOIN X3 X4))")
    assert evaluate(optimum, order_problem(4)) == 4.0


def test_evaluate_exhaustive_small_trees():
    problem = order_problem(2, num_junk=1, neg_join=True)
    trees = all_trees(problem.primitives, 2)
    assert len(trees) > 1000
    for tree in trees:
        assert evaluate(tree, problem) == oracle_evaluate(tree, problem)


def test_evaluator_counts_every_call():
    problem = order_problem(3)
    ev = Evaluator(problem)
    trees = [Node("X1"), Node("~X2"), parse_tree("(JOIN X1 X3)")]
    values = [ev(t) for t in trees]
    assert ev.evaluations == 3
    assert values == [1.0, 0.0, 2.0]


@given(
    num_pairs=st.integers(1, 4),
    limit=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_fitness_bounds(num_pairs, limit, seed):
    ps = PrimitiveSet(num_pairs)
    tree = generate_random_tree(ps, limit, "grow", random.Random(seed))
    f = evaluate(tree, ProblemSpec(ps))
    assert 0.0 <= f <= num_pairs


# ---------------------------------------------------- optimum reachability


def test_optimum_reachable_cases():
    ps = PrimitiveSet(2)
    assert optimum_reachable([parse_tree("(JOIN X1 X2)")], ps)
    assert optimum_reachable([Node("X1"), Node("X2")], ps)
    # X2 nowhere: pair 2 can never be expressed positively again
    assert not optimum_reachable([parse_tree("(JOIN X1 ~X2)")], ps)

    neg_ps = PrimitiveSet(2, neg_join=True)
    # ~X2 plus an available NEG_JOIN can still express X2
    assert optimum_reachable([parse_tree("(NEG_JOIN X1 ~X2)")], neg_ps)
    # ~X2 alone cannot: no NEG_JOIN left anywhere in the population
    assert not optimum_reachable([parse_tree("(JOIN X1 ~X2)")], neg_ps)
    assert not optimum_reachable([Node("J1")], PrimitiveSet(1, num_junk=1))


def reference_reachable(trees, ps):
    """Every pair keeps its positive terminal, or its negative one while a
    NEG_JOIN is left; symbols gathered node by node."""
    symbols = {node.symbol for tree in trees for node in iter_nodes(tree)}
    return all(
        f"X{i}" in symbols or (NEG_JOIN in symbols and f"~X{i}" in symbols)
        for i in range(1, ps.num_pairs + 1)
    )


@given(
    num_pairs=st.integers(1, 6),
    num_junk=st.integers(0, 2),
    neg_join=st.booleans(),
    size=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
def test_optimum_reachable_matches_a_symbol_walk(num_pairs, num_junk, neg_join, size, seed):
    ps = PrimitiveSet(num_pairs, num_junk, neg_join)
    rng = random.Random(seed)
    trees = [
        generate_random_tree(ps, rng.randint(0, 3), rng.choice(["full", "grow"]), rng)
        for _ in range(size)
    ]
    for tree in rng.sample(trees, rng.randint(0, size)):  # summarised before grafting
        evaluate(tree, ProblemSpec(ps))
    # grafts share whole trees of the population, with any NEG_JOIN under a JOIN
    for _ in range(rng.randint(0, 3)):
        a, b, c = (rng.choice(trees) for _ in range(3))
        inner = Node(NEG_JOIN if neg_join else JOIN, (a, b))
        trees.append(Node(JOIN, (inner, c) if rng.random() < 0.5 else (c, inner)))
    rng.shuffle(trees)
    assert optimum_reachable(trees, ps) == reference_reachable(trees, ps)
