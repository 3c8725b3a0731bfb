import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gpscale.primitives import JOIN, NEG_JOIN, PrimitiveSet, arity
from gpscale.trees import (
    Node,
    default_max_depth,
    format_tree,
    generate_random_tree,
    inorder_leaves,
    iter_nodes,
    leaf,
    minimum_optimum_depth,
    parse_tree,
    ramp_schedule,
    ramped_half_and_half,
    validate_tree,
)

primitive_sets = st.builds(
    PrimitiveSet,
    num_pairs=st.integers(1, 6),
    num_junk=st.integers(0, 3),
    neg_join=st.booleans(),
)


@st.composite
def random_trees(draw, max_limit=4):
    ps = draw(primitive_sets)
    limit = draw(st.integers(0, max_limit))
    method = draw(st.sampled_from(["full", "grow"]))
    seed = draw(st.integers(0, 2**32))
    return ps, generate_random_tree(ps, limit, method, random.Random(seed)), limit


def test_arity():
    assert arity(JOIN) == 2
    assert arity(NEG_JOIN) == 2
    for t in ("X1", "~X7", "J2"):
        assert arity(t) == 0


@given(primitive_sets)
def test_alphabet_size(ps):
    expected = 1 + (1 if ps.neg_join else 0) + 2 * ps.num_pairs + ps.num_junk
    assert len(ps.alphabet) == expected
    assert len(set(ps.alphabet)) == expected


def test_primitive_set_validation():
    with pytest.raises(ValueError):
        PrimitiveSet(0)
    with pytest.raises(ValueError):
        PrimitiveSet(3, num_junk=-1)


@pytest.mark.parametrize("symbol, neg_join, member", [
    ("JOIN", False, True),
    ("NEG_JOIN", False, False),
    ("NEG_JOIN", True, True),
    ("X1", False, True),
    ("~X3", False, True),  # ~Xl, the last negative terminal
    ("X4", False, False),  # X{l+1}
    ("J2", False, True),  # J{n}, the last junk terminal
    ("J3", False, False),  # J{n+1}
    ("J0", False, False),
    ("bogus", False, False),
])
def test_primitive_set_membership(symbol, neg_join, member):
    assert (symbol in PrimitiveSet(3, num_junk=2, neg_join=neg_join)) is member


def test_alphabet_is_in_canonical_order():
    # numeric, not lexicographic: X2 comes before X10
    pairs = range(1, 11)
    assert PrimitiveSet(10, num_junk=1, neg_join=True).alphabet == (
        "JOIN", "NEG_JOIN", *(f"X{i}" for i in pairs), *(f"~X{i}" for i in pairs), "J1",
    )


def test_depth_and_size_basics():
    leaf = Node("X1")
    assert leaf.depth == 0
    assert leaf.size == 1
    pair = Node(JOIN, (Node("X1"), Node("X2")))
    assert pair.depth == 1
    assert pair.size == 3


def test_full_binary_tree_with_32_leaves():
    tree = generate_random_tree(PrimitiveSet(4), 5, "full", random.Random(0))
    assert tree.depth == 5
    assert tree.size == 63
    assert len(inorder_leaves(tree)) == 32


def _min_depth_by_enumeration(num_pairs):
    depth = 0
    while 2**depth < num_pairs:
        depth += 1
    return depth


def test_minimum_optimum_depth():
    assert minimum_optimum_depth(20) == 5
    assert default_max_depth(20) == 6
    assert minimum_optimum_depth(1) == 0
    assert minimum_optimum_depth(33) == _min_depth_by_enumeration(33) == 6
    with pytest.raises(ValueError):
        minimum_optimum_depth(0)


@given(st.integers(1, 1000))
def test_minimum_optimum_depth_matches_enumeration(num_pairs):
    assert minimum_optimum_depth(num_pairs) == _min_depth_by_enumeration(num_pairs)


def test_full_at_limit_zero_is_a_single_terminal():
    ps = PrimitiveSet(3, num_junk=1)
    for seed in range(50):
        tree = generate_random_tree(ps, 0, "full", random.Random(seed))
        assert tree.children == ()
        assert tree.symbol in ps.terminals


def test_full_tree_is_complete():
    ps = PrimitiveSet(5)
    for seed in range(20):
        tree = generate_random_tree(ps, 2, "full", random.Random(seed))
        assert tree.size == 7
        assert tree.depth == 2


@given(random_trees())
def test_generated_trees_are_valid_and_within_limit(case):
    ps, tree, limit = case
    validate_tree(tree, ps)
    assert tree.depth <= limit


@given(random_trees())
def test_full_trees_have_power_of_two_size(case):
    ps, _, _ = case
    rng = random.Random(7)
    for limit in range(4):
        tree = generate_random_tree(ps, limit, "full", rng)
        assert tree.size == 2 ** (limit + 1) - 1


def _grow_depth_cdf(ps, budget):
    """P(depth <= x) for the grow sampler, from the branching recurrence."""
    t = len(ps.terminals) / len(ps.alphabet)
    f = 1.0 - t

    def cdf(budget, x):
        if x < 0:
            return 0.0
        if budget == 0 or x >= budget:
            return 1.0
        return t + f * cdf(budget - 1, x - 1) ** 2

    return [cdf(budget, x) for x in range(budget + 1)]


def test_grow_depth_distribution_matches_recurrence():
    # chi-square against the analytic depth law, fixed seed, 10^4 draws
    ps = PrimitiveSet(2)
    budget = 3
    draws = 10_000
    rng = random.Random(12345)
    observed = Counter(
        generate_random_tree(ps, budget, "grow", rng).depth for _ in range(draws)
    )
    cdf = _grow_depth_cdf(ps, budget)
    expected = [cdf[0]] + [cdf[x] - cdf[x - 1] for x in range(1, budget + 1)]
    assert abs(sum(expected) - 1.0) < 1e-12
    chi2 = sum(
        (observed.get(x, 0) - draws * expected[x]) ** 2 / (draws * expected[x])
        for x in range(budget + 1)
    )
    # df=3, alpha=0.001 cutoff 16.27
    assert chi2 < 16.27


def test_ramp_schedule_counts():
    assert ramp_schedule(4, 2) == [(2, "full"), (2, "full"), (2, "grow"), (2, "grow")]
    schedule = ramp_schedule(100, 6)
    per_depth = Counter(depth for depth, _ in schedule)
    assert per_depth == {2: 20, 3: 20, 4: 20, 5: 20, 6: 20}
    for depth in range(2, 7):
        methods = Counter(m for d, m in schedule if d == depth)
        assert methods == {"full": 10, "grow": 10}


def test_ramp_schedule_odd_count_favours_grow():
    methods = Counter(m for _, m in ramp_schedule(7, 2))
    assert methods == {"full": 3, "grow": 4}


def test_ramp_schedule_clamps_below_two():
    # a depth-1 budget (problems with one pair) ramps at depth 1 only
    assert all(d == 1 for d, _ in ramp_schedule(10, 1))


def test_ramped_population_respects_depth_budget():
    ps = PrimitiveSet(4, num_junk=1, neg_join=True)
    pop = ramped_half_and_half(ps, 64, 3, random.Random(9))
    assert len(pop) == 64
    assert all(t.depth <= 3 for t in pop)
    for tree in pop:
        validate_tree(tree, ps)
    with pytest.raises(ValueError):
        ramped_half_and_half(ps, 1, 3, random.Random(0))


def test_inorder_leaves_worked_example():
    tree = parse_tree("(JOIN (JOIN ~X3 X1) (JOIN (JOIN ~X1 ~X2) (JOIN X4 ~X3)))")
    assert inorder_leaves(tree) == [
        ("~X3", False), ("X1", False), ("~X1", False),
        ("~X2", False), ("X4", False), ("~X3", False),
    ]


def test_inorder_leaves_single_terminal():
    assert inorder_leaves(Node("X1")) == [("X1", False)]


def test_inorder_leaves_nested_neg_join_flags_once():
    tree = parse_tree("(NEG_JOIN (NEG_JOIN X1 X2) X3)")
    assert inorder_leaves(tree) == [("X1", True), ("X2", True), ("X3", True)]


@given(random_trees())
def test_inorder_leaf_count_equals_terminal_count(case):
    _, tree, _ = case
    terminals = [n for n in iter_nodes(tree) if not n.children]
    assert len(inorder_leaves(tree)) == len(terminals)
    # leaf order matches a straightforward recursive traversal
    def rec(node):
        if not node.children:
            return [node.symbol]
        return rec(node.children[0]) + rec(node.children[1])
    assert [s for s, _ in inorder_leaves(tree)] == rec(tree)


@given(random_trees(max_limit=3))
def test_wrapping_in_neg_join_flags_every_leaf(case):
    ps, tree, _ = case
    wrapped = Node(NEG_JOIN, (tree, Node(ps.terminals[0])))
    assert all(flag for _, flag in inorder_leaves(wrapped))


@given(random_trees())
def test_format_parse_round_trip(case):
    _, tree, _ = case
    text = format_tree(tree)
    assert format_tree(parse_tree(text)) == text


def test_parse_examples():
    tree = parse_tree("(JOIN (NEG_JOIN X1 ~X2) J3)")
    assert tree.symbol == JOIN
    assert tree.children[0].symbol == NEG_JOIN
    assert tree.children[1].symbol == "J3"
    assert format_tree(tree) == "(JOIN (NEG_JOIN X1 ~X2) J3)"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "(JOIN X1)",
        "(JOIN X1 X2 X3)",
        "(JOIN X1 X2",
        "JOIN",
        "(X1 X2 X3)",
        "(JOIN X0 X1)",
        "(JOIN X1 X2) X3",
        "(JOIN BAD X1)",
        ")",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_tree(text)


def test_validate_tree_rejects_foreign_symbols_and_bad_arity():
    ps = PrimitiveSet(2)
    with pytest.raises(ValueError):
        validate_tree(parse_tree("X3"), ps)
    with pytest.raises(ValueError):
        validate_tree(parse_tree("(NEG_JOIN X1 X2)"), ps)
    # both construct, so the arity check itself must reject them
    with pytest.raises(ValueError, match="children, expected"):
        validate_tree(Node("X1", (leaf("X1"), leaf("X2"))), ps)
    with pytest.raises(ValueError, match="children, expected"):
        validate_tree(Node(JOIN), ps)


def test_a_node_carries_its_summary_from_construction():
    # built bottom-up like size and depth, before anything expresses the tree
    pair = (leaf("X1"), leaf("~X2"))
    assert Node(JOIN, pair).summary == (3, 1, 1, 1, False)
    assert Node(NEG_JOIN, pair).summary == (3, 1, 2, 1, True)
    assert parse_tree("J1").summary == (0, 0, 0, 0, False)


def test_text_of_a_tree_nested_past_the_recursion_limit_round_trips():
    depth = 5_000
    text = "(JOIN " * depth + "X1" + " X1)" * depth
    tree = parse_tree(text)
    assert tree.depth == depth
    assert repr(tree) == text
