import csv
import io
import math

import numpy as np
import pytest

from effgravity import (
    Graph,
    effective_distance_matrix,
    effective_distances,
    parse_edge_list,
    write_matrix_csv,
)
from helpers import effective_distance_bruteforce, random_connected_graph, random_graph


def test_seven_node_row_from_node_2(seven_node_graph):
    row = effective_distances(seven_node_graph, 1)
    expected = [2.0000, math.inf, 4.0000, 4.0000, 2.0000, 4.5850, 4.5850]
    for got, want in zip(row, expected):
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, abs=1e-3)


def test_seven_node_asymmetry(seven_node_graph):
    matrix = effective_distance_matrix(seven_node_graph)
    assert matrix[1, 6] == pytest.approx(4.5850, abs=1e-3)  # node 2 -> node 7
    assert matrix[6, 1] == pytest.approx(3.5850, abs=1e-3)  # node 7 -> node 2


def test_degree_one_source_direct_edge_is_distance_one():
    graph, _ = parse_edge_list("a b\nb c\nc d\nb d")
    # "a" has degree 1: certain first step
    assert effective_distances(graph, 0)[1] == pytest.approx(1.0)


def test_two_node_path_both_directions_one():
    graph, _ = parse_edge_list("u v")
    assert effective_distances(graph, 0)[1] == pytest.approx(1.0)
    assert effective_distances(graph, 1)[0] == pytest.approx(1.0)


def test_self_distance_is_infinite(seven_node_graph):
    matrix = effective_distance_matrix(seven_node_graph)
    assert np.all(np.isinf(np.diag(matrix)))


def test_isolated_source_row_all_infinite():
    graph, _ = parse_edge_list("1 1\n2 3\n")
    assert np.all(np.isinf(effective_distances(graph, 0)))


def test_unreachable_targets_get_sentinel():
    graph, _ = parse_edge_list("a b\nc d\n")
    row = effective_distances(graph, 0)
    assert np.isinf(row[2]) and np.isinf(row[3])


def test_matrix_rows_match_single_source(seven_node_graph):
    matrix = effective_distance_matrix(seven_node_graph)
    for s in range(seven_node_graph.n):
        assert np.array_equal(matrix[s], effective_distances(seven_node_graph, s), equal_nan=True)


def test_matches_simple_path_enumeration_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        graph = random_connected_graph(rng, n, 0.3)
        got = effective_distance_matrix(graph)
        want = effective_distance_bruteforce(graph)
        np.fill_diagonal(want, np.inf)
        assert np.allclose(got, want, atol=1e-9, equal_nan=False)


def test_oracle_equivalence_includes_disconnected_graphs():
    rng = np.random.default_rng(53)
    for _ in range(20):
        graph = random_graph(rng, int(rng.integers(2, 9)), 0.25)
        got = effective_distance_matrix(graph)
        want = effective_distance_bruteforce(graph)
        np.fill_diagonal(want, np.inf)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.allclose(got[finite], want[finite], atol=1e-9)


def test_first_hop_lower_bound():
    rng = np.random.default_rng(71)
    for _ in range(20):
        graph = random_connected_graph(rng, int(rng.integers(2, 12)), 0.3)
        matrix = effective_distance_matrix(graph)
        for i in range(graph.n):
            bound = 1.0 + math.log2(graph.degrees[i])
            finite = np.isfinite(matrix[i])
            assert np.all(matrix[i][finite] >= bound - 1e-12)


@pytest.mark.parametrize("cycle_len", [3, 5, 8])
def test_cycle_distance_is_one_plus_hops(cycle_len):
    edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    graph = Graph.from_edges(cycle_len, edges)
    matrix = effective_distance_matrix(graph)
    for i in range(cycle_len):
        for j in range(cycle_len):
            if i == j:
                continue
            hops = min((j - i) % cycle_len, (i - j) % cycle_len)
            # every node has degree 2, so each hop costs log2(2) = 1
            assert matrix[i, j] == pytest.approx(1.0 + hops)


def test_min_weight_path_is_max_probability_path():
    # the probability of the best walk recovered from the distance must be
    # the maximum product found by enumeration
    rng = np.random.default_rng(91)
    for _ in range(10):
        graph = random_connected_graph(rng, int(rng.integers(3, 8)), 0.4)
        matrix = effective_distance_matrix(graph)
        brute = effective_distance_bruteforce(graph)
        for i in range(graph.n):
            for j in range(graph.n):
                if i == j:
                    continue
                best_product = 2.0 ** (1.0 - brute[i, j])
                assert 2.0 ** (1.0 - matrix[i, j]) == pytest.approx(best_product)


def test_matrix_csv_dump(seven_node_graph):
    matrix = effective_distance_matrix(seven_node_graph)
    buffer = io.StringIO()
    write_matrix_csv(seven_node_graph, matrix, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "source,1,2,3,4,5,6,7"
    assert len(lines) == 8
    row2 = lines[2].split(",")
    assert row2[0] == "2"
    assert row2[2] == "inf"  # self distance
    assert float(row2[1]) == pytest.approx(2.0)


def test_matrix_csv_round_trips_labels_with_a_comma_and_a_quote():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)], labels=["a,b", 'say "hi"', "c"])
    matrix = effective_distance_matrix(graph)
    buffer = io.StringIO()
    write_matrix_csv(graph, matrix, buffer)
    rows = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert rows[0] == ["source", "a,b", 'say "hi"', "c"]
    assert [row[0] for row in rows[1:]] == list(graph.labels)
    assert np.array_equal(np.array([row[1:] for row in rows[1:]], dtype=float), matrix)


def test_matrix_csv_shape_mismatch_rejected(seven_node_graph):
    with pytest.raises(ValueError):
        write_matrix_csv(seven_node_graph, np.zeros((3, 3)), io.StringIO())
