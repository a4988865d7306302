import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effgravity.graph
from effgravity import (
    UNREACHABLE,
    Graph,
    ParseError,
    ParseReport,
    hop_distances,
    load_edge_list,
    parse_edge_list,
    topology_stats,
)
from conftest import SEVEN_NODE_DEGREES
from helpers import (
    edges_by_rows,
    engine_graphs,
    from_edges_by_lists,
    hop_distance_totals_per_source,
    oracle_graphs,
    parse_edge_list_by_set,
    random_graph,
)


def test_parse_triangle():
    graph, report = parse_edge_list("1 2\n1 5\n2 5")
    assert graph.n == 3
    assert graph.m == 3
    assert report == ParseReport(0, 0)


def test_parse_seven_node_degrees(seven_node_graph):
    assert tuple(seven_node_graph.degrees) == SEVEN_NODE_DEGREES
    assert seven_node_graph.n == 7
    assert seven_node_graph.m == 10


def test_parse_drops_loops_and_merges_duplicates():
    graph, report = parse_edge_list("1 1\n1 2\n1 2")
    assert graph.n == 2
    assert graph.m == 1
    assert report.loops_dropped == 1
    assert report.duplicates_merged == 1


def test_parse_duplicate_detects_reversed_orientation():
    graph, report = parse_edge_list("a b\nb a")
    assert graph.m == 1
    assert report.duplicates_merged == 1


def test_parse_comma_and_whitespace_tokens():
    graph, _ = parse_edge_list("a,b\nb, c\n  c   d  ")
    assert graph.n == 4
    assert graph.m == 3


def test_parse_accepts_bytes_and_open_files(tmp_path):
    graph, _ = parse_edge_list(b"1 2\n2 3\n")
    assert graph.n == 3
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n2 3\n")
    with open(path) as handle:
        from_file, _ = parse_edge_list(handle)
    assert from_file.labels == graph.labels


def test_parse_ignores_a_leading_byte_order_mark():
    graph, _ = parse_edge_list(b"\xef\xbb\xbf1 2\n1 3\n")
    assert graph.labels == ("1", "2", "3")


def test_parse_ignores_a_byte_order_mark_in_decoded_input(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"\xef\xbb\xbf1 2\n1 3\n")
    with open(path, encoding="utf-8") as handle:
        from_handle, _ = parse_edge_list(handle)
    assert from_handle.labels == ("1", "2", "3")
    from_text, _ = parse_edge_list(path.read_text(encoding="utf-8"))
    assert from_text.labels == ("1", "2", "3")
    # only the first line can carry a byte-order mark; later it is label text
    later, _ = parse_edge_list("1 2\n\ufeff3 1\n")
    assert later.labels == ("1", "2", "\ufeff3")


def test_load_ignores_a_byte_order_mark_before_a_comment(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"\xef\xbb\xbf# header\n1 2\n1 3\n")
    from_file, report = load_edge_list(path)
    assert from_file.labels == ("1", "2", "3")
    assert from_file.m == 2
    assert report == ParseReport(0, 0)


def test_parse_skips_comments_and_blank_lines():
    graph, _ = parse_edge_list("# comment\n% other comment\n\n1 2\n")
    assert graph.n == 2
    assert graph.m == 1


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("1 2\n1 2 3\n")


def test_parse_empty_input_is_an_error():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("# only comments\n")


def test_first_appearance_indexing():
    graph, _ = parse_edge_list("b a\nc a\n")
    assert graph.labels == ("b", "a", "c")


def test_degree_accessors(seven_node_graph):
    assert seven_node_graph.degrees[0] == 6
    assert seven_node_graph.degrees[6] == 1
    with pytest.raises(ValueError, match=r"nodes must be in \[0, 7\), got range \[7, 7\]"):
        seven_node_graph.neighbors(7)
    # a bool would pass as node 0 or 1; a float or string is not an index
    for node in (True, np.True_, 1.0, "1"):
        with pytest.raises(ValueError, match="node index must be an integer"):
            seven_node_graph.neighbors(node)
    for node in (True, 2.0):
        with pytest.raises(ValueError, match="node index must be an integer"):
            hop_distances(seven_node_graph, node)
    assert hop_distances(seven_node_graph, np.int8(2)).tolist() == hop_distances(
        seven_node_graph, 2
    ).tolist()
    assert seven_node_graph.neighbors(np.int64(6)).tolist() == [0]


def test_loop_only_node_is_isolated_with_degree_zero():
    graph, _ = parse_edge_list("1 1\n2 3\n")
    assert graph.degrees[0] == 0


def test_from_edges_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


@pytest.mark.parametrize("labels", [["a", "b"], ["a", "b", "c", "d"]])
def test_from_edges_rejects_a_label_count_other_than_n(labels):
    with pytest.raises(ValueError, match=f"expected 3 labels, got {len(labels)}"):
        Graph.from_edges(3, [(0, 1)], labels)


def assert_same_graph(graph, oracle):
    assert graph.indptr.tobytes() == oracle.indptr.tobytes()
    assert graph.indices.tobytes() == oracle.indices.tobytes()
    assert graph.labels == oracle.labels


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (5, 0), (1, 1), (1, 0)], r"edge \(5, 0\) out of range for 3 nodes"),
        ([(0, 1), (-1, 2), (0, 1)], r"edge \(-1, 2\) out of range for 3 nodes"),
        ([(0, 1), (7, 7), (2, 2)], r"edge \(7, 7\) out of range for 3 nodes"),
        ([(0, 1), (2, 2), (9, 1), (1, 0)], r"self-loop at node 2"),
        ([(0, 1), (1, 0), (2, 2), (9, 9)], r"duplicate edge \(1, 0\)"),
        # the first repeat in input order, not the first repeated pair
        ([(0, 1), (1, 2), (2, 1), (0, 1)], r"duplicate edge \(2, 1\)"),
    ],
)
def test_from_edges_reports_the_first_fault_in_input_order(edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        from_edges_by_lists(3, edges)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph.from_edges(3, edges)


def test_from_edges_rejects_a_repeated_label():
    # two nodes named alike could not be told apart in a table, and their
    # edge would be written as a self-loop that parses back to nothing
    with pytest.raises(ValueError, match="^label 'a' names more than one node$"):
        Graph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "a", "b"])


@pytest.mark.parametrize(
    "edges",
    [[(0, 1.5)], [(0, 1), (1.0, 2.0)], [("0", "1")], np.array([[0.0, 2.0]]), [(0, 1, 2)]],
)
def test_from_edges_rejects_non_integer_endpoints(edges):
    # a float endpoint must not be truncated to an index
    with pytest.raises(ValueError, match="integer"):
        Graph.from_edges(3, edges)


def test_from_edges_accepts_numpy_integer_pairs():
    edges = np.array([[2, 0], [1, 2]], dtype=np.int32)
    assert_same_graph(Graph.from_edges(3, edges), from_edges_by_lists(3, edges.tolist()))
    assert list(Graph.from_edges(3, iter(edges.tolist())).edges()) == [(0, 2), (1, 2)]


@pytest.mark.parametrize("graph", engine_graphs(), ids=lambda g: f"n{g.n}-m{g.m}")
def test_builder_matches_set_oracle_on_engine_graph_edges(graph):
    rng = np.random.default_rng(graph.n + graph.m)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    assert_same_graph(Graph.from_edges(graph.n, edges), from_edges_by_lists(graph.n, edges))
    assert_same_graph(graph, from_edges_by_lists(graph.n, graph.edges()))
    assert list(graph.edges()) == list(edges_by_rows(graph))
    # the same edges as text, with every third one repeated reversed and a
    # self-loop on every fifth node
    lines = [f"{u} {v}" for u, v in edges]
    lines += [f"{v},{u}" for u, v in edges[::3]] + [f"{u} {u}" for u in range(0, graph.n, 5)]
    text = "\n".join(lines[i] for i in rng.permutation(len(lines)))
    parsed, report = parse_edge_list(text)
    oracle, oracle_report = parse_edge_list_by_set(text)
    assert_same_graph(parsed, oracle)
    assert report == oracle_report


LABELS = st.sampled_from(["a", "b", "c", "1", "2", "10", "x-y", "\u00e9"])
PADDING = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def edge_list_lines(draw):
    kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
    if kind == "edge":
        # labels from a small pool, so loops, repeats and both orientations are common
        separator = draw(st.sampled_from([" ", ",", "\t", ", ", " ,", "   "]))
        return draw(PADDING) + draw(LABELS) + separator + draw(LABELS) + draw(PADDING)
    if kind == "comment":
        prefix = draw(st.sampled_from(["#", "%", " #", "\t%"]))
        return prefix + draw(st.text(alphabet="ab1 ,#%", max_size=6))
    return draw(PADDING)


MALFORMED = st.tuples(st.integers(0, 25), st.sampled_from(["a", "a b c", "1,2,3", " a,,b c"]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.lists(edge_list_lines(), max_size=25),
    st.sampled_from(["\n", "\r\n"]),
    st.none() | MALFORMED,
)
def test_parse_matches_set_oracle_on_messy_text(lines, newline, malformed):
    if malformed is not None:
        position, line = malformed
        lines.insert(position, line)
    text = newline.join(lines)
    try:
        oracle, oracle_report = parse_edge_list_by_set(text)
    except ParseError as exc:
        with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
            parse_edge_list(text)
        return
    graph, report = parse_edge_list(text)
    assert_same_graph(graph, oracle)
    assert report == oracle_report
    assert list(graph.edges()) == list(edges_by_rows(oracle))


# spans several chunks at every chunk size below: a byte-order mark,
# comments, loops, and repeats (some reversed) of edges first seen chunks
# earlier
CHUNKED_TEXT = (
    "\ufeffa b\nb c\n# note\nc,a\nd d\n\nb a\ne f\n% x\nf\te\na a\ng b\nc a\nh, g\ne d\nb c\n"
)


@pytest.mark.parametrize("chunk", [2, 3, 5])
def test_parse_in_chunks_matches_set_oracle(monkeypatch, chunk):
    monkeypatch.setattr(effgravity.graph, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    random_text = "\n".join(f"{u} {v}" for u, v in rng.integers(0, 12, size=(60, 2)).tolist())
    for text in (CHUNKED_TEXT, random_text):
        # the oracle does not skip a byte-order mark
        oracle, oracle_report = parse_edge_list_by_set(text.removeprefix("\ufeff"))
        for source in (text, text.encode(), text.splitlines()):
            graph, report = parse_edge_list(source)
            assert_same_graph(graph, oracle)
            assert report == oracle_report
            assert list(graph.edges()) == list(edges_by_rows(oracle))
    # the bad line comes after the first chunk at every chunk size
    malformed = "a b\nb c\nc d\n# d e f\nd e\ne f g\nf g\n"
    with pytest.raises(ParseError) as expected:
        parse_edge_list_by_set(malformed)
    with pytest.raises(ParseError, match=f"^{re.escape(str(expected.value))}$") as raised:
        parse_edge_list(malformed)
    assert raised.value.line_number == expected.value.line_number == 6


def test_parse_memory_grows_with_labels_not_tokens():
    # 80k edges among 20k nodes: holding every token string until all
    # labels were known took about 270 bytes per line at the peak
    lines = 80_000
    pairs = np.random.default_rng(5).integers(0, 20_000, size=(lines, 2))
    text = "".join(f"{u} {v}\n" for u, v in pairs.tolist())
    tracemalloc.start()
    try:
        parse_edge_list(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * lines


def test_hop_distances_seven_node(seven_node_graph):
    row = hop_distances(seven_node_graph, 1)  # node labeled "2"
    assert list(row) == [1, 0, 2, 2, 1, 2, 2]


def test_hop_distance_source_is_zero(seven_node_graph):
    for s in range(seven_node_graph.n):
        assert hop_distances(seven_node_graph, s)[s] == 0


def test_hop_distance_cross_component_is_unreachable():
    graph, _ = parse_edge_list("a b\nc d\n")
    row = hop_distances(graph, 0)
    assert row[2] == UNREACHABLE
    assert row[3] == UNREACHABLE


def test_degree_sum_twice_edge_count_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        graph = random_graph(rng, int(rng.integers(1, 30)), 0.3)
        assert int(graph.degrees.sum()) == 2 * graph.m


def test_hop_distances_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(23)
    for _ in range(10):
        graph = random_graph(rng, int(rng.integers(2, 64)), 0.1)
        rows = np.stack([hop_distances(graph, s) for s in range(graph.n)])
        assert np.array_equal(rows, rows.T)
        # neighbors sit at distance exactly 1
        for u in range(graph.n):
            for v in graph.neighbors(u):
                assert rows[u, v] == 1
        finite = rows.astype(float)
        finite[finite < 0] = np.inf
        for k in range(graph.n):
            via = finite[:, k, None] + finite[None, k, :]
            assert np.all(finite <= via + 1e-9)


def edge_list_text(graph):
    # one line per edge, endpoints in index order, as Graph.edges yields them
    return "".join(f"{graph.labels[u]} {graph.labels[v]}\n" for u, v in graph.edges())


def test_serialize_round_trip(seven_node_graph):
    text = edge_list_text(seven_node_graph)
    reparsed, report = parse_edge_list(text)
    assert report == ParseReport(0, 0)
    original = {
        seven_node_graph.labels[u]: sorted(
            seven_node_graph.labels[v] for v in seven_node_graph.neighbors(u)
        )
        for u in range(seven_node_graph.n)
    }
    round_tripped = {
        reparsed.labels[u]: sorted(
            reparsed.labels[v] for v in reparsed.neighbors(u)
        )
        for u in range(reparsed.n)
    }
    assert original == round_tripped


def test_serialize_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        graph = random_graph(rng, n, 0.4)
        if graph.m == 0:
            continue
        reparsed, _ = parse_edge_list(edge_list_text(graph))
        by_label = lambda g: {
            g.labels[u]: sorted(g.labels[v] for v in g.neighbors(u))
            for u in range(g.n)
            if g.degrees[u] > 0
        }
        assert by_label(graph) == by_label(reparsed)


def test_serialize_round_trip_of_comment_prefixed_labels():
    graph, _ = parse_edge_list("a #b\na c\n")
    text = edge_list_text(graph)
    assert text == "a #b\na c\n"
    reparsed, _ = parse_edge_list(text)
    assert (reparsed.n, reparsed.m) == (3, 2)
    assert reparsed.labels == ("a", "#b", "c")
    # only a byte-order mark that starts the first line is stripped; one
    # that starts the second label of a line stays part of it
    bom, _ = parse_edge_list("\uff41 \ufeffa\n")
    assert bom.labels == ("\uff41", "\ufeffa")
    assert edge_list_text(bom) == "\uff41 \ufeffa\n"


def test_topology_stats_complete_graph():
    graph = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    stats = topology_stats(graph)
    assert stats.clustering == pytest.approx(1.0)
    assert stats.avg_distance == pytest.approx(1.0)
    assert stats.avg_degree == pytest.approx(3.0)
    assert stats.unreachable_pair_fraction == 0.0
    # regular graph: degree variance is zero, coefficient undefined
    assert stats.assortativity is None


def test_topology_stats_star_clustering_zero():
    graph = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    stats = topology_stats(graph)
    assert stats.clustering == pytest.approx(0.0)
    assert stats.assortativity == pytest.approx(-1.0)


def test_topology_stats_counts_unreachable_pairs():
    graph, _ = parse_edge_list("a b\nc d\n")
    stats = topology_stats(graph)
    assert stats.avg_distance == pytest.approx(1.0)
    # 8 of the 12 ordered pairs cross components
    assert stats.unreachable_pair_fraction == pytest.approx(8 / 12)


def test_topology_stats_empty_graph_rejected():
    with pytest.raises(ValueError):
        topology_stats(Graph.from_edges(0, []))


def test_topology_stats_distances_match_per_source_oracle():
    graphs = oracle_graphs()
    assert any(np.any(g.degrees == 0) for g in graphs)  # isolated nodes covered
    for graph in graphs:
        total, reachable = hop_distance_totals_per_source(graph)
        ordered = graph.n * (graph.n - 1)
        stats = topology_stats(graph)
        assert stats.avg_distance == (total / reachable if reachable else 0.0)
        assert stats.unreachable_pair_fraction == (
            1.0 - reachable / ordered if ordered else 0.0
        )


def test_topology_stats_seven_node(seven_node_graph):
    stats = topology_stats(seven_node_graph)
    assert stats.avg_degree == pytest.approx(20 / 7)
    # 42 ordered pairs: the 20 adjacent ones at hop 1, the rest at hop 2
    assert stats.avg_distance == pytest.approx((20 + 22 * 2) / 42)


def test_graph_is_read_only(seven_node_graph):
    with pytest.raises(ValueError):
        seven_node_graph.indices[0] = 3
    with pytest.raises(ValueError):
        seven_node_graph.degrees[0] = 3
    with pytest.raises(ValueError):
        seven_node_graph.hop_sums.gravity[0] = 1.0


@pytest.mark.parametrize("shape", [(5,), (5, 1), (3, 2), (4, 3)])
def test_bits_reads_words_and_rows_of_words(shape):
    # bit i of a row of words is bit i % 64 of word i // 64
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    words = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    rows = words.reshape(shape[0], -1)
    for count in (0, 1, 63, 64 * rows.shape[1] - 1, 64 * rows.shape[1]):
        want = [
            [int(row[i // 64]) >> (i % 64) & 1 for i in range(count)] for row in rows
        ]
        got = effgravity.graph._bits(words, count)
        assert got.dtype == np.uint8 and got.tolist() == want
