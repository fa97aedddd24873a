import random

import pytest

from tamperest.scc import cycle_within, strongly_connected_components


def _random_digraph(rng):
    """Adjacency lists over ``0 .. n-1`` with random density, self-loops and edge order."""
    n = rng.randint(1, 12)
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    graph = {u: [v for v in range(n) if rng.random() < density] for u in range(n)}
    for targets in graph.values():
        rng.shuffle(targets)
    return graph


def _distances(graph, start) -> dict:
    seen = {start: 0}
    order = [start]
    for node in order:
        for nxt in graph[node]:
            if nxt not in seen:
                seen[nxt] = seen[node] + 1
                order.append(nxt)
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_cycle_within_is_the_same_search_restricted_to_the_component(seed):
    rng = random.Random(seed)
    cyclic_nodes = acyclic_nodes = 0
    for _ in range(150):
        graph = _random_digraph(rng)
        components = strongly_connected_components(sorted(graph), graph.__getitem__)
        component_of = {node: frozenset(c) for c in components for node in c}
        for node in graph:
            members = component_of[node]

            def inside(q):
                return [v for v in graph[q] if v in members]

            found = cycle_within(node, graph.__getitem__)
            assert found == cycle_within(node, inside)
            on_cycle = len(members) > 1 or node in graph[node]
            if not on_cycle:
                assert found is None
                acyclic_nodes += 1
                continue
            cyclic_nodes += 1
            assert found[0] == found[-1] == node
            assert all(b in graph[a] for a, b in zip(found, found[1:]))
            assert set(found) <= members
            distances = _distances(graph, node)
            shortest = min(distances[u] + 1 for u in graph if node in graph[u] and u in distances)
            assert len(found) - 1 == shortest
    assert cyclic_nodes and acyclic_nodes


def test_self_loop_and_lone_node():
    assert cycle_within("a", {"a": ["b", "a"], "b": []}.__getitem__) == ["a", "a"]
    assert cycle_within("a", {"a": ["b"], "b": []}.__getitem__) is None
