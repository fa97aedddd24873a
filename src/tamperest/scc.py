"""Strongly connected components (iterative Tarjan) for cycle analyses."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional


def strongly_connected_components(
    roots: Iterable[Hashable], successors: Callable[[Hashable], Iterable[Hashable]]
) -> List[list]:
    """SCCs of every node reachable from `roots` through `successors`.

    No node set is fixed in advance: the graph is explored on demand, so a
    caller restricts it by filtering what `successors` returns.  Components
    come out in reverse topological order; node order inside a component
    follows the traversal.
    """
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: List[list] = []
    counter = 0

    for root in roots:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def cycle_within(start, successors: Callable[[Hashable], Iterable[Hashable]]) -> Optional[list]:
    """A shortest cycle ``[start, ..., start]`` through `start`, or None when there is none.

    Breadth-first from `start`; it stops at the first edge back to it.  A
    node on a path from `start` back to itself lies in the strongly
    connected component of `start`, and a node outside it never leads back,
    so the path is the same whether or not `successors` is restricted to
    that component.
    """
    parent = {start: None}
    order = [start]
    for node in order:
        for nxt in successors(node):
            if nxt == start:
                path = [start]
                while node is not None:
                    path.append(node)
                    node = parent[node]
                path.reverse()
                return path
            if nxt not in parent:
                parent[nxt] = node
                order.append(nxt)
    return None
