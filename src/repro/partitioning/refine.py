"""Fiduccia–Mattheyses boundary refinement for bisections.

After each uncoarsening step the projected bisection is improved by FM
passes: nodes are tentatively moved to the other side in best-gain-first
order (each node at most once per pass), and the best prefix of the move
sequence is kept.  Balance is enforced as hard per-side maxima, which is
how the compiler expresses "a partition holds at most 256 STEs".

The inner loop works on a flat CSR copy of the adjacency (built once per
refinement): initial gains come from one vectorised bincount over the
edge list, then moves pick candidates through a lazy max-heap with O(1)
gain lookups and delta-update each neighbour in place — no per-move dict
scans, and no per-move numpy calls either, since typical neighbour lists
are far too short to amortise array overhead.  Selection order is
deterministic — highest current gain first, ties broken by lowest node
index — which is what the compiler's parallel/serial equivalence
guarantee rests on.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.partitioning.graph import PartitionGraph

#: ``(indptr, indices, weights)`` CSR view of a graph's adjacency.
AdjacencyCSR = Tuple[np.ndarray, np.ndarray, np.ndarray]


def adjacency_csr(graph: PartitionGraph) -> AdjacencyCSR:
    """Flatten ``graph``'s adjacency dicts into CSR arrays (built once per
    refinement so every FM pass is pure array work)."""
    degrees = np.fromiter(
        (len(adjacency) for adjacency in graph.adjacency),
        dtype=np.int64,
        count=graph.node_count,
    )
    indptr = np.zeros(graph.node_count + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    weights = np.empty(int(indptr[-1]), dtype=np.int64)
    cursor = 0
    for adjacency in graph.adjacency:
        step = len(adjacency)
        indices[cursor : cursor + step] = list(adjacency.keys())
        weights[cursor : cursor + step] = list(adjacency.values())
        cursor += step
    return indptr, indices, weights


def _initial_gains(
    assignment: np.ndarray, csr: AdjacencyCSR
) -> np.ndarray:
    indptr, indices, weights = csr
    node_count = assignment.shape[0]
    edge_source = np.repeat(
        np.arange(node_count, dtype=np.int64), np.diff(indptr)
    )
    if edge_source.size == 0:
        return np.zeros(node_count, dtype=np.int64)
    crossing = assignment[indices] != assignment[edge_source]
    signed = np.where(crossing, weights, -weights)
    return np.bincount(
        edge_source, weights=signed, minlength=node_count
    ).astype(np.int64)


def fm_pass(
    graph: PartitionGraph,
    assignment: List[int],
    side_weights: List[int],
    max_side_weights: Sequence[int],
    csr: Optional[AdjacencyCSR] = None,
) -> int:
    """One FM pass, mutating ``assignment``/``side_weights`` in place.

    Returns the cut improvement achieved (>= 0); zero means the pass found
    nothing and refinement has converged.
    """
    node_count = graph.node_count
    if node_count == 0:
        return 0
    if csr is None:
        csr = adjacency_csr(graph)
    sides = list(assignment)
    node_weights = graph.node_weights
    gains = _initial_gains(np.asarray(sides, dtype=np.int64), csr).tolist()
    indptr = csr[0].tolist()
    indices = csr[1].tolist()
    edge_weights = csr[2].tolist()
    # Lazy max-heap over (-gain, node).  Gain updates push fresh entries;
    # a popped entry whose priority disagrees with the gains list is
    # stale and skipped (the fresh entry is elsewhere in the heap).
    locked = [False] * node_count
    heap = [(-gain, node) for node, gain in enumerate(gains)]
    heapq.heapify(heap)
    move_sequence: List[int] = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0
    weights_now = [int(side_weights[0]), int(side_weights[1])]
    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        negative_gain, node = heappop(heap)
        if locked[node]:
            continue
        gain = gains[node]
        if -negative_gain != gain:
            continue  # stale entry; the refreshed one is still queued
        source = sides[node]
        target = 1 - source
        weight = node_weights[node]
        locked[node] = True
        if weights_now[target] + weight > max_side_weights[target]:
            continue  # cannot ever move this pass; stays locked
        sides[node] = target
        weights_now[source] -= weight
        weights_now[target] += weight
        move_sequence.append(node)
        cumulative += gain
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(move_sequence)
        # Delta-update neighbour gains: an edge to the side the node left
        # became crossing (+2w); an edge to the side it joined is now
        # internal (-2w).
        for position in range(indptr[node], indptr[node + 1]):
            neighbour = indices[position]
            if locked[neighbour]:
                continue
            edge_weight = edge_weights[position]
            if sides[neighbour] == source:
                updated = gains[neighbour] + 2 * edge_weight
            else:
                updated = gains[neighbour] - 2 * edge_weight
            gains[neighbour] = updated
            heappush(heap, (-updated, neighbour))
    # Roll back moves past the best prefix.
    for node in move_sequence[best_prefix:]:
        side = sides[node]
        weight = node_weights[node]
        sides[node] = 1 - side
        weights_now[side] -= weight
        weights_now[1 - side] += weight
    assignment[:] = sides
    side_weights[0] = weights_now[0]
    side_weights[1] = weights_now[1]
    return best_cumulative


def refine_bisection(
    graph: PartitionGraph,
    assignment: List[int],
    max_side_weights: Sequence[int],
    *,
    max_passes: int = 8,
) -> None:
    """Run FM passes until convergence (or ``max_passes``), in place."""
    side_weights = [0, 0]
    for node, side in enumerate(assignment):
        side_weights[side] += graph.node_weights[node]
    csr = adjacency_csr(graph)
    for _ in range(max_passes):
        if fm_pass(graph, assignment, side_weights, max_side_weights, csr) == 0:
            break
