#!/usr/bin/env python3
"""End-to-end completion demo.

Samples a chordal graph whose edge lengths come from an actual sphere
configuration, completes the missing distances through the clique tree,
verifies the target conditions and realizes the completed matrix as kissing
spheres. Then shows the failure mode: a chordless cycle with the adversarial
length assignment, where every clique is feasible but the graph is refused.

Exits 1 when the realizable instance is not completed, when its completion
misses a target condition or is not realized, or when the 5-cycle is not
refused.
"""

import argparse
import sys

import numpy as np

from kissgeo.completion import (
    NOT_CHORDAL,
    LengthGraph,
    clique_feasible,
    complete_chordal,
    is_chordal,
    non_chordal_witness,
    verify_target_matrix,
)
from kissgeo.embed import RealizationError, construct_embedding
from kissgeo.kissing import Sphere, distance
from kissgeo.numkernel import GramInfeasibleError


def sample_instance(rng, vertices, n):
    spheres = [
        Sphere(tuple(2.0 * rng.normal(size=n - 1)), float(np.exp(rng.uniform(-1, 1))))
        for _ in range(vertices)
    ]
    edges = set()
    cliques = [[0]]
    for v in range(1, vertices):
        base = cliques[rng.integers(len(cliques))]
        take = int(rng.integers(1, min(len(base), 3) + 1))
        picked = sorted(rng.choice(base, size=take, replace=False).tolist())
        for u in picked:
            edges.add((u, v))
        cliques.append(picked + [v])
    lengths = tuple((u, v, distance(spheres[u], spheres[v])) for u, v in sorted(edges))
    return LengthGraph(vertices, lengths)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=8)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    graph = sample_instance(rng, args.vertices, args.n)
    print(f"chordal instance on {graph.vertex_count} vertices, {len(graph.edges)} edges")
    tree = is_chordal(graph).tree
    print(f"maximal cliques: {tree.cliques}")

    failures = []
    result = complete_chordal(graph, args.n)
    print(f"verdict: {result.verdict}")
    if not result.completed:
        failures.append(f"realizable instance not completed: {result.witness}")
    else:
        known = len(graph.edges)
        total = graph.vertex_count * (graph.vertex_count - 1) // 2
        print(f"filled in {total - known} of {total} off-diagonal entries")
        report = verify_target_matrix(result.full_matrix, graph, args.n)
        print(f"target conditions satisfied: {report.satisfied}")
        if not report.satisfied:
            failures.append("completion misses the target: " + "; ".join(report.failures))
        try:
            spheres = construct_embedding(result.full_matrix, args.n)
            print(f"realized as {len(spheres)} kissing spheres")
        except (GramInfeasibleError, RealizationError) as exc:
            failures.append(f"completion not realized: {exc}")
        with np.printoptions(precision=4, suppress=True):
            print(result.full_matrix)

    print("\nnon-chordal refusal:")
    cycle = LengthGraph(5, tuple((i, (i + 1) % 5, 1.0) for i in range(5)))
    witness = non_chordal_witness(cycle)
    feasible, _ = clique_feasible(witness, args.n)
    print(f"adversarial lengths on a 5-cycle: {[(u, v, l) for u, v, l in witness.edges]}")
    print(f"every clique feasible: {feasible}")
    refusal = complete_chordal(witness, args.n).verdict
    print(f"completion verdict: {refusal}")
    if refusal != NOT_CHORDAL:
        failures.append(f"5-cycle witness not refused: {refusal}")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
