"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not computed: invariance and closed forms at
1e-9, null defects at 1e-12, construction and completion round trips at 1e-7.
"""

import json
import math
from itertools import combinations

import numpy as np
import pytest

from gen import (
    cycle_graph,
    graph_from_configuration,
    random_inversion,
    random_plane,
    random_sphere,
    random_sphere_set,
    round_trip_close,
)
from kissgeo.cli import main as cli_main
from kissgeo.completion import (
    clique_feasible,
    complete_chordal,
    non_chordal_witness,
    verify_target_matrix,
)
from kissgeo.embed import (
    RealizationError,
    cayley_menger,
    check_euclidean,
    check_kissing,
    construct_embedding,
    schur_embedding,
    verify_schur_relations,
)
from kissgeo.kissing import (
    Dilation,
    Plane,
    Reflection,
    Sphere,
    Translation,
    apply_generator,
    distance,
    distance_matrix,
    distance_sq,
    invert,
    normalize_pair,
)
from kissgeo.lightcone import (
    from_lightcone,
    minkowski_inner,
    to_lightcone,
)
from kissgeo.spheres import (
    EuclideanSphere,
    hyperboloid_embed,
    kissing_cone_embed,
    separation,
    separation_matrix,
)


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def random_generator(rng, n, avoid):
    kind = rng.integers(4)
    if kind == 0:
        return random_inversion(rng, n, avoid=avoid)
    if kind == 1:
        normal = rng.normal(size=n - 1)
        return Reflection(normal=tuple(normal), offset=float(rng.normal()))
    if kind == 2:
        return Dilation(float(np.exp(rng.uniform(-1.0, 1.0))))
    return Translation(tuple(rng.normal(size=n - 1)))


def test_criterion_1_moebius_invariance(rng):
    worst = 0.0
    for _ in range(1000):
        p, q = random_sphere(rng, 3), random_sphere(rng, 3)
        g = random_generator(rng, 3, avoid=[p.tangent, q.tangent])
        before = distance(p, q)
        after = distance(apply_generator(p, g), apply_generator(q, g))
        worst = max(worst, abs(after - before) / (1.0 + before))
    report(1, worst <= 1e-9, f"max relative deviation {worst:.3e} over 1000 pairs (<= 1e-9)")


def test_criterion_2_closed_forms_match_normalization(rng):
    worst_finite = 0.0
    for _ in range(1000):
        p, q = random_sphere(rng, 3), random_sphere(rng, 3)
        s = normalize_pair(p, q)
        tp, tq = invert(p, s), invert(q, s)
        assert abs(tp.diameter - 1.0) <= 1e-9 and abs(tq.diameter - 1.0) <= 1e-9
        measured = math.dist(tp.tangent, tq.tangent)
        closed = distance(p, q)
        worst_finite = max(worst_finite, abs(measured - closed) / (1.0 + closed))
    worst_plane = 0.0
    for _ in range(100):
        plane, ball = random_plane(rng), random_sphere(rng, 3)
        s = normalize_pair(plane, ball)
        tp, tq = invert(plane, s), invert(ball, s)
        assert abs(tp.diameter - 1.0) <= 1e-9 and abs(tq.diameter - 1.0) <= 1e-9
        measured = math.dist(tp.tangent, tq.tangent)
        closed = distance(plane, ball)
        worst_plane = max(worst_plane, abs(measured - closed) / (1.0 + closed))
    ok = worst_finite <= 1e-9 and worst_plane <= 1e-9
    report(2, ok, f"normalize-then-measure deviations: finite {worst_finite:.3e}, "
                  f"hyperplane {worst_plane:.3e} (<= 1e-9)")


def test_criterion_3_lightcone_isometry(rng):
    worst_iso = worst_null = worst_trip = 0.0
    for _ in range(500):
        p = random_plane(rng) if rng.uniform() < 0.2 else random_sphere(rng, 3)
        q = random_plane(rng) if rng.uniform() < 0.2 else random_sphere(rng, 3)
        x, y = to_lightcone(p, 3), to_lightcone(q, 3)
        for v in (x, y):
            worst_null = max(worst_null, abs(minkowski_inner(v, v)) / max(1.0, float(v @ v)))
            assert v[-1] > 0.0
        want = distance_sq(p, q)
        worst_iso = max(worst_iso, abs(-minkowski_inner(x, y) - want) / (1.0 + want))
        back = from_lightcone(x)
        if isinstance(p, Plane):
            worst_trip = max(worst_trip, abs(back.height - p.height) / p.height)
        else:
            worst_trip = max(
                worst_trip,
                abs(back.diameter - p.diameter) / p.diameter,
                max(
                    (abs(a - b) for a, b in zip(back.tangent, p.tangent)),
                    default=0.0,
                ),
            )
    ok = worst_iso <= 1e-9 and worst_null <= 1e-12 and worst_trip <= 1e-9
    report(3, ok, f"isometry {worst_iso:.3e} (<= 1e-9), null defect {worst_null:.3e} "
                  f"(<= 1e-12), round trip {worst_trip:.3e} (<= 1e-9)")


def adversarial_matrices(rng):
    yield np.zeros((3, 3))
    gap = np.zeros((4, 4))
    gap[0, 1] = gap[1, 0] = 1.0
    yield gap
    triple = np.ones((3, 3)) - np.eye(3)
    yield np.block([[triple, np.zeros((3, 3))], [np.zeros((3, 3)), triple]])
    for _ in range(497):
        order = int(rng.integers(2, 9))
        if rng.uniform() < 0.5:
            d = distance_matrix(random_sphere_set(rng, order, int(rng.integers(2, 5))))
        else:
            raw = np.abs(rng.normal(size=(order, order)))
            d = (raw + raw.T) / 2.0
            np.fill_diagonal(d, 0.0)
        if rng.uniform() < 0.4:
            mask = rng.uniform(size=(order, order)) < 0.35
            mask = mask | mask.T
            d = d.copy()
            d[mask] = 0.0
            np.fill_diagonal(d, 0.0)
        yield d


def test_criterion_4_minors_inertia_agreement(rng):
    count = 0
    for d in adversarial_matrices(rng):
        count += 1
        for n in (1, 2, 4):
            assert (
                check_kissing(d, n, "minors").verdict
                == check_kissing(d, n, "inertia").verdict
            ), f"kissing disagreement at n={n} on\n{d}"
            assert (
                check_euclidean(d, n, "minors").verdict
                == check_euclidean(d, n, "inertia").verdict
            ), f"euclidean disagreement at n={n} on\n{d}"
    report(4, count >= 500, f"minors == inertia on {count} matrices of order <= 8, n in (1, 2, 4)")


def test_criterion_5_embedding_round_trip(rng):
    trips = schur_trips = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        size = int(rng.integers(2, 9))
        d = distance_matrix(random_sphere_set(rng, size, n, plane_chance=0.1))
        assert check_kissing(d, n).embeddable
        spheres = construct_embedding(d, n)
        assert round_trip_close(distance_matrix(spheres), d)
        trips += 1
        column = np.delete(d[:, size - 1], size - 1)
        if size >= 2 and column.size and column.min() > 1e-9:
            other = schur_embedding(d, n, (0, size - 1))
            assert round_trip_close(distance_matrix(other), d)
            schur_trips += 1
    ok = trips >= 200 and schur_trips >= 100
    report(5, ok, f"{trips} construction round trips and {schur_trips} Schur round trips at 1e-7")


def test_criterion_6_degeneration_bridges(rng):
    worst_unit = 0.0
    worst_border = 0.0
    for _ in range(50):
        points = rng.normal(size=(5, 2)) * 2.0
        spheres = [Sphere(tuple(p), 1.0) for p in points]
        euclid = np.array([[float(np.sum((a - b) ** 2)) for b in points] for a in points])
        d_unit = distance_matrix(spheres)
        worst_unit = max(
            worst_unit,
            max(
                abs(math.sqrt(d_unit[i, j]) - math.dist(points[i], points[j]))
                for i in range(5)
                for j in range(i + 1, 5)
            ),
        )
        with_plane = distance_matrix(spheres + [Plane(1.0)])
        worst_border = max(
            worst_border, float(np.abs(with_plane - cayley_menger(euclid)).max())
        )
    triangle = np.array([[0.0, 9.0, 25.0], [9.0, 0.0, 16.0], [25.0, 16.0, 0.0]])
    verdicts_ok = (
        check_euclidean(triangle, 2).embeddable
        and not check_euclidean(triangle, 1).embeddable
    )
    ok = worst_unit <= 1e-12 and worst_border <= 1e-12 and verdicts_ok
    report(6, ok, f"unit-diameter deviation {worst_unit:.3e} (<= 1e-12), bordered-matrix "
                  f"deviation {worst_border:.3e} (<= 1e-12), 3-4-5 verdicts {verdicts_ok}")


def test_criterion_7_schur_relations(rng):
    checked = 0
    while checked < 200:
        size = int(rng.integers(3, 8))
        n = int(rng.integers(2, 5))
        d = distance_matrix(random_sphere_set(rng, size, n))
        pivot = (0, size - 1)
        column = np.delete(d[:, size - 1], size - 1)
        if column.min() <= 1e-9 or d[0, size - 1] <= 1e-9:
            continue
        rep = verify_schur_relations(d, pivot)
        assert rep.det_ok and rep.rank_ok, f"relation failure on\n{d}"
        assert rep.inertia_full == (
            rep.inertia_comp.positive + 1,
            rep.inertia_comp.negative + 1,
            rep.inertia_comp.zero,
        )
        checked += 1
    report(7, True, f"determinant, inertia-shift, and rank relations on {checked} instances at 1e-7")


def test_criterion_8_completion(rng, tmp_path):
    completed = 0
    worst_edge = 0.0
    for _ in range(100):
        size = int(rng.integers(3, 9))
        n = int(rng.integers(2, 4))
        graph, _ = graph_from_configuration(rng, size, n)
        result = complete_chordal(graph, n)
        assert result.verdict == "Completed", f"completion failed on {graph}"
        assert verify_target_matrix(result.full_matrix, graph, n).satisfied
        for u, v, length in graph.edges:
            worst_edge = max(
                worst_edge,
                abs(result.full_matrix[u, v] - length**2) / (1.0 + length**2),
            )
        completed += 1
    witness_ok = True
    for length in (4, 5):
        witness = non_chordal_witness(cycle_graph(length))
        feasible, _ = clique_feasible(witness, 2)
        witness_ok = witness_ok and feasible
        witness_ok = witness_ok and complete_chordal(witness, 2).verdict == "NotChordal"
    # Exit-1 path through the CLI on the 4-cycle witness instance.
    witness = non_chordal_witness(cycle_graph(4))
    payload = {
        "vertices": witness.vertex_count,
        "edges": [{"u": u, "v": v, "len": length} for u, v, length in witness.edges],
    }
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(payload))
    exit_code = cli_main(["complete", str(path), "--n", "2"])
    witness_ok = witness_ok and exit_code == 1
    ok = completed >= 100 and worst_edge <= 1e-7 and witness_ok
    report(8, ok, f"{completed} completions, edge deviation {worst_edge:.3e} (<= 1e-7), "
                  f"witness instances {witness_ok}")


def test_criterion_9_sphere_model(rng):
    worst_self = worst_sep = worst_cone = 0.0
    for _ in range(100):
        spheres = [
            EuclideanSphere(tuple(rng.normal(size=2) * 2.0), float(np.exp(rng.uniform(-1, 1))))
            for _ in range(5)
        ]
        vectors = [hyperboloid_embed(s) for s in spheres]
        sep = separation_matrix(spheres)
        for i in range(5):
            worst_self = max(worst_self, abs(minkowski_inner(vectors[i], vectors[i]) - 1.0))
            for j in range(i + 1, 5):
                worst_sep = max(
                    worst_sep,
                    abs(-minkowski_inner(vectors[i], vectors[j]) - sep[i, j])
                    / (1.0 + abs(sep[i, j])),
                )
    thresholds_ok = (
        separation(EuclideanSphere((0.0,), 1.0), EuclideanSphere((2.0,), 1.0)) == 1.0
        and separation(EuclideanSphere((0.0, 0.0), 2.0), EuclideanSphere((1.0, 0.0), 1.0)) == -1.0
        and separation(EuclideanSphere((0.0,), 3.0), EuclideanSphere((5.0,), 4.0)) == 0.0
    )
    anchor = hyperboloid_embed(EuclideanSphere((0.0, 0.0), 1.0))
    for angle in np.linspace(0.0, 2.0 * math.pi, 17)[:-1]:
        radius = 0.5 + float(rng.uniform()) * 1.5
        tangent = EuclideanSphere(
            ((1.0 + radius) * math.cos(angle), (1.0 + radius) * math.sin(angle)), radius
        )
        cone = kissing_cone_embed(anchor, hyperboloid_embed(tangent))
        worst_cone = max(worst_cone, abs(minkowski_inner(cone, cone)))
    ok = (
        worst_self <= 1e-12
        and worst_sep <= 1e-9
        and thresholds_ok
        and worst_cone <= 1e-12
    )
    report(9, ok, f"self-product defect {worst_self:.3e} (<= 1e-12), separation "
                  f"{worst_sep:.3e} (<= 1e-9), thresholds exact {thresholds_ok}, "
                  f"cone null defect {worst_cone:.3e} (<= 1e-12)")


def test_criterion_10_boundary_gap():
    gap = np.zeros((4, 4))
    gap[0, 1] = gap[1, 0] = 1.0
    checks_pass = all(
        check_kissing(gap, n, method).embeddable
        for n in (1, 2, 3)
        for method in ("minors", "inertia")
    )
    with pytest.raises(RealizationError) as err:
        construct_embedding(gap, 2)
    ok = checks_pass and "zero factor rows" in str(err.value)
    report(10, ok, "algebraic certificates pass at n >= 1 while construction "
                   f"reports the realization failure ({err.value})")
