import json
import math
import warnings

import numpy as np
import pytest

from gen import coincident_sphere_set, graph_from_configuration, random_sphere_set
from kissgeo import completion, numkernel
from kissgeo.cli import main
from kissgeo.kissing import distance_matrix

TANGENT_PAIR = {"n": 2, "spheres": [{"t": [0.0], "phi": 1.0}, {"t": [1.0], "phi": 1.0}]}
TANGENT_TRIPLE_MATRIX = {"d2": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]}
FOUR_CYCLE = {
    "vertices": 4,
    "edges": [
        {"u": 0, "v": 1, "len": 1.0},
        {"u": 1, "v": 2, "len": 0.0},
        {"u": 2, "v": 3, "len": 0.0},
        {"u": 0, "v": 3, "len": 0.0},
    ],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def off_cone_graph():
    """A realizable graph at n = 3 whose clique (1, 5, 6, 18) has a Gram
    factor row inside the factor's residual check but off the null cone."""
    graph, _ = graph_from_configuration(np.random.default_rng(257), 38, 3)
    return graph


class TestDist:
    def test_tangent_pair(self, tmp_path, capsys):
        path = write(tmp_path, "pair.json", TANGENT_PAIR)
        code, out, _ = run(capsys, ["dist", path])
        assert code == 0
        assert json.loads(out) == {"n": 2, "d": [[0.0, 1.0], [1.0, 0.0]]}

    def test_deterministic_output(self, tmp_path, capsys):
        payload = {
            "n": 2,
            "spheres": [{"t": [0.123456789123456789], "phi": 1.7}, {"h": 0.3}],
        }
        path = write(tmp_path, "set.json", payload)
        _, first, _ = run(capsys, ["dist", path])
        _, second, _ = run(capsys, ["dist", path])
        assert first == second

    def test_output_round_trips_losslessly(self, tmp_path, capsys):
        payload = {
            "n": 2,
            "spheres": [{"t": [1.0 / 3.0], "phi": 0.1}, {"t": [-2.0 / 7.0], "phi": 3.7}],
        }
        path = write(tmp_path, "set.json", payload)
        _, out, _ = run(capsys, ["dist", path])
        d = json.loads(out)["d"]
        from kissgeo.kissing import Sphere, distance

        want = distance(Sphere((1.0 / 3.0,), 0.1), Sphere((-2.0 / 7.0,), 3.7))
        assert d[0][1] == want


class TestClassify:
    def test_pair_classes(self, tmp_path, capsys):
        payload = {
            "n": 2,
            "spheres": [
                {"t": [0.0], "phi": 1.0},
                {"t": [1.0], "phi": 1.0},
                {"t": [5.0], "phi": 1.0},
            ],
        }
        path = write(tmp_path, "set.json", payload)
        code, out, _ = run(capsys, ["classify", path])
        assert code == 0
        pairs = {(p["i"], p["j"]): p["class"] for p in json.loads(out)["pairs"]}
        assert pairs[(0, 1)] == "Tangent"
        assert pairs[(0, 2)] == "Disjoint"


class TestCheck:
    def test_kissing_embeddable(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", TANGENT_TRIPLE_MATRIX)
        code, out, _ = run(capsys, ["check", path, "--mode", "kissing", "--n", "2"])
        assert code == 0
        assert json.loads(out)["verdict"] == "Embeddable"

    def test_kissing_rejected_on_the_line(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", TANGENT_TRIPLE_MATRIX)
        code, out, _ = run(
            capsys, ["check", path, "--mode", "kissing", "--n", "1", "--method", "minors"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "NotEmbeddable"
        assert payload["witness"] is not None

    def test_minor_witness_payload(self, tmp_path, capsys):
        # Two tangent triples at distance zero from each other: the first
        # triple and two of the second make the first subset, in lexicographic
        # order, with a positive signed minor.
        triple = np.array(TANGENT_TRIPLE_MATRIX["d2"])
        d2 = np.block([[triple, np.zeros((3, 3))], [np.zeros((3, 3)), triple]])
        path = write(tmp_path, "m.json", {"d2": d2.tolist()})
        code, out, _ = run(
            capsys, ["check", path, "--mode", "kissing", "--n", "1", "--method", "minors"]
        )
        assert code == 1
        witness = json.loads(out)["witness"]
        assert witness["type"] == "minor"
        assert witness["subset"] == [0, 1, 2, 3, 4]
        assert witness["signed_minor"] > 0.0

    def test_euclidean_triangle(self, tmp_path, capsys):
        triangle = {"d2": [[0.0, 9.0, 25.0], [9.0, 0.0, 16.0], [25.0, 16.0, 0.0]]}
        path = write(tmp_path, "m.json", triangle)
        code, out, _ = run(capsys, ["check", path, "--mode", "euclidean", "--n", "2"])
        assert code == 0
        code, out, _ = run(capsys, ["check", path, "--mode", "euclidean", "--n", "1"])
        assert code == 1

    def test_spheres_mode_needs_marker(self, tmp_path, capsys):
        separations = {"d2": [[-1.0, 1.0], [1.0, -1.0]], "diag": -1}
        path = write(tmp_path, "s.json", separations)
        code, out, _ = run(capsys, ["check", path, "--mode", "spheres", "--n", "2"])
        assert code == 0
        bare = {"d2": [[-1.0, 1.0], [1.0, -1.0]]}
        path = write(tmp_path, "bare.json", bare)
        code, _, err = run(capsys, ["check", path, "--mode", "spheres", "--n", "2"])
        assert code == 2
        assert "diag" in err

    @pytest.mark.parametrize("kind, exact", [("not_embeddable", False), ("rank_n_plus_2", True)])
    def test_exact_key_only_on_interlacing_route(self, tmp_path, capsys, kind, exact):
        from bench.inputs import N, not_embeddable_matrix

        rng = np.random.default_rng(6)
        if kind == "not_embeddable":
            # High rank: refused from the sketch's Ritz values, lower-bound counts.
            d2 = not_embeddable_matrix(rng, 200).d2
        else:
            # Rank n + 2: the Weyl sketch decides, exact counts.
            d2 = distance_matrix(coincident_sphere_set(rng, 200, N + 1, planes=2, shared=20))
        path = write(tmp_path, "m.json", {"d2": d2.tolist()})
        code, out, _ = run(capsys, ["check", path, "--mode", "kissing", "--n", str(N)])
        assert code == 1
        witness = json.loads(out)["witness"]
        assert ("exact" in witness) is not exact
        assert witness.get("exact", True) is exact
        assert witness["inertia"][0] + witness["inertia"][1] > N + 1

    def test_asymmetric_input_is_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"d2": [[0.0, 1.0], [2.0, 0.0]]})
        code, _, err = run(capsys, ["check", path, "--mode", "kissing", "--n", "2"])
        assert code == 2
        assert "symmetric" in err

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e10])
    def test_symmetry_contract_is_relative(self, tmp_path, capsys, scale):
        from gen import random_sphere_set

        from kissgeo.embed import check_kissing

        d2 = scale * distance_matrix(random_sphere_set(np.random.default_rng(11), 12, 3))
        # One ulp of asymmetry is rounding, accepted at every scale.
        d2[2, 7] = np.nextafter(d2[2, 7], np.inf)
        path = write(tmp_path, "ulp.json", {"d2": d2.tolist()})
        code, out, _ = run(capsys, ["check", path, "--mode", "kissing", "--n", "3"])
        assert code == 0
        assert json.loads(out)["verdict"] == check_kissing(d2, 3).verdict
        code, out, _ = run(capsys, ["embed", path, "--n", "3"])
        assert code == 0
        # A factor of two is an asymmetry at every scale, refused as input.
        d2[2, 7] *= 2.0
        path = write(tmp_path, "bad.json", {"d2": d2.tolist()})
        code, _, err = run(capsys, ["check", path, "--mode", "kissing", "--n", "3"])
        assert code == 2
        assert "input error" in err and "symmetric" in err


class TestEmbed:
    def test_recovers_spheres(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", TANGENT_TRIPLE_MATRIX)
        code, out, _ = run(capsys, ["embed", path, "--n", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert len(payload["spheres"]) == 3

    def test_not_embeddable_exit(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", TANGENT_TRIPLE_MATRIX)
        code, out, _ = run(capsys, ["embed", path, "--n", "1"])
        assert code == 1
        assert json.loads(out)["verdict"] == "NotEmbeddable"

    @pytest.mark.parametrize("source", ["tangent_triple", "bench_m200"])
    def test_refusal_is_the_check_payload(self, tmp_path, capsys, source):
        if source == "tangent_triple":
            payload, n = TANGENT_TRIPLE_MATRIX, 1
        else:
            # Large enough that certified_eigen tries its sketch first.
            from bench.inputs import N, not_embeddable_matrix

            matrix = not_embeddable_matrix(np.random.default_rng(6), 200)
            payload, n = {"d2": matrix.d2.tolist()}, N
        path = write(tmp_path, "m.json", payload)
        embed_code, embed_out, _ = run(capsys, ["embed", path, "--n", str(n)])
        check_code, check_out, _ = run(capsys, ["check", path, "--n", str(n), "--mode", "kissing"])
        assert embed_code == check_code == 1
        assert embed_out == check_out

    @pytest.mark.parametrize("n, expected", [(2, 0), (1, 1)])
    def test_one_eigensolve_per_call(self, tmp_path, capsys, monkeypatch, n, expected):
        calls = []
        real = numkernel.certified_eigen
        monkeypatch.setattr(numkernel, "certified_eigen",
                            lambda *args: calls.append(args) or real(*args))
        path = write(tmp_path, "m.json", TANGENT_TRIPLE_MATRIX)
        code, _, _ = run(capsys, ["embed", path, "--n", str(n)])
        assert code == expected
        assert len(calls) == 1

    def test_refusal_runs_the_signature_rule_once(self, tmp_path, capsys, monkeypatch):
        """The refusal payload is read from the factorization's error; the
        signature rule is not run a second time."""
        calls = []
        real = numkernel.signature_violation
        monkeypatch.setattr(numkernel, "signature_violation",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        path = write(tmp_path, "m.json", TANGENT_TRIPLE_MATRIX)
        code, out, _ = run(capsys, ["embed", path, "--n", "1"])
        assert code == 1
        assert json.loads(out)["witness"]["requirement"] == "at most 1 negative eigenvalues"
        assert len(calls) == 1

    def test_off_cone_factor_row_is_numerical(self, tmp_path, capsys):
        graph = off_cone_graph()
        clique = (1, 5, 6, 18)
        d2 = [[graph.length(u, v) ** 2 if u != v else 0.0 for v in clique] for u in clique]
        path = write(tmp_path, "clique.json", {"d2": d2})
        code, out, err = run(capsys, ["embed", path, "--n", "3"])
        assert code == 3
        assert json.loads(out)["error"].startswith("factor row 1 is not a future null vector: ")
        assert "numerical failure" in err

    def test_realization_failure_is_numerical(self, tmp_path, capsys):
        gap = {"d2": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]}
        path = write(tmp_path, "gap.json", gap)
        code, out, err = run(capsys, ["embed", path, "--n", "2"])
        assert code == 3
        assert "error" in json.loads(out)
        assert "zero factor rows" in err


class TestLightcone:
    def test_forward_and_back(self, tmp_path, capsys):
        path = write(tmp_path, "pair.json", TANGENT_PAIR)
        code, out, _ = run(capsys, ["lightcone", path])
        assert code == 0
        vectors = json.loads(out)
        assert vectors["n"] == 2
        vec_path = write(tmp_path, "vec.json", vectors)
        code, out, _ = run(capsys, ["lightcone", vec_path, "--inverse"])
        assert code == 0
        recovered = json.loads(out)["spheres"]
        assert recovered[0]["t"][0] == pytest.approx(0.0, abs=1e-12)
        assert recovered[0]["phi"] == pytest.approx(1.0, rel=1e-12)

    def test_inverse_of_the_plane_image(self, tmp_path, capsys):
        half = math.sqrt(2.0) / 2.0
        path = write(tmp_path, "plane.json", {"n": 2, "vectors": [[-half, 0.0, half]]})
        code, out, _ = run(capsys, ["lightcone", path, "--inverse"])
        assert code == 0
        (plane,) = json.loads(out)["spheres"]
        assert set(plane) == {"h"}
        assert abs(plane["h"] - 1.0) <= 1e-15

    def test_inverse_refuses_the_first_off_cone_vector(self, tmp_path, capsys):
        half = math.sqrt(2.0) / 2.0
        vectors = [[half, 0.0, half], [1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]
        path = write(tmp_path, "off.json", {"n": 2, "vectors": vectors})
        code, out, err = run(capsys, ["lightcone", path, "--inverse"])
        assert (code, out) == (2, "")
        assert err == "kissgeo: invalid request: vector 1: vector is not null to tolerance\n"

    @pytest.mark.parametrize("row, reason", [
        ([0.0, 0.0, 0.0], "the zero vector is not on the future lightcone"),
        ([0.5, 0.0, -0.5], "vector is not future-directed"),
        ([1e160, 0.0, 2e160], "vector is not null to tolerance"),
    ])
    def test_inverse_names_the_refused_row(self, tmp_path, capsys, row, reason):
        half = math.sqrt(2.0) / 2.0
        vectors = [[half, 0.0, half], [half, 0.0, half], row]
        path = write(tmp_path, "refused.json", {"n": 2, "vectors": vectors})
        code, out, err = run(capsys, ["lightcone", path, "--inverse"])
        assert (code, out) == (2, "")
        assert err == f"kissgeo: invalid request: vector 2: {reason}\n"


class TestSpheresCommand:
    def test_separation_output_feeds_check(self, tmp_path, capsys):
        payload = {"n": 2, "spheres": [{"c": [0.0, 0.0], "r": 1.0}, {"c": [2.0, 0.0], "r": 1.0}]}
        path = write(tmp_path, "s.json", payload)
        code, out, _ = run(capsys, ["spheres", path])
        assert code == 0
        result = json.loads(out)
        assert result["d2"] == [[-1.0, 1.0], [1.0, -1.0]]
        assert result["diag"] == -1
        assert len(result["hyperboloid"]) == 2
        sep_path = write(tmp_path, "sep.json", result)
        code, out, _ = run(capsys, ["check", sep_path, "--mode", "spheres", "--n", "2"])
        assert code == 0


class TestComplete:
    def test_path_graph(self, tmp_path, capsys):
        graph = {
            "vertices": 3,
            "edges": [{"u": 0, "v": 1, "len": 1.0}, {"u": 1, "v": 2, "len": 1.0}],
        }
        path = write(tmp_path, "g.json", graph)
        code, out, _ = run(capsys, ["complete", path, "--n", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Completed"
        d = np.array(payload["d2"])
        assert d.shape == (3, 3)
        assert d[0, 1] == pytest.approx(1.0, rel=1e-9)
        assert len(payload["embedding"]) == 3

    def test_failed_target_verification_exits_1(self, tmp_path, capsys, monkeypatch):
        report = completion.TargetReport(True, False, True, True, ("edge (0, 1) off",))
        monkeypatch.setattr(completion, "verify_target_matrix", lambda *args: report)
        graph = {"vertices": 3, "edges": [{"u": 0, "v": 1, "len": 1.0}, {"u": 1, "v": 2, "len": 1.0}]}
        code, out, _ = run(capsys, ["complete", write(tmp_path, "g.json", graph), "--n", "2"])
        assert code == 1
        assert json.loads(out) == {"verdict": "Infeasible",
                                   "diagnostic": "target verification failed: edge (0, 1) off"}

    @pytest.mark.parametrize("length", [1e-10, 1e10])
    def test_path_graph_at_extreme_scales(self, tmp_path, capsys, length):
        graph = {
            "vertices": 3,
            "edges": [{"u": 0, "v": 1, "len": length}, {"u": 1, "v": 2, "len": length}],
        }
        path = write(tmp_path, "g.json", graph)
        code, out, _ = run(capsys, ["complete", path, "--n", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Completed"
        assert payload["d2"][1][2] == pytest.approx(length * length, rel=1e-9)

    def test_four_cycle_witness_lengths(self, tmp_path, capsys):
        path = write(tmp_path, "c4.json", FOUR_CYCLE)
        code, out, _ = run(capsys, ["complete", path, "--n", "2"])
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "NotChordal"
        assert len(payload["witness_cycle"]) == 4

    def test_infeasible_clique_payload(self, tmp_path, capsys):
        graph = {"vertices": 3, "edges": [
            {"u": u, "v": v, "len": 1.0} for u, v in ((0, 1), (0, 2), (1, 2))
        ]}
        path = write(tmp_path, "triangle.json", graph)
        code, out, _ = run(capsys, ["complete", path, "--n", "1"])
        assert code == 1
        payload = json.loads(out)
        assert set(payload) == {"verdict", "clique", "certificate", "diagnostic"}
        assert payload["verdict"] == "Infeasible"
        assert payload["clique"] == [0, 1, 2]
        assert payload["certificate"]["verdict"] == "NotEmbeddable"
        assert payload["certificate"]["n"] == 1
        assert payload["diagnostic"] == payload["certificate"]["witness"]["requirement"]

    def test_off_cone_factor_row_is_a_clique_verdict(self, tmp_path, capsys):
        graph = off_cone_graph()
        edges = [{"u": u, "v": v, "len": w} for u, v, w in graph.edges]
        path = write(tmp_path, "graph.json", {"vertices": graph.vertex_count, "edges": edges})
        code, out, _ = run(capsys, ["complete", path, "--n", "3"])
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "Infeasible"
        assert payload["clique"] == [1, 5, 6, 18]
        assert payload["certificate"]["verdict"] == "Embeddable"
        assert payload["diagnostic"].startswith("factor row 1 is not a future null vector: ")

    def test_all_zero_triangle_completes_to_zeros(self, tmp_path, capsys):
        # Its placed vectors lie on one ray, so their spheres share one
        # tangent point and every distance is an exact zero.
        graph = {"vertices": 3, "edges": [
            {"u": u, "v": v, "len": 0.0} for u, v in ((0, 1), (0, 2), (1, 2))
        ]}
        path = write(tmp_path, "zero_triangle.json", graph)
        code, out, _ = run(capsys, ["complete", path, "--n", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Completed"
        assert payload["d2"] == [[0.0] * 3] * 3

    def test_diagnostic_prints_plain_floats(self, tmp_path, capsys):
        # The zero-pair graph below: its refused alignment names a residual.
        lengths = ((0, 1, 0.0), (0, 2, 1.0), (1, 2, 2.0), (0, 3, 1.0), (1, 3, 3.0))
        graph = {"vertices": 4, "edges": [{"u": u, "v": v, "len": w} for u, v, w in lengths]}
        path = write(tmp_path, "zero_pair.json", graph)
        code, out, _ = run(capsys, ["complete", path, "--n", "2"])
        assert code == 1
        diagnostic = json.loads(out)["diagnostic"]
        assert "alignment residual " in diagnostic
        assert "np.float64" not in diagnostic

    def test_infeasible_gluing_payload(self, tmp_path, capsys):
        # Every clique is feasible, but the zero-distance pair (0, 1) would
        # need diameter ratio 4 in clique (0, 1, 2) and 9 in clique (0, 1, 3).
        lengths = ((0, 1, 0.0), (0, 2, 1.0), (1, 2, 2.0), (0, 3, 1.0), (1, 3, 3.0))
        graph = {"vertices": 4, "edges": [{"u": u, "v": v, "len": w} for u, v, w in lengths]}
        path = write(tmp_path, "zero_pair.json", graph)
        code, out, _ = run(capsys, ["complete", path, "--n", "2"])
        assert code == 1
        payload = json.loads(out)
        assert set(payload) == {"verdict", "diagnostic"}
        assert payload["verdict"] == "Infeasible"
        assert "separator (0, 1)" in payload["diagnostic"]


class TestWitness:
    def test_four_cycle(self, tmp_path, capsys):
        path = write(tmp_path, "c4.json", FOUR_CYCLE)
        code, out, _ = run(capsys, ["witness", path])
        assert code == 0
        payload = json.loads(out)
        lengths = sorted(edge["len"] for edge in payload["edges"])
        assert lengths == [0.0, 0.0, 0.0, 1.0]
        assert len(payload["cycle"]) == 4

    def test_chordal_input(self, tmp_path, capsys):
        graph = {"vertices": 3, "edges": [{"u": 0, "v": 1, "len": 1.0}]}
        path = write(tmp_path, "g.json", graph)
        code, out, _ = run(capsys, ["witness", path])
        assert code == 1
        assert "chordal" in json.loads(out)["error"]


class TestExtremeScales:
    """Valid inputs whose diameter or radius products underflow, and minors
    whose powers overflow: none of them may end in a traceback."""

    def test_classify_tiny_pair(self, tmp_path, capsys):
        spheres = [{"t": [1, 0], "phi": 1e-170}, {"t": [2, 0], "phi": 1e-170}]
        path = write(tmp_path, "tiny.json", {"n": 3, "spheres": spheres})
        code, out, _ = run(capsys, ["classify", path])
        assert code == 0
        assert json.loads(out)["pairs"] == [{"i": 0, "j": 1, "class": "Disjoint"}]

    def test_dist_tiny_shared_tangent_point(self, tmp_path, capsys):
        spheres = [{"t": [0], "phi": 1e-200}, {"t": [0], "phi": 1e-200}, {"t": [1], "phi": 1}]
        path = write(tmp_path, "tiny.json", {"n": 2, "spheres": spheres})
        code, out, _ = run(capsys, ["dist", path])
        assert code == 0
        d = json.loads(out)["d"]
        assert d[0][:2] == d[1][:2] == [0.0, 0.0]
        assert d[0][2] == d[1][2] == pytest.approx(1e100, rel=1e-15)

    def test_spheres_tiny_radii(self, tmp_path, capsys):
        # Co-scaled circles have a finite separation; circles of radius
        # 1e-200 one unit apart have one near 5e399, which no document holds.
        near = [{"c": [0, 0], "r": 1e-200}, {"c": [3e-200, 0], "r": 1e-200}]
        path = write(tmp_path, "near.json", {"n": 2, "spheres": near})
        code, out, _ = run(capsys, ["spheres", path])
        assert code == 0
        assert json.loads(out)["d2"][0][1] == pytest.approx(3.5, rel=1e-15)
        far = [{"c": [0, 0], "r": 1e-200}, {"c": [1, 0], "r": 1e-200}]
        path = write(tmp_path, "far.json", {"n": 2, "spheres": far})
        code, out, err = run(capsys, ["spheres", path])
        assert (code, out) == (2, "")
        assert err == "kissgeo: invalid request: Out of range float values are not JSON compliant\n"

    def test_sizes_far_apart(self, tmp_path, capsys):
        spheres = [{"t": [0], "phi": 1e-300}, {"t": [1], "phi": 1e30}]
        path = write(tmp_path, "apart.json", {"n": 2, "spheres": spheres})
        code, out, _ = run(capsys, ["classify", path])
        assert code == 0
        assert json.loads(out)["pairs"] == [{"i": 0, "j": 1, "class": "Disjoint"}]
        code, out, _ = run(capsys, ["dist", path])
        assert code == 0
        assert json.loads(out)["d"][0][1] == pytest.approx(1e135, rel=1e-15)
        circles = [{"c": [0, 0], "r": 1e100}, {"c": [1e160, 0], "r": 1e100}]
        path = write(tmp_path, "circles.json", {"n": 2, "spheres": circles})
        code, out, _ = run(capsys, ["spheres", path])
        assert code == 0
        assert json.loads(out)["d2"][0][1] == pytest.approx(5e119, rel=1e-15)

    def test_dist_coordinates_far_beyond_the_diameter(self, tmp_path, capsys):
        path = write(tmp_path, "far.json", {"n": 2, "spheres": [{"t": [1e10], "phi": 1e-299}]})
        code, out, _ = run(capsys, ["dist", path])
        assert (code, json.loads(out)["d"]) == (0, [[0.0]])

    def test_minor_witness_beyond_the_float_range(self, tmp_path, capsys):
        # Two tangent triples at distance zero from each other: at 2^1000 their
        # refusing 5 x 5 minor is inf, so it is written for D / 2^1000.
        triple = np.ones((3, 3)) - np.eye(3)
        d = np.block([[triple, np.zeros((3, 3))], [np.zeros((3, 3)), triple]])
        path = write(tmp_path, "huge.json", {"d2": (2.0**1000 * d).tolist()})
        code, out, _ = run(capsys, ["check", path, "--mode", "kissing", "--n", "1", "--method", "minors"])
        assert code == 1
        witness = json.loads(out)["witness"]
        assert witness == {"type": "minor", "subset": [0, 1, 2, 3, 4], "signed_minor": 2.0, "exponent": 5000}

    def test_minors_at_a_huge_scale(self, tmp_path, capsys):
        d = 1e25 * distance_matrix(random_sphere_set(np.random.default_rng(1), 12, 3))
        path = write(tmp_path, "huge.json", {"d2": d.tolist()})
        for method in ("minors", "inertia"):
            code, out, _ = run(capsys, ["check", path, "--mode", "kissing", "--n", "3", "--method", method])
            assert code == 0
            assert json.loads(out)["verdict"] == "Embeddable"
        circles = [{"c": [1e15 * i, 0, 0], "r": 1e-15} for i in range(12)]
        path = write(tmp_path, "circles.json", {"n": 3, "spheres": circles})
        code, out, _ = run(capsys, ["spheres", path])
        assert code == 0
        path = write(tmp_path, "separations.json", json.loads(out))
        code, out, _ = run(capsys, ["check", path, "--mode", "spheres", "--n", "3", "--method", "minors"])
        assert code == 0
        assert json.loads(out)["verdict"] == "Embeddable"


class TestInputHandling:
    def test_stdin(self, capsys, monkeypatch):
        import io as stdlib_io

        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(json.dumps(TANGENT_PAIR)))
        code, out, _ = run(capsys, ["dist", "-"])
        assert code == 0
        assert json.loads(out)["d"][0][1] == 1.0

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["dist", str(path)])
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["dist", "/nonexistent/file.json"])
        assert code == 2

    def test_schema_violation(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"n": 2, "spheres": [{"t": [0.0]}]})
        code, _, err = run(capsys, ["dist", path])
        assert code == 2

    @pytest.mark.parametrize("command, payload", [
        (["check", "--mode", "kissing", "--n", "2"], {"d2": [[0, 10**400], [10**400, 0]]}),
        (["dist"], {"n": 2, "spheres": [{"t": [10**400], "phi": 1.0}, {"h": 1.0}]}),
        (["complete", "--n", "2"], {"vertices": 2, "edges": [{"u": 0, "v": 1, "len": 10**400}]}),
    ])
    def test_integer_beyond_float_range(self, tmp_path, capsys, command, payload):
        path = write(tmp_path, "huge.json", payload)
        code, out, err = run(capsys, [command[0], path, *command[1:]])
        assert code == 2
        assert out == ""
        assert "input error" in err

    @pytest.mark.parametrize("raw, reason", [
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
        (b'{"d2": [[0, 1], [1, 0]], "labels": ["\xe9", "b"]}', "'utf-8' codec can't decode byte 0xe9"),
    ], ids=["deeply_nested", "invalid_utf8"])
    def test_unreadable_document(self, tmp_path, capsys, raw, reason):
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        code, out, err = run(capsys, ["embed", "--n", "2", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"kissgeo: input error: {reason}")

    @pytest.mark.parametrize("edge, reason", [
        ({"u": 0, "v": 3, "len": 1.0}, "edge (0, 3) out of range"),
        ({"u": 1, "v": 1, "len": 1.0}, "self-loops are not allowed"),
        ({"u": 1, "v": 0, "len": 2.0}, "duplicate edge (0, 1)"),
    ])
    def test_graph_refused_by_length_graph(self, tmp_path, capsys, edge, reason):
        graph = {"vertices": 3, "edges": [{"u": 0, "v": 1, "len": 1.0}, edge]}
        path = write(tmp_path, "graph.json", graph)
        code, out, err = run(capsys, ["complete", path, "--n", "2"])
        assert (code, out) == (2, "")
        assert err == f"kissgeo: input error: {reason}\n"

    def test_distance_overflow_is_one_line(self, tmp_path, capsys):
        # The squared tangent gap overflows and the diameter product underflows.
        spheres = [{"t": [1e200, 0], "phi": 1e-200}, {"t": [-1e200, 0], "phi": 1e-200}]
        path = write(tmp_path, "huge.json", {"n": 3, "spheres": spheres})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["dist", path])
        assert (code, out) == (2, "")
        assert err.startswith("kissgeo: invalid request: ")
        assert err.count("\n") == 1

    def test_boolean_graph_endpoint(self, tmp_path, capsys):
        path = write(tmp_path, "bool.json", {"vertices": 2, "edges": [{"u": True, "v": 0, "len": 1}]})
        code, out, err = run(capsys, ["complete", path, "--n", "2"])
        assert code == 2
        assert out == ""
        assert "input error" in err

    @pytest.mark.parametrize("flag", ["--eig-zero", "--residual"])
    def test_no_tolerance_option(self, tmp_path, capsys, flag):
        path = write(tmp_path, "pair.json", {"d2": [[0, 1], [1, 0]]})
        with pytest.raises(SystemExit) as exc:
            main([flag, "1e-9", "embed", "--n", "2", path])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["dist"], ["classify"], ["check", "--mode", "kissing", "--n", "2"], ["embed", "--n", "2"],
        ["lightcone"], ["spheres"], ["complete", "--n", "2"], ["witness"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("flag", ["-o", "--output"])
    def test_no_output_option(self, tmp_path, capsys, command, flag):
        path = write(tmp_path, "pair.json", TANGENT_PAIR)
        out_path = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([*command, path, flag, str(out_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out_path.exists()

    def test_numerical_failure_document_goes_to_stdout(self, tmp_path, capsys):
        path = write(tmp_path, "deg.json", {"d2": [[0, 0, 0], [0, 0, 1], [0, 1, 0]]})
        code, out, err = run(capsys, ["embed", "--n", "2", path])
        reason = "degenerate zero-distance pattern: zero factor rows (0,)"
        assert (code, out) == (3, json.dumps({"error": reason}) + "\n")
        assert err == f"kissgeo: numerical failure: {reason}\n"
