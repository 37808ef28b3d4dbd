"""The benchmark's own tests: tiny smoke runs, the oracle catching corrupted
outputs, and metric names agreeing with BENCHMARK.json."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bench import oracle, run, spec
from bench.inputs import N, chordal_graph, embeddable_matrix, not_embeddable_matrix
from bench.spans import Tracer
from bench.workloads import ROOT, Sizes

TINY = Sizes(dense_m=40, sparse_vertices=60, cli_m=30, cli_vertices=40, setup_samples=1)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace, tmp_path, seed=0):
    return run.run(workload, seed, 1.0, trace, TINY, tmp_path)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, tmp_path):
    for trace, metrics in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        result, report = tiny_run(workload, trace, tmp_path)
        assert report["failures"] == []
        assert report["fail_ratio"] == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: v["unit"] for name, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in metrics
        }
        for entry in run.WORKLOADS[workload].entries:
            assert report[f"{entry}_p50_s"]["samples"] >= 1
    # The traced set-up probe reaches every layer, whatever the workload.
    for name, value in result["metrics"].items():
        if name.endswith((".calls", ".self_s")):
            assert value["value"] > 0, name


def test_benchmark_json_matches_the_metric_spec():
    assert BENCHMARK["end_to_end"] == list(spec.END_TO_END)
    assert BENCHMARK["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in spec.PER_LAYER
    ]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("kissing.distance_matrix", lambda spheres: sum(range(20000)))
    outer = tracer.wrap("embed.construct_embedding", lambda: [inner([1, 2, 3]) for _ in range(3)])
    outer()
    rows = tracer.summary()
    child, parent = rows["kissing.distance_matrix"], rows["embed.construct_embedding"]
    assert child["calls"] == 3 and child["work"] == 3 * 3
    assert parent["self_s"] == pytest.approx(parent["total_s"] - child["total_s"], abs=1e-12)
    assert 0 < parent["self_s"] < parent["total_s"]


def _corrupt_first_sphere(spheres):
    first = spheres[0]
    if hasattr(first, "diameter"):
        spheres[0] = dataclasses.replace(first, diameter=first.diameter * 1.001)
    else:
        spheres[0] = dataclasses.replace(first, height=first.height * 1.001)
    return spheres


@pytest.mark.parametrize("corruption", ["construction", "verdict", "completion"])
def test_corrupted_library_output_is_a_failure(corruption, monkeypatch, tmp_path):
    import kissgeo.completion
    import kissgeo.embed

    if corruption == "construction":
        real = kissgeo.embed.construct_embedding
        monkeypatch.setattr(kissgeo.embed, "construct_embedding",
                            lambda *args: _corrupt_first_sphere(real(*args)))
        workload = "dense-embed"
    elif corruption == "verdict":
        real = kissgeo.embed.check_kissing
        flipped = {"Embeddable": "NotEmbeddable", "NotEmbeddable": "Embeddable"}
        monkeypatch.setattr(kissgeo.embed, "check_kissing",
                            lambda *args: dataclasses.replace(real(*args), verdict=flipped[real(*args).verdict]))
        workload = "dense-embed"
    else:
        real = kissgeo.completion.complete_chordal

        def shifted(graph, *args):
            result = real(graph, *args)
            full = result.full_matrix.copy()
            u, v, _ = graph.edges[0]
            full[u, v] = full[v, u] = full[u, v] * 1.001 + 1e-3
            return dataclasses.replace(result, full_matrix=full)

        monkeypatch.setattr(kissgeo.completion, "complete_chordal", shifted)
        workload = "sparse-complete"
    result, report = tiny_run(workload, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1 and report["fail_ratio"] > 0


def test_corrupted_cli_output_is_a_failure():
    rng = np.random.default_rng(5)
    matrix = embeddable_matrix(rng, 12)
    graph = chordal_graph(rng, 15)
    spheres = [{"t": [float(c) for c in t], "phi": float(p)}
               for t, p in zip(*_realize(matrix.d2))]
    good = json.dumps({"n": N, "spheres": spheres}).encode()
    assert oracle.check_cli_output("embed", 0, good, None, matrix.d2, N) is None
    assert oracle.check_cli_output("embed", 1, good, None, matrix.d2, N) is not None
    assert oracle.check_cli_output("embed", 0, good, good + b" ", matrix.d2, N) is not None
    assert oracle.check_cli_output("embed", 0, good[:-5], None, matrix.d2, N) is not None
    spheres[3]["phi"] *= 1.0001
    bad = json.dumps({"n": N, "spheres": spheres}).encode()
    assert oracle.check_cli_output("embed", 0, bad, None, matrix.d2, N) is not None

    u, v = graph.edges[:, 0].astype(int), graph.edges[:, 1].astype(int)
    d2 = np.zeros((graph.vertices, graph.vertices))
    assert oracle.check_cli_output(
        "complete", 0, json.dumps({"verdict": "Completed", "d2": d2.tolist()}).encode(),
        None, graph, N) is not None
    d2[u, v] = d2[v, u] = graph.edges[:, 2] ** 2
    wrong_verdict = json.dumps({"verdict": "Infeasible", "d2": d2.tolist()}).encode()
    assert oracle.check_cli_output("complete", 0, wrong_verdict, None, graph, N) is not None


def _realize(d2):
    """Tangent points and diameters reproducing an embeddable matrix without
    planes, through the benchmark's own formula (planes are left out here)."""
    from kissgeo import construct_embedding

    spheres = construct_embedding(d2, N)
    keep = [s for s in spheres if hasattr(s, "diameter")]
    assert len(keep) == len(spheres), "fixture matrix must hold no planes"
    return [s.tangent for s in keep], [s.diameter for s in keep]


def test_generator_verdicts_hold_by_numpy():
    rng = np.random.default_rng(3)
    for make, positives in ((embeddable_matrix, 1), (not_embeddable_matrix, 2)):
        values = np.linalg.eigvalsh(make(rng, 50).d2)
        assert int(np.sum(values > 1e-9 * np.abs(values).max())) == positives


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-embed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
