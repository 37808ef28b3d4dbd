"""Metric definitions shared by the runner, BENCHMARK.json and the tests.

``PER_LAYER`` also records, per layer metric, which end-to-end metric it
should move and on which workload; BENCHMARK.json has no field for that.
"""

from __future__ import annotations

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
)

_DENSE = "construct_embedding_p50_s and check_kissing_p50_s (p50_s, wall_s) on dense-embed"
# sparse-complete and cli-complete run but are not listed in BENCHMARK.json:
# complete_chordal fails on some of their inputs. On the listed workloads the
# completion layers run only in the set-up probe.
_SPARSE = "complete_chordal_p50_s (p50_s, wall_s) on sparse-complete (runnable, not listed)"
_CLI_COMPLETE = "cli_complete_p50_s (p50_s, wall_s) on cli-complete (runnable, not listed)"
_CLI_EMBED = "cli_embed_p50_s (p50_s, wall_s) on cli-embed"


def _layer(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


PER_LAYER = (
    _layer("kissing.distance_matrix.calls", "count", "lower", _DENSE),
    _layer("kissing.distance_matrix.self_s", "s", "lower",
           "construct_embedding_p50_s on dense-embed, cli_embed_p50_s on cli-embed; "
           "barely sparse-complete"),
    _layer("kissing.distance_matrix.pairs", "count", "lower", _DENSE),
    _layer("numkernel.sym_eigen.calls", "count", "lower", f"{_DENSE}; {_SPARSE}"),
    _layer("numkernel.sym_eigen.self_s", "s", "lower", f"{_DENSE}; {_SPARSE}"),
    _layer("numkernel.sym_eigen.order3", "count", "lower", f"{_DENSE}; {_SPARSE}"),
    _layer("numkernel.inertia.self_s", "s", "lower", f"check_kissing_p50_s on dense-embed; {_SPARSE}"),
    _layer("numkernel.gram_factor_lorentz.self_s", "s", "lower",
           f"construct_embedding_p50_s on dense-embed; {_SPARSE}"),
    _layer("lightcone.from_lightcone.calls", "count", "lower", "construct_embedding_p50_s on dense-embed"),
    _layer("lightcone.from_lightcone.self_s", "s", "lower", "construct_embedding_p50_s on dense-embed"),
    _layer("lightcone.to_lightcone.calls", "count", "lower", _SPARSE),
    _layer("lightcone.to_lightcone.self_s", "s", "lower", _SPARSE),
    _layer("lightcone.lorentz_align.calls", "count", "lower", _SPARSE),
    _layer("lightcone.lorentz_align.self_s", "s", "lower", _SPARSE),
    _layer("lightcone.lorentz_align.fail_ratio", "ratio", "lower", _SPARSE),
    _layer("embed.check_kissing.self_s", "s", "lower", "check_kissing_p50_s on dense-embed"),
    _layer("embed.construct_embedding.self_s", "s", "lower",
           f"construct_embedding_p50_s on dense-embed; {_SPARSE}"),
    _layer("embed.construct_embedding.realized_ratio", "ratio", "higher",
           f"construct_embedding_p50_s on dense-embed; {_SPARSE}"),
    _layer("completion.is_chordal.self_s", "s", "lower", f"{_SPARSE}; {_CLI_COMPLETE}"),
    _layer("completion.mcs_order.self_s", "s", "lower", f"{_SPARSE}; {_CLI_COMPLETE}"),
    _layer("completion.maximal_cliques.self_s", "s", "lower",
           f"{_SPARSE}; {_CLI_COMPLETE}"),
    _layer("completion.maximal_cliques.cliques", "count", "lower",
           f"{_SPARSE}; {_CLI_COMPLETE}"),
    _layer("completion.verify_target_matrix.self_s", "s", "lower",
           f"{_SPARSE}; {_CLI_COMPLETE}"),
    _layer("completion.complete_chordal.self_s", "s", "lower",
           f"{_SPARSE}; {_CLI_COMPLETE}"),
    _layer("io.load_matrix.self_s", "s", "lower", "cli_embed_p50_s on cli-embed only"),
    _layer("io.load_graph.self_s", "s", "lower", _CLI_COMPLETE),
    _layer("io.dump_sphere_set.self_s", "s", "lower", "cli_embed_p50_s on cli-embed only"),
    _layer("io.format_json.self_s", "s", "lower", f"{_CLI_EMBED}; {_CLI_COMPLETE}"),
    _layer("cli.main.self_s", "s", "lower", f"{_CLI_EMBED}; {_CLI_COMPLETE}"),
    _layer("trace.overhead_s", "s", "lower",
           "none: traced wall_s minus untraced wall_s on the same inputs, the tracer's own cost"),
)


def layer_values(summary: dict, overhead_s: float) -> dict:
    """Per-layer metric values from a ``Tracer.summary()``."""
    out = {}
    for metric in PER_LAYER:
        name = metric["name"]
        if name == "trace.overhead_s":
            out[name] = overhead_s
            continue
        function, stat = name.rsplit(".", 1)
        row = summary[function]
        if stat in ("calls", "self_s"):
            value = row[stat]
        elif stat == "fail_ratio":
            value = row["errors"] / row["calls"] if row["calls"] else 0.0
        elif stat == "realized_ratio":
            value = (row["calls"] - row["errors"]) / row["calls"] if row["calls"] else 0.0
        else:  # pairs, order3, cliques: the work count the tracer computed
            value = row["work"]
        out[name] = value
    return out
