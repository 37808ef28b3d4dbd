"""The benchmark workloads: inputs, warm-up and the timed operations.

Each workload is prepared once (inputs generated, CLI input files written)
and then executed as a fixed list of operations, the same for the same seed
and ``--seconds``. ``Recorder.op`` times one
call into kissgeo, then hands the result to the oracle; oracle time is not
part of any latency.
"""

from __future__ import annotations

import contextlib
import io as std_io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import inputs, oracle
from .inputs import EMBEDDABLE, N

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 150


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the reference cost in seconds of one unit of work on a
    2-core x86 machine, which turns ``--seconds`` into a fixed operation
    count; and how many set-up processes are timed before the timed phase and
    after each of its items."""

    dense_m: int = 2000
    dense_unit_s: float = 7.0
    sparse_vertices: int = 3200
    sparse_unit_s: float = 12.0
    cli_m: int = 1000
    cli_embed_unit_s: float = 3.5
    cli_vertices: int = 800
    cli_complete_unit_s: float = 2.5
    setup_samples: int = 3


def units(seconds: float, unit_s: float) -> int:
    """How many units of work fill ``seconds`` on the reference machine; at least one."""
    return max(1, int(seconds // unit_s))


def child_env() -> dict:
    """Environment of a child interpreter: kissgeo from this checkout, and the
    benchmark package for the set-up probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


@dataclass
class Recorder:
    """Latency samples per entry point, and operations attempted and failed."""

    tracer: object = None
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0

    def op(self, entry: str, call, check):
        """Time ``call()``; a raise or a reason from ``check(result)`` is a failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.operation = self.attempted
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # any raise is a failed operation, not a crash of the run
            self.wall_s += time.perf_counter() - start
            self.failures.append(f"{entry}: raised {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        self.wall_s += elapsed
        self.samples.setdefault(entry, []).append(elapsed)
        try:
            reason = check(result)
        except Exception as exc:  # a result the oracle cannot even read is wrong
            reason = f"unreadable result: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(f"{entry}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)


class DenseEmbed:
    """Certify, then realize, squared-distance matrices of m kissing spheres.

    For every three embeddable matrices about one more is pushed to two
    positive eigenvalues and only certified. The matrices are saved to files during set-up and loaded
    one at a time, so that the process's peak memory is the program's and not
    the stored inputs'.
    """

    entries = ("check_kissing", "construct_embedding")

    def __init__(self, rng, sizes: Sizes, seconds: float, out_dir: Path):
        count = units(seconds, sizes.dense_unit_s)
        certify_only = max(1, round(count / 3))
        kinds = [True] * count + [False] * certify_only
        # Interleave so that every prefix of at least two holds both kinds.
        kinds = [kinds[0], kinds[-1], *kinds[1:-1]]
        self.items = []
        for k, embeddable in enumerate(kinds):
            item = (inputs.embeddable_matrix(rng, sizes.dense_m) if embeddable
                    else inputs.not_embeddable_matrix(rng, sizes.dense_m))
            path = out_dir / f"dense{k}.npy"
            np.save(path, item.d2)
            self.items.append((path, item.expected))
        self.warm_item = inputs.embeddable_matrix(rng, 300)

    def warm(self) -> None:
        """Large enough for the BLAS thread pool to start."""
        from kissgeo import embed

        embed.construct_embedding(self.warm_item.d2, N)
        embed.check_kissing(self.warm_item.d2, N)

    def execute(self, items, rec: Recorder, in_process: bool) -> None:
        from kissgeo import embed

        for path, expected in items:
            d2 = inputs.MatrixInstance(np.load(path), expected).d2
            rec.op("check_kissing", lambda: embed.check_kissing(d2, N),
                   lambda cert: oracle.check_verdict(cert.verdict, expected))
            if expected == EMBEDDABLE:
                rec.op("construct_embedding", lambda: embed.construct_embedding(d2, N),
                       lambda spheres: oracle.check_realization(spheres, d2, N))
            del d2


def _length_graph(item: inputs.GraphInstance):
    from kissgeo.completion import LengthGraph

    edges = tuple((int(u), int(v), float(length)) for u, v, length in item.edges)
    return LengthGraph(item.vertices, edges)


def _completed(item: inputs.GraphInstance):
    def check(result):
        return (oracle.check_verdict(result.verdict, item.expected)
                or oracle.check_completion(result.full_matrix, item.vertices, item.edges, N))
    return check


class SparseComplete:
    """Complete chordal graphs whose lengths come from a real configuration."""

    entries = ("complete_chordal",)

    def __init__(self, rng, sizes: Sizes, seconds: float, out_dir: Path):
        count = units(seconds, sizes.sparse_unit_s)
        self.items = [inputs.chordal_graph(rng, sizes.sparse_vertices) for _ in range(count)]

    def warm(self) -> None:
        """The set-up probe is warm-up enough."""

    def execute(self, items, rec: Recorder, in_process: bool) -> None:
        from kissgeo import completion

        for item in items:
            # Built per call, outside the timing: LengthGraph caches its adjacency.
            graph = _length_graph(item)
            rec.op("complete_chordal", lambda: completion.complete_chordal(graph, N),
                   _completed(item))


class CliWorkload:
    """One ``kissgeo`` command on JSON files, each call run as a subprocess
    (in-process through ``kissgeo.cli.main`` in the traced run).

    ``self.inputs`` maps a key to (command, input file, what the oracle checks
    the output against); ``self.items`` lists the keys in run order. Every
    output is compared byte for byte with the first output on the same input.
    """

    entries: tuple = ()

    def warm(self) -> None:
        """The set-up probe is warm-up enough."""

    def _argv(self, key: str) -> list[str]:
        command, path, _ = self.inputs[key]
        return [command, "--n", str(N), str(path)]

    def _subprocess(self, key: str):
        done = subprocess.run([sys.executable, "-m", "kissgeo.cli", *self._argv(key)],
                              capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
        return done.returncode, done.stdout

    def _in_process(self, key: str):
        from kissgeo import cli

        out = std_io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(std_io.StringIO()):
            code = cli.main(self._argv(key))
        return code, out.getvalue().encode()

    def execute(self, items, rec: Recorder, in_process: bool) -> None:
        run = self._in_process if in_process else self._subprocess
        for key in items:
            rec.op(f"cli_{self.inputs[key][0]}", lambda: run(key),
                   lambda result: self._check(key, *result))

    def _check(self, key: str, code: int, stdout: bytes):
        command, _, expected = self.inputs[key]
        reason = oracle.check_cli_output(command, code, stdout, self.reference.get(key),
                                         expected, N)
        self.reference.setdefault(key, stdout)
        return reason


class CliEmbed(CliWorkload):
    """``kissgeo embed`` on the JSON of one m-sphere matrix, run again and again."""

    entries = ("cli_embed",)

    def __init__(self, rng, sizes: Sizes, seconds: float, out_dir: Path):
        matrix = inputs.embeddable_matrix(rng, sizes.cli_m)
        self.inputs = {"matrix": ("embed", out_dir / "matrix.json", matrix.d2)}
        self.inputs["matrix"][1].write_text(inputs.matrix_json(matrix))
        self.items = ["matrix"] * max(2, units(seconds, sizes.cli_embed_unit_s))
        self.reference: dict[str, bytes] = {}


class CliComplete(CliWorkload):
    """``kissgeo complete`` on the JSON of chordal graphs; each graph twice in a row."""

    entries = ("cli_complete",)

    def __init__(self, rng, sizes: Sizes, seconds: float, out_dir: Path):
        self.inputs = {}
        for k in range(units(seconds, 2 * sizes.cli_complete_unit_s)):
            graph = inputs.chordal_graph(rng, sizes.cli_vertices)
            self.inputs[f"graph{k}"] = ("complete", out_dir / f"graph{k}.json", graph)
            self.inputs[f"graph{k}"][1].write_text(inputs.graph_json(graph))
        self.items = [key for key in self.inputs for _ in range(2)]
        self.reference: dict[str, bytes] = {}


WORKLOADS = {
    "dense-embed": DenseEmbed,
    "sparse-complete": SparseComplete,
    "cli-embed": CliEmbed,
    "cli-complete": CliComplete,
}
