"""One small call per kissgeo entry point.

This is the set-up a user pays once per process, and the benchmark's warm-up.
Only the standard library is imported at module level, so timing
``run_probe`` in a fresh interpreter includes importing kissgeo and numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

# Three unit spheres in a row (n = 2), and a path whose two cliques share a
# separator, so that completion glues once.
MATRIX = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]
EDGES = ((0, 1, 1.0), (1, 2, 1.0))


def run_probe(directory) -> None:
    """Call check_kissing, construct_embedding, complete_chordal and the CLI's
    embed and complete commands once each. Results are not checked: this is
    set-up, and the benchmark's operations are checked by its oracle."""
    import kissgeo
    import kissgeo.cli

    kissgeo.check_kissing(MATRIX, 2)
    kissgeo.construct_embedding(MATRIX, 2)
    kissgeo.complete_chordal(kissgeo.LengthGraph(3, EDGES), 2)
    graph = {"vertices": 3, "edges": [{"u": u, "v": v, "len": w} for u, v, w in EDGES]}
    for command, payload in (("embed", {"d2": MATRIX}), ("complete", graph)):
        path = Path(directory) / f"probe-{command}.json"
        path.write_text(json.dumps(payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            kissgeo.cli.main([command, "--n", "2", str(path)])
