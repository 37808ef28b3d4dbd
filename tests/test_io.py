import re

import numpy as np
import pytest

from kissgeo import io


def square(m, bad=None, at=None):
    rows = [[float(abs(i - j)) for j in range(m)] for i in range(m)]
    if at is not None:
        rows[at[0]][at[1]] = bad
    return rows


class TestLoadMatrix:
    def test_plain_numbers(self):
        rows = [[0, 1.5, 10**30], [1.5, 0, 2], [10**30, 2, 0.0]]
        _, matrix = io.load_matrix({"d2": rows})
        assert matrix.dtype == float
        assert np.array_equal(matrix, [[0.0, 1.5, 1e30], [1.5, 0.0, 2.0], [1e30, 2.0, 0.0]])

    def test_numpy_floats_take_the_per_entry_loop(self):
        rows = square(3)
        _, plain = io.load_matrix({"d2": rows})
        _, matrix = io.load_matrix({"d2": [[np.float64(x) for x in row] for row in rows]})
        assert np.array_equal(matrix, plain)

    def test_labels(self):
        labels, _ = io.load_matrix({"labels": ["a", "b", "c"], "d2": square(3)})
        assert labels == ["a", "b", "c"]
        with pytest.raises(io.SchemaError, match="length"):
            io.load_matrix({"labels": ["a"], "d2": square(3)})

    @pytest.mark.parametrize("bad", [True, False, "1.0", None, [1.0], float("nan"), float("inf"), 10**400])
    @pytest.mark.parametrize("at", [(0, 1), (2, 0), (3, 3)])
    def test_bad_entry_is_named(self, bad, at):
        with pytest.raises(io.SchemaError, match=rf'^"d2"\[{at[0]}\]\[{at[1]}\] must be a finite number$'):
            io.load_matrix({"d2": square(4, bad, at)})

    def test_first_bad_entry_wins_over_a_later_short_row(self):
        rows = square(3, float("nan"), (0, 2))
        rows[1] = rows[1][:2]
        with pytest.raises(io.SchemaError, match=r'\[0\]\[2\]'):
            io.load_matrix({"d2": rows})

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e10])
    def test_diagonal_is_checked_relative_to_the_data(self, scale):
        rows = (scale * np.array(square(4))).tolist()
        rows[1][1] = 0.5e-12 * 3.0 * scale
        _, matrix = io.load_matrix({"d2": rows})
        assert np.array_equal(matrix, matrix.T)
        rows[1][1] = 2e-12 * 3.0 * scale
        with pytest.raises(io.SchemaError, match="diagonal must be 0"):
            io.load_matrix({"d2": rows})

    @pytest.mark.parametrize("row", [[0.0, 1.0], "row", None])
    def test_row_that_is_not_a_full_list(self, row):
        rows = square(3)
        rows[2] = row
        with pytest.raises(io.SchemaError, match="must be square"):
            io.load_matrix({"d2": rows})


class TestLoadVectors:
    def test_plain_numbers(self):
        n, vectors = io.load_vectors({"n": 1, "vectors": [[1, 2.5], [-3, 4]]})
        assert n == 1
        assert np.array_equal(vectors, [[1.0, 2.5], [-3.0, 4.0]])

    def test_numpy_floats_take_the_per_entry_loop(self):
        raw = [[1, 2.5], [-3, 4]]
        _, plain = io.load_vectors({"n": 1, "vectors": raw})
        _, vectors = io.load_vectors({"n": 1, "vectors": [[np.float64(x) for x in row] for row in raw]})
        assert np.array_equal(vectors, plain)

    @pytest.mark.parametrize("bad", [True, "0", None, float("-inf"), 10**400])
    def test_bad_coordinate_is_named(self, bad):
        raw = [[0.0, 1.0, 1.0], [0.5, 0.0, 0.5], [1.0, 0.0, 1.0]]
        raw[1][2] = bad
        with pytest.raises(io.SchemaError, match=r"^vector coordinate \[1\]\[2\] must be a finite number$"):
            io.load_vectors({"n": 2, "vectors": raw})

    def test_wrong_length(self):
        with pytest.raises(io.SchemaError, match="vector 1 must list 3 coordinates"):
            io.load_vectors({"n": 2, "vectors": [[0.0, 1.0, 1.0], [0.0, 1.0]]})


class TestIntegerFields:
    @pytest.mark.parametrize("load, obj", [
        (io.load_graph, {"vertices": 2, "edges": [{"u": True, "v": 0, "len": 1}]}),
        (io.load_graph, {"vertices": 2, "edges": [{"u": 0, "v": False, "len": 1}]}),
        (io.load_graph, {"vertices": True, "edges": []}),
        (io.load_sphere_set, {"n": True, "spheres": [{"h": 1.0}]}),
        (io.load_vectors, {"n": True, "vectors": [[0.0, 1.0]]}),
        (io.load_euclidean_spheres, {"n": True, "spheres": [{"c": [0.0], "r": 1.0}]}),
    ])
    def test_booleans_are_refused(self, load, obj):
        with pytest.raises(io.SchemaError, match="integer"):
            load(obj)


class TestLoadGraph:
    @pytest.mark.parametrize("obj, message", [
        ({"edges": []}, "vertex count must be a positive integer"),
        ({"vertices": 0, "edges": []}, "vertex count must be a positive integer"),
        ({"vertices": 2, "edges": [{"u": 0.0, "v": 1, "len": 1}]}, "edge endpoints must be integers"),
        ({"vertices": 2, "edges": [{"u": 0, "v": 1, "len": -1}]},
         "edge lengths must be finite and nonnegative"),
        # LengthGraph would read these as lengths, so io refuses them first.
        ({"vertices": 2, "edges": [{"u": 0, "v": 1, "len": True}]}, "edge 0: 'len' must be a finite number"),
        ({"vertices": 2, "edges": [{"u": 0, "v": 1, "len": "1"}]}, "edge 0: 'len' must be a finite number"),
    ])
    def test_refusals_name_the_rule(self, obj, message):
        with pytest.raises(io.SchemaError, match=f"^{re.escape(message)}$"):
            io.load_graph(obj)
