import json

import numpy as np
import pytest

from lipfree.errors import InputError, MalformedInput, ZeroDistanceDistinctPoints
from lipfree.fixtures import circle_geodesic, tripod
from lipfree.io import (
    geodesic_space_to_dict,
    load_free_vector,
    load_function,
    load_geodesic_space,
    load_map,
    load_space,
    space_to_dict,
)
from lipfree.metric_core import interval_net


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def space_file(tmp_path):
    return write(tmp_path / "space.json", {
        "labels": ["a", "b", "c"],
        "base": 0,
        "metric": {"type": "matrix", "d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    })


class TestSpaceFiles:
    def test_matrix_round_trip(self, tmp_path):
        net = interval_net(4)
        path = write(tmp_path / "net.json", space_to_dict(net))
        again = load_space(path)
        assert np.array_equal(again.dist, net.dist)
        assert again.labels == net.labels

    def test_graph_form(self, tmp_path):
        path = write(tmp_path / "g.json", {
            "base": 0,
            "metric": {"type": "graph", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
        })
        space = load_space(path)
        assert space.d(0, 2) == 2.0

    @pytest.mark.parametrize("edges, refusal", [
        ([[0, 1, 0]], ZeroDistanceDistinctPoints),
        ([[0, 0, 0], [0, 1, 1]], None),  # a zero loop, like a positive one, is no edge
    ], ids=["zero_edge", "zero_loop"])
    def test_zero_weight_in_graph_form(self, tmp_path, edges, refusal):
        path = write(tmp_path / "g.json", {"metric": {"type": "graph", "n": 2, "edges": edges}})
        if refusal is None:
            assert load_space(path).dist.tolist() == [[0, 1], [1, 0]]
            return
        with pytest.raises(refusal) as exc:
            load_space(path)
        assert str(exc.value) == "distinct points 0, 1 at distance 0"

    def test_missing_field_names_json_path(self, tmp_path):
        path = write(tmp_path / "bad.json", {"labels": ["a", "b"]})
        with pytest.raises(MalformedInput) as exc:
            load_space(path)
        assert "metric" in str(exc.value)

    def test_unknown_metric_type(self, tmp_path):
        path = write(tmp_path / "bad.json", {"metric": {"type": "fancy"}})
        with pytest.raises(MalformedInput):
            load_space(path)

    def test_non_square_matrix_names_json_path(self, tmp_path):
        path = write(tmp_path / "bad.json", {
            "metric": {"type": "matrix", "d": [[0, 1, 2], [1, 0, 1]]}})
        with pytest.raises(MalformedInput) as exc:
            load_space(path)
        assert exc.value.json_path == f"{path}.metric.d"

    @pytest.mark.parametrize("metric", [
        {"type": "matrix", "d": [[0, 1], [1, 0]]},
        {"type": "graph", "n": 2, "edges": [[0, 1, 1.0]]},
    ])
    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"], "ab"])
    def test_label_count_names_json_path(self, tmp_path, metric, labels):
        path = write(tmp_path / "bad.json", {"labels": labels, "metric": metric})
        with pytest.raises(MalformedInput) as exc:
            load_space(path)
        assert exc.value.json_path == f"{path}.labels"

    @pytest.mark.parametrize("n, edges", [
        (2, [[0, 5, 1.0]]),
        (3, [[0, 1, 1], [1, -1, 1]]),
    ])
    def test_graph_edge_endpoint_out_of_range(self, tmp_path, n, edges):
        path = write(tmp_path / "g.json",
                     {"metric": {"type": "graph", "n": n, "edges": edges}})
        with pytest.raises(MalformedInput) as exc:
            load_space(path)
        assert exc.value.json_path == f"{path}.metric.edges"

    @pytest.mark.parametrize("obj, where", [
        ({"base": "x", "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}}, "base"),
        ({"metric": {"type": "graph", "n": "two", "edges": [[0, 1, 1.0]]}}, "metric.n"),
        ({"metric": 5}, "metric"),
        ({"base": 1.5, "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}}, "base"),
        ({"base": True, "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}}, "base"),
        ({"metric": {"type": "graph", "n": "2", "edges": [[0, 1, 1.0]]}}, "metric.n"),
        ({"metric": {"type": "graph", "n": 2, "edges": [[0, 1.5, 1.0]]}}, "metric.edges"),
        ({"metric": {"type": "matrix", "d": [[0, None], [None, 0]]}}, "metric.d"),
        ({"metric": {"type": "matrix", "d": [[0, "1"], ["1", 0]]}}, "metric.d"),
        ({"metric": {"type": "matrix", "d": [[0, True], [True, 0]]}}, "metric.d"),
        ({"metric": {"type": "graph", "n": 2, "edges": [[0, 1, "2"]]}}, "metric.edges"),
        ({"metric": {"type": "graph", "n": 2, "edges": [[0, 1, True]]}}, "metric.edges"),
        ({"metric": {"type": "matrix", "d": [[0, 10 ** 400], [10 ** 400, 0]]}}, "metric.d"),
        ({"metric": {"type": "graph", "n": 2, "edges": [[0, 1, 10 ** 400]]}}, "metric.edges"),
        ({"metric": {"type": "matrix", "d": [[0]]}}, "metric.d"),
        ({"metric": {"type": "graph", "n": 1, "edges": []}}, "metric.n"),
    ])
    def test_mistyped_field_names_json_path(self, tmp_path, obj, where):
        path = write(tmp_path / "bad.json", obj)
        with pytest.raises(MalformedInput) as exc:
            load_space(path)
        assert exc.value.json_path == f"{path}.{where}"

    @pytest.mark.parametrize("metric, where, reason", [
        ({"type": "graph", "n": 3, "edges": [1.5, [1, 2, 1.0]]},
         "metric.edges", "expected [i, j, w] triples"),
        ({"type": "graph", "n": 3, "edges": [[0, 1], [1, 2, 1.0]]},
         "metric.edges", "expected [i, j, w] triples"),
        ({"type": "graph", "n": 3, "edges": 5}, "metric.edges", "expected [i, j, w] triples"),
        ({"type": "matrix", "d": [[0, 1], [1, 0, 2]]},
         "metric.d", "expected rows of numbers of equal length"),
        ({"type": "matrix", "d": [[0, [1]], [1, 0]]},
         "metric.d", "expected rows of numbers of equal length"),
        # an integer past every float is not a misshapen row or triple
        ({"type": "matrix", "d": [[0, 10 ** 400], [10 ** 400, 0]]},
         "metric.d", "entries must be finite numbers"),
        ({"type": "graph", "n": 2, "edges": [[0, 1, 10 ** 400]]},
         "metric.edges", "weights must be finite numbers"),
    ])
    def test_malformed_metric_names_the_fault(self, tmp_path, metric, where, reason):
        path = write(tmp_path / "bad.json", {"metric": metric})
        with pytest.raises(MalformedInput) as exc:
            load_space(path)
        assert (exc.value.json_path, exc.value.reason) == (f"{path}.{where}", reason)

    @pytest.mark.parametrize("d, named", [
        ([[0, 1], [True, 0]], "True"),
        ([[0, "1"], [1, 0]], "'1'"),
        ([[0, 1.0], [None, 0]], "None"),
        ([[0, 1], [1, False]], "False"),
        ([[0.0, "1"], [None, 0.0]], "'1'"),  # the first entry that is no number
    ])
    def test_non_numeric_matrix_entry_named(self, tmp_path, d, named):
        path = write(tmp_path / "bad.json", {"metric": {"type": "matrix", "d": d}})
        with pytest.raises(MalformedInput) as exc:
            load_space(path)
        assert exc.value.json_path == f"{path}.metric.d"
        assert exc.value.reason == f"expected a number, got {named}"

    @pytest.mark.parametrize("base, error", [
        (1e308, "expected an integer, got 1e+308"),
        (-1e308, "expected an integer, got -1e+308"),
        (2.0 ** 53 + 2, "expected an integer, got 9007199254740994.0"),
        (2.0 ** 53, "base index 9007199254740992 out of range for 2 points"),
    ], ids=["1e308", "-1e308", "past_2**53", "2**53"])
    def test_a_whole_float_past_2_53_is_not_an_integer(self, tmp_path, base, error):
        # once a base of 1e308 was refused naming all 309 digits of int(1e308)
        path = write(tmp_path / "s.json", {"base": base,
                                           "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}})
        with pytest.raises(InputError) as exc:
            load_space(path)
        assert str(exc.value) == (error if "index" in error else f"{path}.base: {error}")

    def test_whole_float_indices_are_integers(self, tmp_path):
        path = write(tmp_path / "s.json", {
            "base": 1.0, "metric": {"type": "graph", "n": 3.0, "edges": [[0, 1.0, 1], [1, 2, 1]]}})
        space = load_space(path)
        assert (space.n, space.base, space.d(0, 2)) == (3, 1, 2.0)

    def test_inline_space_error_names_its_field(self, tmp_path):
        path = write(tmp_path / "f.json", {
            "space": {"labels": ["a"], "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}},
            "values": [0.0, 0.5],
        })
        with pytest.raises(MalformedInput) as exc:
            load_function(path)
        assert exc.value.json_path == f"{path}.space.labels"

    def test_field_order_irrelevant(self, tmp_path):
        a = write(tmp_path / "a.json", {
            "metric": {"d": [[0, 1], [1, 0]], "type": "matrix"},
            "base": 0, "labels": ["x", "y"],
        })
        assert load_space(a).d(0, 1) == 1.0


class TestFunctionAndVectorFiles:
    def test_function_with_space_by_path(self, tmp_path, space_file):
        path = write(tmp_path / "f.json", {"space": "space.json",
                                           "values": [0, 1, 2]})
        f = load_function(path)
        assert f.values.tolist() == [0, 1, 2]

    def test_function_with_inline_space(self, tmp_path):
        path = write(tmp_path / "f.json", {
            "space": {"metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}},
            "values": [0.0, 0.5],
        })
        assert load_function(path).values.tolist() == [0.0, 0.5]

    def test_wrong_value_count(self, tmp_path, space_file):
        path = write(tmp_path / "f.json", {"space": "space.json", "values": [0, 1]})
        with pytest.raises(MalformedInput):
            load_function(path)

    @pytest.mark.parametrize("entry", ["a", None, "1", True, False,
                                       pytest.param(10 ** 400, id="beyond-float")])
    @pytest.mark.parametrize("load, field", [(load_function, "values"),
                                             (load_free_vector, "coeffs")])
    def test_non_numeric_entry_names_json_path(self, tmp_path, space_file, load, field,
                                               entry):
        path = write(tmp_path / "x.json", {"space": "space.json", field: [1, entry, -1]})
        with pytest.raises(MalformedInput) as exc:
            load(path)
        assert exc.value.json_path == f"{path}.{field}"

    def test_vector_zero_sum_enforced_not_rebalanced(self, tmp_path, space_file):
        path = write(tmp_path / "v.json", {"space": "space.json",
                                           "coeffs": [1.0, 0.0, -0.5]})
        with pytest.raises(MalformedInput) as exc:
            load_free_vector(path)
        assert "coeffs" in str(exc.value)

    def test_vector_accepted(self, tmp_path, space_file):
        path = write(tmp_path / "v.json", {"space": "space.json",
                                           "coeffs": [1.0, 0.0, -1.0]})
        assert load_free_vector(path).coeffs.tolist() == [1.0, 0.0, -1.0]


class TestMapFiles:
    def test_map_with_space_paths(self, tmp_path, space_file):
        path = write(tmp_path / "m.json", {
            "domain": "space.json", "codomain": "space.json", "image": [0, 1, 2],
        })
        phi = load_map(path)
        assert phi.image == (0, 1, 2)

    @pytest.mark.parametrize("image, reason", [
        ([0, None, 2], "expected an integer, got None"),
        ([0, "a", 2], "expected an integer, got 'a'"),
        ([0, 1.5, 2], "expected an integer, got 1.5"),
        ([0, True, 2], "expected an integer, got True"),
        ([0, 1], "expected a list of 3 point indices"),
        ([0, 1, 2, 0], "expected a list of 3 point indices"),
        (5, "expected a list of 3 point indices"),
        (1.5, "expected a list of 3 point indices"),
        (None, "expected a list of 3 point indices"),
        ("012", "expected a list of 3 point indices"),
        ([0, 3, 2], "point 3 is outside 0..2"),
        ([0, -1, 2], "point -1 is outside 0..2"),
        ([1e308, 1, 2], "expected an integer, got 1e+308"),
        ([0, 10 ** 30, 2], f"point {10 ** 30} is outside 0..2"),  # compared before the cast
        # texts int() reads as an index are strings here, never parsed
        ([0, "1_0", 2], "expected an integer, got '1_0'"),
        ([0, "\u0663", 2], "expected an integer, got '\u0663'"),
        ([0, " 2", 2], "expected an integer, got ' 2'"),
        ([0, "0x1", 2], "expected an integer, got '0x1'"),
        ([0, "True", 2], "expected an integer, got 'True'"),
        ([0, "", 2], "expected an integer, got ''"),
        ([0, "9" * 30, 2], f"expected an integer, got {'9' * 30!r}"),
    ], ids=["null_entry", "string_entry", "float_entry", "bool_entry", "short", "long", "int",
            "float", "null", "string", "past_n", "negative", "1e308", "past_n_huge",
            "underscore_string", "non_ascii_digit_string", "spaced_string", "hex_string",
            "bool_string", "empty_string", "huge_string"])
    def test_malformed_image_names_json_path(self, tmp_path, space_file, image, reason):
        path = write(tmp_path / "m.json", {
            "domain": "space.json", "codomain": "space.json", "image": image,
        })
        with pytest.raises(MalformedInput) as exc:
            load_map(path)
        assert (exc.value.json_path, exc.value.reason) == (f"{path}.image", reason)

    def test_map_base_violation_surfaces(self, tmp_path, space_file):
        path = write(tmp_path / "m.json", {
            "domain": "space.json", "codomain": "space.json", "image": [1, 1, 2],
        })
        from lipfree.errors import BasePointNotPreserved
        with pytest.raises(BasePointNotPreserved):
            load_map(path)


class TestGeodesicFiles:
    @pytest.mark.parametrize("entry, field", [
        ({"pair": ["a", 1], "points": [0, 1]}, "pair"),
        ({"pair": [0], "points": [0, 1]}, "pair"),
        ({"pair": [0, 1], "points": [0, None]}, "points"),
        ({"pair": [0, 1], "points": [0, 0.5]}, "points"),
        ({"pair": [0, 9], "points": [0, 9]}, "pair"),
        ({"pair": [0, 1], "points": [-1, 0, 1]}, "points"),
    ])
    def test_malformed_path_names_json_path(self, tmp_path, entry, field):
        path = write(tmp_path / "g.json", {
            "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}, "paths": [entry]})
        with pytest.raises(MalformedInput) as exc:
            load_geodesic_space(path)
        assert exc.value.json_path == f"{path}.paths[0].{field}"

    @pytest.mark.parametrize("field, value, at, reason", [
        ("pair", {"x": 0}, ".paths[0].pair", "expected a list of 2 point indices"),
        ("pair", 3, ".paths[0].pair", "expected a list of 2 point indices"),
        ("pair", [1], ".paths[0].pair", "expected a list of 2 point indices"),
        ("pair", [1, 2, 3], ".paths[0].pair", "expected a list of 2 point indices"),
        ("pair", [1, True], ".paths[0].pair", "expected an integer, got True"),
        ("pair", [1, 1e308], ".paths[0].pair", "expected an integer, got 1e+308"),
        ("points", 3, ".paths[0].points", "expected a list of point indices"),
        ("points", None, ".paths[0].points", "expected a list of point indices"),
        ("points", [1, "0", 2], ".paths[0].points", "expected an integer, got '0'"),
        ("points", [1, 0, 4], ".paths[0].points", "point 4 is outside 0..3"),
        ("points", [1, 10 ** 30, 2], ".paths[0].points", f"point {10 ** 30} is outside 0..3"),
        ("points", [], ".paths[0].points",
         "a path needs at least two points and must not repeat one"),
        ("points", [1, 0, 1, 2], ".paths[0].points",
         "a path needs at least two points and must not repeat one"),
        ("points", [1, 0], ".paths[0].points", "path for (1, 2) does not run from 1 to 2"),
        ("points", [1, 3, 0, 2], ".paths[0].points",
         "point sequence is not metrically straight (defect 2.0)"),
    ], ids=["pair_object", "pair_int", "pair_short", "pair_long", "pair_bool", "pair_1e308",
            "points_int", "points_null", "points_string", "points_past_n",
            "points_past_n_huge", "points_empty",
            "points_repeat", "points_off_pair", "points_crooked"])
    def test_path_refusal_names_the_fault(self, tmp_path, field, value, at, reason):
        # tripod(1, 1) stores one path, 1-0-2; each case replaces one of its fields
        obj = geodesic_space_to_dict(tripod(1, 1))
        obj["paths"][0][field] = value
        path = write(tmp_path / "g.json", obj)
        with pytest.raises(MalformedInput) as exc:
            load_geodesic_space(path)
        assert (exc.value.json_path, exc.value.reason) == (f"{path}{at}", reason)

    def test_pair_stored_twice_refused(self, tmp_path):
        # once the last entry won: the two-point path replaced the geodesic 1-0-2
        obj = geodesic_space_to_dict(tripod(1, 1))
        obj["paths"] = [{"pair": [1, 2], "points": [1, 0, 2]}, {"pair": [1, 2], "points": [1, 2]}]
        path = write(tmp_path / "g.json", obj)
        with pytest.raises(MalformedInput) as exc:
            load_geodesic_space(path)
        assert (exc.value.json_path, exc.value.reason) == (
            f"{path}.paths[1].pair", "[1, 2] is stored twice")

    def test_a_pair_and_its_reverse_are_two_paths(self, tmp_path):
        # antipodes 0 and 2 of the 4-cycle, joined through 1 and through 3
        obj = geodesic_space_to_dict(circle_geodesic(4))
        obj["paths"] = [{"pair": [0, 2], "points": [0, 1, 2]},
                        {"pair": [2, 0], "points": [2, 3, 0]}]
        gspace = load_geodesic_space(write(tmp_path / "g.json", obj))
        assert gspace.paths == {(0, 2): (0, 1, 2), (2, 0): (2, 3, 0)}

    @pytest.mark.parametrize("paths, at", [
        ([{"pair": [0, 1], "points": [1, 0]}], ".paths[0].points"),
        ([{"pair": [0, 1], "points": [0, 1]}, {"pair": [1, 0], "points": []}],
         ".paths[1].points"),
        ([], ".paths"),
        (5, ".paths"),
    ])
    def test_path_off_its_pair_names_its_entry(self, tmp_path, paths, at):
        # an unusable path is refused at its own entry's points, the list of none at paths
        path = write(tmp_path / "g.json", {
            "metric": {"type": "matrix", "d": [[0, 1], [1, 0]]}, "paths": paths})
        with pytest.raises(MalformedInput) as exc:
            load_geodesic_space(path)
        assert exc.value.json_path == f"{path}{at}"

    def test_round_trip(self, tmp_path):
        gs = tripod()
        path = write(tmp_path / "t.json", geodesic_space_to_dict(gs))
        again = load_geodesic_space(path)
        assert again.paths == gs.paths
        assert again.mesh == gs.mesh
        assert np.array_equal(again.space.dist, gs.space.dist)
