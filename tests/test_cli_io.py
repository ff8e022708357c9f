import importlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from homharm.cli import main
from homharm.fields import FieldType, GroupFunction, TensorField, lift
from homharm.groups import quadrature_grid
from homharm.io import (FieldFormatError, activation_spec_from_json,
                        activation_spec_to_json, convert_field,
                        kernel_spec_from_json, kernel_spec_to_json,
                        load_fields, load_point_cloud, load_xyz,
                        save_fields, save_point_cloud)
from homharm.nonlin import ActivationSpec
from homharm.se_kernels import PointCloud
from homharm.spectral_conv import SparseKernelSpec

rng = np.random.default_rng(808)


def random_s2_fields(B=3, channels=2):
    grid = quadrature_grid("S2", B)
    return [TensorField(grid, FieldType(k),
                        rng.standard_normal((channels, grid.n_nodes))
                        + 1j * rng.standard_normal((channels, grid.n_nodes)))
            for k in (0, 1)]


class TestFieldFiles:
    def test_s2_round_trip_is_lossless(self, tmp_path):
        fields = random_s2_fields()
        path = tmp_path / "f.json"
        save_fields(path, fields)
        back = load_fields(path)
        assert len(back) == 2
        for a, b in zip(fields, back):
            assert a.field_type == b.field_type
            assert np.array_equal(a.samples, b.samples)   # bit-exact

    def test_so3_round_trip(self, tmp_path):
        gf = lift(random_s2_fields()[1])
        path = tmp_path / "g.json"
        save_fields(path, [gf])
        (back,) = load_fields(path)
        assert isinstance(back, GroupFunction)
        assert np.array_equal(back.samples, gf.samples)

    def test_fields_of_unequal_channel_counts_are_not_saved(self, tmp_path):
        fields = random_s2_fields(channels=1)[:1] + random_s2_fields(channels=3)
        with pytest.raises(ValueError, match=r"\[1, 3, 3\]"):
            save_fields(tmp_path / "f.json", fields)
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("channels", [1, 3, -1, 2.0, "2"])
    def test_block_channels_disagree_with_header(self, tmp_path, channels):
        path, csv = tmp_path / "f.json", tmp_path / "f.csv"
        save_fields(path, random_s2_fields())
        doc = json.loads(path.read_text())
        doc["channels"] = channels
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match="channels"):
            load_fields(path)
        assert main(["convert", str(path), str(csv)]) == 3
        assert not csv.exists()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        save_fields(path, random_s2_fields())
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match="format_version"):
            load_fields(path)

    def test_invalid_json_diagnostics(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{not json")
        with pytest.raises(FieldFormatError, match="line 1"):
            load_fields(path)

    def test_csv_round_trip(self, tmp_path):
        fields = random_s2_fields()
        p_json = tmp_path / "f.json"
        p_csv = tmp_path / "f.csv"
        p_back = tmp_path / "back.json"
        save_fields(p_json, fields)
        convert_field(p_json, p_csv)
        text = p_csv.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(text)
                          if not l.startswith("#"))
        assert text[header_idx] == "field_index,order,channel,node,dim,re,im"
        n_rows = len(text) - header_idx - 1
        grid = fields[0].grid
        assert n_rows == 2 * 2 * grid.n_nodes * 1   # fields x channels x nodes
        convert_field(p_csv, p_back)
        for a, b in zip(fields, load_fields(p_back)):
            assert np.array_equal(a.samples, b.samples)

    def test_negative_zero_survives_round_trip(self, tmp_path):
        fields = random_s2_fields()
        fields[0].samples[0, 0, 0] = complex(-0.0, 1.0)
        path = tmp_path / "f.json"
        save_fields(path, fields)
        back = load_fields(path)[0].samples[0, 0, 0]
        assert back == 1j and np.signbit(back.real)

    def test_conversion_needs_known_extensions(self, tmp_path):
        with pytest.raises(FieldFormatError):
            convert_field(tmp_path / "a.json", tmp_path / "b.json")


class TestPointCloudIO:
    def test_round_trip(self, tmp_path):
        cloud = PointCloud(rng.uniform(-1, 1, (5, 3)),
                           [rng.standard_normal((5, 1, 2)),
                            rng.standard_normal((5, 3, 2))])
        path = tmp_path / "cloud.json"
        save_point_cloud(path, cloud)
        back = load_point_cloud(path)
        assert np.array_equal(back.positions, cloud.positions)
        for a, b in zip(cloud.features, back.features):
            assert np.array_equal(a, b)

    def test_empty_cloud_round_trip(self, tmp_path):
        path, csv, back = (tmp_path / "c.json", tmp_path / "c.csv",
                           tmp_path / "back.json")
        save_point_cloud(path, PointCloud(np.zeros((0, 3)), []))
        convert_field(path, csv)
        convert_field(csv, back)
        for p in (path, back):
            cloud = load_point_cloud(p)
            assert cloud.positions.shape == (0, 3) and cloud.features == []

    @pytest.mark.parametrize("key,value,match", [
        ("positions", [[0.0, 0.0, 0.0]],
         "holds 2 points of dimension 1, expected 1 points"),
        ("field_orders", [1], "dimension 1, expected 2 points .* dimension 3"),
    ], ids=["point-count", "order-dimension"])
    def test_data_shape_disagrees_with_header(self, tmp_path, key, value,
                                              match):
        path = tmp_path / "cloud.json"
        save_point_cloud(path, PointCloud(np.zeros((2, 3)),
                                          [np.ones((2, 1, 1))]))
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match=match):
            load_point_cloud(path)

    def test_an_order_held_twice_is_rejected(self, tmp_path):
        path = tmp_path / "cloud.json"
        save_point_cloud(path, PointCloud(np.zeros((2, 3)),
                                          [np.ones((2, 1, 1))]))
        doc = json.loads(path.read_text())
        doc["field_orders"], doc["data"] = [0, 0], doc["data"] * 2
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match="each field order once"):
            load_point_cloud(path)
        assert main(["convert", str(path), str(tmp_path / "c.csv")]) == 3

    def test_orders_of_unequal_channel_counts_are_not_saved(self, tmp_path):
        cloud = PointCloud(np.zeros((2, 3)), [np.ones((2, 1, 2)),
                                              np.ones((2, 3, 3))])
        with pytest.raises(ValueError, match=r"\[2, 3\]"):
            save_point_cloud(tmp_path / "cloud.json", cloud)
        assert not (tmp_path / "cloud.json").exists()

    def test_block_channels_disagree_with_header(self, tmp_path):
        path = tmp_path / "cloud.json"
        save_point_cloud(path, PointCloud(np.zeros((2, 3)),
                                          [np.ones((2, 1, 2))]))
        doc = json.loads(path.read_text())
        doc["channels"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match="holds 2 channels"):
            load_point_cloud(path)
        assert main(["convert", str(path), str(tmp_path / "c.csv")]) == 3

    def test_xyz_import(self, tmp_path):
        path = tmp_path / "mol.xyz"
        path.write_text("3\nwater-ish comment\n"
                        "O 0.0 0.0 0.117\n"
                        "H 0.0 0.757 -0.468\n"
                        "H 0.0 -0.757 -0.468\n")
        pos = load_xyz(path)
        assert pos.shape == (3, 3)
        assert pos[1, 1] == pytest.approx(0.757)

    def test_xyz_bad_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("O 0.0 0.0\n")
        with pytest.raises(FieldFormatError, match="line 1"):
            load_xyz(path)

    @pytest.mark.parametrize("text", ["", "0\nno atoms\n"])
    def test_xyz_without_atoms_is_an_empty_cloud(self, tmp_path, text):
        path = tmp_path / "empty.xyz"
        path.write_text(text)
        pos = load_xyz(path)
        assert pos.shape == (0, 3)
        assert PointCloud(pos).n_points == 0

    def test_xyz_count_line_must_match_the_atoms(self, tmp_path):
        path = tmp_path / "mol.xyz"
        path.write_text("3\ncomment\nO 0.0 0.0 0.1\nH 0.0 0.7 -0.4\n")
        with pytest.raises(FieldFormatError, match="count 3, but 2 atom"):
            load_xyz(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_xyz_non_finite_coordinate(self, tmp_path, value):
        path = tmp_path / "mol.xyz"
        path.write_text(f"2\ncomment\nO 0.0 0.0 0.1\nH 0.0 {value} -0.4\n")
        with pytest.raises(FieldFormatError, match="line 4: .*finite"):
            load_xyz(path)


class TestSpecSerialization:
    def test_kernel_round_trip(self):
        c = (rng.standard_normal((2, 3, 4))
             + 1j * rng.standard_normal((2, 3, 4)))
        k = SparseKernelSpec(-1, 1, 5, c)
        back = kernel_spec_from_json(kernel_spec_to_json(k))
        assert (back.m_in, back.m_out, back.bandwidth) == (-1, 1, 5)
        assert np.array_equal(back.coeffs, k.coeffs)

    def test_kernel_negative_zero_survives(self):
        c = np.ones((1, 1, 4), dtype=complex)
        c[0, 0, 0] = complex(-0.0, 1.0)
        back = kernel_spec_from_json(kernel_spec_to_json(
            SparseKernelSpec(0, 0, 4, c))).coeffs[0, 0, 0]
        assert back == 1j and np.signbit(back.real)

    def test_activation_round_trip(self):
        spec = ActivationSpec("per_point_mlp",
                              [(rng.standard_normal((2, 2)), np.zeros(2))])
        back = activation_spec_from_json(activation_spec_to_json(spec))
        assert back.kind == "per_point_mlp"
        x = rng.standard_normal((2, 4))
        assert np.array_equal(back.apply_real(x), spec.apply_real(x))

    @pytest.mark.parametrize("reader,text,match", [
        (kernel_spec_from_json, '{"m_in": 0, "m_out": 0, "bandwidth": 4}',
         "kernel spec: missing key.* coeffs"),
        (activation_spec_from_json, '{"weights": []}',
         "activation spec: missing key.* kind"),
        (kernel_spec_from_json, '{"m_in": 0,', "kernel spec: invalid JSON"),
        (activation_spec_from_json, "[relu", "activation spec: invalid JSON"),
        (kernel_spec_from_json, '{"m_in": 0, "m_out": 0, "bandwidth": 4, '
         '"coeffs": [[[[1.0], [2.0], [3.0], [4.0]]]]}', "kernel spec: coeffs"),
    ], ids=["kernel-missing-key", "activation-missing-key", "kernel-bad-json",
            "activation-bad-json", "kernel-coeff-not-a-pair"])
    def test_malformed_spec(self, reader, text, match):
        with pytest.raises(FieldFormatError, match=match):
            reader(text)

    @pytest.mark.parametrize("key", ["m_in", "m_out", "bandwidth"])
    @pytest.mark.parametrize("value", ['"x"', "1.7", "true"],
                             ids=["string", "float", "bool"])
    def test_kernel_integers_are_json_integers(self, key, value):
        doc = kernel_spec_to_json(SparseKernelSpec(1, 1, 3,
                                                   np.ones((1, 1, 2))))
        text = re.sub(rf'"{key}":-?\d+', f'"{key}":{value}', doc)
        with pytest.raises(FieldFormatError,
                           match=f"kernel spec: {key} must be an integer"):
            kernel_spec_from_json(text)

    @pytest.mark.parametrize("text,key", [
        ('{"kind": "swish"}', "kind"),
        ('{"kind": "relu", "weights": 5}', "weights"),
        ('{"kind": "per_point_mlp", "weights": [[[[1.0]], [0.0], [1.0]]]}',
         "weights"),
        ('{"kind": "per_point_mlp", "weights": [[[["a"]], [0.0]]]}', "weights"),
        ('{"kind": "per_point_mlp", "weights": []}', "weights"),
        ('{"kind": "per_point_mlp", "weights": [[1.0, 2.0]]}', "weights"),
        ('{"kind": "per_point_mlp", "weights": [[[[1.0]], [0.0, 0.0]]]}',
         "weights"),
        ('{"kind": "per_point_mlp", "weights": '
         '[[[[1.0, 2.0]], [0.0]], [[[1.0, 2.0]], [0.0]]]}', "weights"),
        ('{"kind": "tanh", "weights": [[[[1.0]], [0.0]]]}', "weights"),
    ], ids=["unknown-kind", "weights-not-a-list", "entry-not-a-pair",
            "non-numeric", "mlp-without-weights", "scalar-layer",
            "bias-not-of-the-rows", "layers-do-not-chain", "tanh-with-weights"])
    def test_activation_errors_name_the_key(self, text, key):
        with pytest.raises(FieldFormatError, match=f"activation spec: {key}"):
            activation_spec_from_json(text)


def _saved_doc(tmp_path, space: str) -> dict:
    """A valid field document of the space, as its saver writes it."""
    path = tmp_path / f"saved-{space}.json"
    fields = random_s2_fields()
    fields[0].samples[0, 0, 0] = complex(-0.0, 1.0)
    if space == "S2":
        save_fields(path, fields)
    elif space == "SO3":
        save_fields(path, [lift(fields[1])])
    else:
        save_point_cloud(path, PointCloud(rng.uniform(-1, 1, (4, 3)),
                                          [rng.standard_normal((4, 1, 2)),
                                           rng.standard_normal((4, 3, 2))]))
    return json.loads(path.read_text())


def _set(doc, keys, value):
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value


def _csv_rows(lines):
    return [i for i, l in enumerate(lines) if l[:1].isdigit()]


def _edit_row(lines, k, edit):
    """Replace the k-th data row of CSV lines by edit(row)."""
    i = _csv_rows(lines)[k]
    lines[i] = edit(lines[i])


# name -> (space, change to the JSON document or to the CSV lines, valid)
JSON_CORPUS = {
    "s2": ("S2", None, True),
    "so3": ("SO3", None, True),
    "cloud": ("R3points", None, True),
    "s2-three-nodes": ("S2", lambda d: _set(
        d, ("data", 0), [c[:3] for c in d["data"][0]]), False),
    "s2-dimension-2": ("S2", lambda d: _set(
        d, ("data", 0), [[n * 2 for n in c] for c in d["data"][0]]), False),
    "so3-node-missing": ("SO3", lambda d: _set(
        d, ("data", 0), [c[1:] for c in d["data"][0]]), False),
    "cloud-order-1-of-dimension-1": ("R3points", lambda d: _set(
        d, ("data", 1), [[n[:1] for n in c] for c in d["data"][1]]), False),
    "s2-nan": ("S2", lambda d: _set(d, ("data", 1, 0, 2, 0, 1), math.nan),
               False),
    "so3-inf": ("SO3", lambda d: _set(d, ("data", 0, 1, 5, 0, 0), math.inf),
                False),
    "cloud-imaginary-part": ("R3points", lambda d: _set(
        d, ("data", 0, 0, 1, 0, 1), 0.5), False),
    "cloud-position-nan": ("R3points", lambda d: _set(
        d, ("positions", 2, 1), math.nan), False),
    # zero-size blocks as JSON writes them: an empty nest
    "s2-no-channels": ("S2", lambda d: d.update(channels=0, data=[[], []]),
                       True),
    "cloud-no-points": ("R3points", lambda d: d.update(
        positions=[], data=[[[], []], [[], []]]), True),
    "cloud-no-points-one-node": ("R3points", lambda d: d.update(
        positions=[], data=[[[[]], [[]]], [[], []]]), False),
    "cloud-no-points-ragged": ("R3points", lambda d: d.update(
        positions=[], data=[[[], [[[0.0, 0.0]]]], [[], []]]), False),
}
CSV_CORPUS = {
    "s2": ("S2", None, True),
    "so3": ("SO3", None, True),
    "cloud": ("R3points", None, True),
    "row-dropped": ("S2", lambda ls: ls.pop(_csv_rows(ls)[7]), False),
    "last-row-dropped": ("S2", lambda ls: ls.pop(), False),
    "row-duplicated": ("S2", lambda ls: ls.append(ls[_csv_rows(ls)[3]]),
                       False),
    "node-negative": ("S2", lambda ls: _edit_row(
        ls, -1, lambda r: r.replace(",35,0,", ",-1,0,")), False),
    "field-index-unknown": ("S2", lambda ls: ls.append("5,0,0,0,0,1.0,0.0"),
                            False),
    "order-disagrees": ("S2", lambda ls: _edit_row(
        ls, 0, lambda r: r.replace("0,0,0,0,0,", "0,7,0,0,0,", 1)), False),
    "no-field-orders": ("S2", lambda ls: ls.remove(
        next(l for l in ls if l.startswith("# field_orders="))), False),
    "value-nan": ("S2", lambda ls: _edit_row(
        ls, 2, lambda r: r.rsplit(",", 1)[0] + ",nan"), False),
    "cloud-imaginary-part": ("R3points", lambda ls: _edit_row(
        ls, 0, lambda r: r.rsplit(",", 1)[0] + ",0.5"), False),
}


class TestOneDecoder:
    """Both loaders and both directions of convert accept exactly the valid
    field files, and valid files keep their bytes."""

    @staticmethod
    def _load(path, space):
        return (load_point_cloud if space == "R3points" else load_fields)(path)

    @pytest.mark.parametrize("name", JSON_CORPUS)
    def test_json_loader_rejects_iff_convert_exits_3(self, tmp_path, name):
        space, change, valid = JSON_CORPUS[name]
        doc = _saved_doc(tmp_path, space)
        if change:
            change(doc)
        path, out = tmp_path / "f.json", tmp_path / "f.csv"
        path.write_text(json.dumps(doc))
        try:
            self._load(path, space)
            rejected = False
        except FieldFormatError:
            rejected = True
        code = main(["convert", str(path), str(out)])
        assert rejected == (code == 3 and not out.exists()) == (not valid)
        assert code in (0, 3)

    @pytest.mark.parametrize("name", CSV_CORPUS)
    def test_csv_convert_exits_3_iff_invalid(self, tmp_path, name, capsys):
        space, change, valid = CSV_CORPUS[name]
        path, csv, out = (tmp_path / "f.json", tmp_path / "f.csv",
                          tmp_path / "back.json")
        path.write_text(json.dumps(_saved_doc(tmp_path, space)))
        assert main(["convert", str(path), str(csv)]) == 0
        lines = csv.read_text().splitlines()
        if change:
            change(lines)
        csv.write_text("\n".join(lines) + "\n")
        code = main(["convert", str(csv), str(out)])
        err = capsys.readouterr().err
        if valid:
            assert code == 0 and self._load(out, space)
        else:
            assert code == 3 and not out.exists()
            assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("name,match", [
        ("row-dropped", r"field 0 has no row for cell \(0, 7, 0\)"),
        ("row-duplicated", r"line 151: repeats the cell of line 10"),
        ("node-negative",
         r"line 150: field 1 of order 1 has no cell \(1, -1, 0\)"),
        ("field-index-unknown", r"line 151: field 5 of order 0 has no cell"),
        ("order-disagrees", r"line 7: field 0 of order 7 has no cell"),
    ], ids=["row-dropped", "row-duplicated", "node-negative",
            "field-index-unknown", "order-disagrees"])
    def test_csv_errors_name_the_line_or_the_cell(self, tmp_path, name,
                                                  match):
        path, csv = tmp_path / "f.json", tmp_path / "f.csv"
        save_fields(path, random_s2_fields())     # 144 rows, lines 7-150
        convert_field(path, csv)
        lines = csv.read_text().splitlines()
        CSV_CORPUS[name][1](lines)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FieldFormatError, match=match):
            convert_field(csv, tmp_path / "back.json")

    @pytest.mark.parametrize("space", ["S2", "SO3", "R3points"])
    def test_valid_files_round_trip_bit_for_bit(self, tmp_path, space):
        csv, back = tmp_path / "f.csv", tmp_path / "back.json"
        _saved_doc(tmp_path, space)
        saved = tmp_path / f"saved-{space}.json"
        convert_field(saved, csv)
        convert_field(csv, back)
        assert back.read_bytes() == saved.read_bytes()
        if space == "S2":                     # the -0.0 real part survives
            assert "\n0,0,0,0,0,-0.0,1.0\n" in csv.read_text()

    def test_zero_size_blocks_load_and_convert(self, tmp_path):
        # JSON writes a zero-size block as an empty nest: [] for no channels,
        # one [] per channel for no points
        grid = quadrature_grid("S2", 2)
        save_fields(tmp_path / "f.json", [
            TensorField(grid, FieldType(k), np.zeros((0, 16, 1)))
            for k in (1, 0)])
        save_point_cloud(tmp_path / "p.json", PointCloud(
            np.zeros((0, 3)), [np.zeros((0, 1, 2)), None, np.zeros((0, 5, 2))]))
        assert '"data":[[],[]]' in (tmp_path / "f.json").read_text()
        assert '"data":[[[],[]],[[],[]]]' in (tmp_path / "p.json").read_text()
        for name in ("f", "p"):
            saved, back = tmp_path / f"{name}.json", tmp_path / f"{name}2.json"
            convert_field(saved, tmp_path / f"{name}.csv")
            convert_field(tmp_path / f"{name}.csv", back)
            assert back.read_bytes() == saved.read_bytes()
            if name == "f":
                assert [f.samples.shape for f in load_fields(back)] == [
                    (0, 16, 1)] * 2
            else:
                cloud = load_point_cloud(back)
                assert cloud.positions.shape == (0, 3)
                assert [None if f is None else f.shape
                        for f in cloud.features] == [(0, 1, 2), None, (0, 5, 2)]

    @pytest.mark.parametrize("space", ["S2", "SO3"])
    def test_huge_header_is_rejected_before_any_grid(self, tmp_path, space):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({
            "format_version": 1, "space": space, "bandwidth": 512,
            "field_orders": [0 if space == "S2" else None], "channels": 1,
            "data": [[[[[1.0, 0.0]]]]]}))
        tracemalloc.start()
        try:
            with pytest.raises(FieldFormatError, match="holds 1 nodes"):
                load_fields(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert main(["convert", str(path), str(tmp_path / "f.csv")]) == 3

    @pytest.mark.parametrize("block", [5, {"re": 0}])
    def test_huge_channels_of_no_points_are_rejected_unbuilt(self, tmp_path,
                                                             block):
        # a cloud of no points has zero size at any channel count, so the
        # header's 10^9 channels must not be materialised to compare
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "format_version": 1, "space": "R3points", "positions": [],
            "field_orders": [0], "channels": 10 ** 9, "data": [block]}))
        tracemalloc.start()
        try:
            with pytest.raises(FieldFormatError):
                load_point_cloud(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert main(["convert", str(path), str(tmp_path / "c.csv")]) == 3

    @staticmethod
    def _no_point_csv(path, channels: int, orders: str) -> int:
        path.write_text("\n".join([
            "# format_version=1", "# space=R3points", f"# channels={channels}",
            f"# field_orders={orders}",
            "field_index,order,channel,node,dim,re,im"]) + "\n")
        return path.stat().st_size

    def test_channels_of_no_points_are_bounded_by_the_csv(self, tmp_path):
        # a 113-byte CSV of no points claiming 10^6 channels has no rows to
        # match them, so its size bounds the empty entries JSON would write
        path, out = tmp_path / "c.csv", tmp_path / "c.json"
        self._no_point_csv(path, 10 ** 6, "0")
        tracemalloc.start()
        try:
            with pytest.raises(FieldFormatError,
                               match="10+ empty channel entries"):
                convert_field(path, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20 and not out.exists()
        assert main(["convert", str(path), str(out)]) == 3
        assert not out.exists()

    def test_no_point_csv_bound_is_one_entry_per_byte(self, tmp_path):
        path, out = tmp_path / "c.csv", tmp_path / "c.json"
        size = self._no_point_csv(path, 50, "0,2")     # 2 blocks, 2 digits
        assert self._no_point_csv(path, size // 2, "0,2") == size
        convert_field(path, out)
        assert json.loads(out.read_text())["data"] == [[[]] * (size // 2)] * 2
        out.unlink()
        self._no_point_csv(path, size // 2 + 1, "0,2")
        with pytest.raises(FieldFormatError, match="empty channel entries"):
            convert_field(path, out)
        assert not out.exists()

    def test_three_channels_of_no_points_round_trip(self, tmp_path):
        saved, csv, back = (tmp_path / "c.json", tmp_path / "c.csv",
                            tmp_path / "back.json")
        save_point_cloud(saved, PointCloud(np.zeros((0, 3)), [
            np.zeros((0, 1, 3)), np.zeros((0, 3, 3)), np.zeros((0, 5, 3))]))
        convert_field(saved, csv)
        convert_field(csv, back)
        assert back.read_bytes() == saved.read_bytes()


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["homharm"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


class TestCli:
    def test_parser_reads_defaults_and_bounds_from_checks(self, capsys):
        from homharm import checks
        from homharm.cli import _build_parser
        args = _build_parser().parse_args(["check"])
        config = checks.default_config()
        assert {key: getattr(args, key) for key in config} == config
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        least = checks._LEAST
        for phrase in (f"{least['bandwidth']} to {checks._MAX_BANDWIDTH} "
                       f"(default {config['bandwidth']})",
                       f"{least['trials']} to {checks._MAX_TRIALS} "
                       f"(default {config['trials']})",
                       f"at most {checks._MAX_WORK_BANDWIDTH} "
                       f"(default {config['oversample']})",
                       f"at least {least['seed']} (default {config['seed']})"):
            assert phrase in text

    def test_check_reports_are_byte_identical(self, tmp_path):
        args = ["check", "--suite", "transforms", "--bandwidth", "3",
                "--seed", "7"]
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--report", str(p1)]) == 0
        assert main(args + ["--report", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert all(c["wall_time_ms"] is None for c in doc["checks"])
        names = [c["name"] for c in doc["checks"]]
        assert names == sorted(names)

    def test_csv_report(self, tmp_path):
        path = tmp_path / "r.csv"
        code = main(["check", "--suite", "sparsity", "--bandwidth", "3",
                     "--report", str(path), "--format", "csv"])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "name,measured_error,tolerance,passed,seed,wall_time_ms"
        doc_lines = [l for l in lines[1:] if l]
        assert len(doc_lines) >= 3

    def test_failing_tolerance_sets_exit_code(self, monkeypatch, capsys):
        # an impossible tolerance forces a failure -> exit code 1; a measured
        # error can round to exactly 0.0, so only a negative one is impossible
        from homharm import checks
        monkeypatch.setitem(checks.SUITES, "transforms", [
            (name, fn, -1.0 if name == "parseval" else tol)
            for name, fn, tol in checks.SUITES["transforms"]])
        assert main(["check", "--suite", "transforms", "--bandwidth", "3",
                     "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [l.split()[:2] for l in lines if not l.startswith("PASS")] == [
            ["FAIL", "parseval"], ["CHECK", "FAILURES"]]

    def test_usage_errors(self, capsys):
        for argv in (["--suite", "nope"], ["--bandwidth", "0"],
                     ["--bandwidth", "1"], ["--trials", "0"],
                     ["--oversample", "0"], ["--seed", "-1"]):
            assert main(["check", *argv]) == 2, argv
            out, err = capsys.readouterr()
            assert out == "", argv                  # no check ran
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), argv

    def test_config_gate_runs_before_any_check(self, monkeypatch):
        from homharm import checks

        def must_not_run(rng, cfg):
            raise AssertionError("a check ran")

        monkeypatch.setattr(checks, "SUITES", {
            suite: [(name, must_not_run, tol) for name, _, tol in entries]
            for suite, entries in checks.SUITES.items()})
        for bad in ({"bandwidth": 1}, {"trials": 0}, {"oversample": 0},
                    {"seed": -1}, {"bandwith": 3}, {"tolerances": {}},
                    {"bandwidth": 8.5}, {"bandwidth": "8"}, {"seed": 1.5},
                    {"trials": 2.5}, {"oversample": 1.5}, {"bandwidth": True},
                    {"seed": np.float64(1.0)}):
            with pytest.raises(checks.CheckConfigError, match=next(iter(bad))):
                checks.run_suite("all", bad)
        with pytest.raises(checks.CheckConfigError, match="unknown suite"):
            checks.run_suite("nope")

    def test_numpy_integer_config_reports_like_int(self):
        from homharm import checks

        want = checks.run_suite("transforms", {"bandwidth": 2, "seed": 3})
        got = checks.run_suite("transforms", {"bandwidth": np.int64(2),
                                              "seed": np.uint8(3)})
        assert got.to_json_bytes() == want.to_json_bytes()

    def test_upper_bounds_are_usage_errors(self, capsys, monkeypatch):
        # the gate rejects these before anything is allocated or run
        from homharm import checks

        def must_not_run(rng, cfg):
            raise AssertionError("a check ran")

        monkeypatch.setattr(checks, "SUITES", {
            suite: [(name, must_not_run, tol) for name, _, tol in entries]
            for suite, entries in checks.SUITES.items()})
        for argv, match in (
                (["--bandwidth", str(10 ** 9)], "bandwidth must be at most 128"),
                (["--bandwidth", "129", "--oversample", "1"], "at most 128"),
                (["--oversample", str(10 ** 9)], "bandwidth \\* oversample"),
                (["--bandwidth", "128", "--oversample", "3"], "at most 256"),
                (["--bandwidth", "2", "--oversample", "129"], "at most 256"),
                (["--trials", "1025"], "trials must be at most 1024")):
            assert main(["check", *argv]) == 2, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert re.search(match, err), (argv, err)
        # the largest accepted sizes pass the gate (every check then runs)
        for suite, cfg in (("transforms", {"bandwidth": 128, "oversample": 2}),
                           ("transforms", {"bandwidth": 2, "oversample": 128}),
                           ("se2", {"bandwidth": 2, "trials": 1024})):
            report = checks.run_suite(suite, cfg)
            assert report.checks and all(
                c.error == "AssertionError: a check ran" for c in report.checks)

    def _break_one_check(self, monkeypatch):
        """Make the first transforms check raise; return its name."""
        from homharm import checks

        def broken(rng, cfg):
            raise ValueError("broken check")

        (name, _, tol), *rest = checks.SUITES["transforms"]
        monkeypatch.setitem(checks.SUITES, "transforms",
                            [(name, broken, tol), *rest])
        return name

    def test_error_inside_a_check_is_not_a_usage_error(self, monkeypatch,
                                                         capsys, tmp_path):
        name = self._break_one_check(monkeypatch)
        path = tmp_path / "r.json"
        assert main(["check", "--suite", "transforms", "--bandwidth", "3",
                     "--report", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        lines = out.splitlines()
        errors = [l for l in lines if l.startswith("ERROR")]
        assert errors == [l for l in lines if name in l]
        assert len(errors) == 1 and errors[0].split()[1] == name
        assert "ValueError: broken check" in errors[0]
        # the other checks still ran, and passed
        assert sum(l.startswith("PASS") for l in lines) == len(lines) - 2
        doc = json.loads(path.read_text())
        entry = next(c for c in doc["checks"] if c["name"] == name)
        assert entry["passed"] is False and entry["measured_error"] == math.inf

    def test_a_raising_check_fails_and_the_rest_run(self, monkeypatch):
        from homharm import checks

        name = self._break_one_check(monkeypatch)
        (_, broken_fn, _), *rest = checks.SUITES["transforms"]
        monkeypatch.setitem(checks.SUITES, "transforms",
                            [(name, broken_fn, math.inf), *rest])
        report = checks.run_suite("transforms", {"bandwidth": 3, "seed": 1})
        assert len(report.checks) == len(checks.SUITES["transforms"])
        broken = [c for c in report.checks if c.error is not None]
        assert [c.name for c in broken] == [name]
        assert broken[0].error == "ValueError: broken check"
        # failed even under an infinite tolerance
        assert broken[0].measured_error == math.inf and not broken[0].passed
        assert not report.passed
        assert all(c.passed for c in report.checks if c.name != name)

    def test_report_fields_without_errors(self, tmp_path):
        path = tmp_path / "r.json"
        assert main(["check", "--suite", "sparsity", "--bandwidth", "3",
                     "--report", str(path)]) == 0
        for c in json.loads(path.read_text())["checks"]:
            assert set(c) == {"name", "measured_error", "tolerance", "passed",
                              "seed", "wall_time_ms"}

    def test_io_error_on_convert(self, tmp_path):
        missing = tmp_path / "missing.json"
        out = tmp_path / "out.csv"
        assert main(["convert", str(missing), str(out)]) == 3

    @pytest.mark.parametrize("name,content", [
        ("bad.json", b"\xff\xfe\x00bad"),
        ("bad.csv", b"\xff\xfe\x00bad"),
        ("deep.json", b"[" * 100_000),
        ("long.json", b'{"format_version": ' + b"1" * 5000 + b"}"),
    ], ids=["undecodable-json", "undecodable-csv", "nested-json",
            "long-integer-json"])
    def test_unreadable_file_is_a_format_error(self, tmp_path, capsys, name,
                                               content):
        path = tmp_path / name
        path.write_bytes(content)
        out = tmp_path / ("out.csv" if name.endswith(".json") else "out.json")
        assert main(["convert", str(path), str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()
        if name.endswith(".json"):
            for load in (load_fields, load_point_cloud):
                with pytest.raises(FieldFormatError, match=name):
                    load(path)
        else:
            with pytest.raises(FieldFormatError, match=name):
                load_xyz(path)

    @pytest.mark.parametrize("key", ["channels", "bandwidth", "field_orders",
                                     "data"])
    def test_missing_key_is_a_format_error(self, tmp_path, key):
        path = tmp_path / "f.json"
        save_fields(path, random_s2_fields())
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match=key):
            load_fields(path)
        assert main(["convert", str(path), str(tmp_path / "f.csv")]) == 3

    @pytest.mark.parametrize("space,key,value,match", [
        ("S2", "bandwidth", "two", "bandwidth must be"),
        ("S2", "bandwidth", 0, "bandwidth must be"),
        ("S2", "bandwidth", 2.7, "bandwidth must be"),
        ("S2", "bandwidth", True, "bandwidth must be"),
        ("S2", "field_orders", [None, 1], "field order must be"),
        ("S2", "field_orders", ["x", 1], "field order must be"),
        ("S2", "field_orders", [0.5, 1], "field order must be"),
        ("R3points", "field_orders", [-1], "field order must be"),
        ("S2", "space", "foo", "space must be"),
    ], ids=["bandwidth-str", "bandwidth-0", "bandwidth-float", "bandwidth-bool",
            "order-null", "order-str", "order-float", "cloud-order-negative",
            "space-unknown"])
    def test_invalid_header_value(self, tmp_path, space, key, value, match):
        path = tmp_path / "f.json"
        if space == "S2":
            save_fields(path, random_s2_fields())
        else:
            save_point_cloud(path, PointCloud(np.zeros((2, 3)),
                                              [np.ones((2, 1, 1))]))
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match=match):
            (load_fields if space == "S2" else load_point_cloud)(path)
        assert main(["convert", str(path), str(tmp_path / "f.csv")]) == 3

    @pytest.mark.parametrize("space,keys,value,match", [
        ("S2", ("data", 0), 5, r"data\[0\]"),
        ("S2", ("data", 0, 0, 0, 0), [1.0, 2.0, 3.0], r"data\[0\]"),
        ("R3points", ("positions",), 5, "positions"),
    ], ids=["block-not-nested", "three-number-entry", "positions-not-a-list"])
    def test_malformed_json_writes_no_csv(self, tmp_path, space, keys, value,
                                          match):
        path = tmp_path / "f.json"
        if space == "S2":
            save_fields(path, random_s2_fields())
        else:
            save_point_cloud(path, PointCloud(np.zeros((2, 3)),
                                              [np.ones((2, 1, 1))]))
        doc = json.loads(path.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match=match):
            (load_fields if space == "S2" else load_point_cloud)(path)
        out = tmp_path / "f.csv"
        assert main(["convert", str(path), str(out)]) == 3
        assert not out.exists()

    def test_orders_and_data_of_unequal_length(self, tmp_path):
        path = tmp_path / "f.json"
        save_fields(path, random_s2_fields())
        doc = json.loads(path.read_text())
        doc["data"] = doc["data"][:1]
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match="equal length"):
            load_fields(path)
        assert main(["convert", str(path), str(tmp_path / "f.csv")]) == 3
        cloud = tmp_path / "cloud.json"
        save_point_cloud(cloud, PointCloud(np.zeros((2, 3)),
                                           [np.ones((2, 1, 1))]))
        doc = json.loads(cloud.read_text())
        doc["field_orders"] = [0, 1]
        cloud.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match="equal length"):
            load_point_cloud(cloud)

    @pytest.mark.parametrize("line", ["# format_version=one",
                                      "# field_orders=zero",
                                      "# channels=two"])
    def test_non_integer_csv_metadata(self, tmp_path, line):
        p_json, p_csv = tmp_path / "f.json", tmp_path / "f.csv"
        save_fields(p_json, random_s2_fields())
        convert_field(p_json, p_csv)
        key = line.split("=")[0]
        lines = [line if l.startswith(key + "=") else l
                 for l in p_csv.read_text().splitlines()]
        assert line in lines
        p_csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(FieldFormatError, match="non-numeric"):
            convert_field(p_csv, tmp_path / "back.json")
        assert main(["convert", str(p_csv), str(tmp_path / "back.json")]) == 3

    @pytest.mark.parametrize("key,line", [
        ("# bandwidth", None),
        ("# bandwidth", "# bandwidth=0"),
        ("# space", "# space=foo"),
        ("# field_orders", "# field_orders=None,1"),
    ], ids=["no-bandwidth", "bandwidth-0", "unknown-space", "s2-order-none"])
    def test_invalid_csv_writes_no_json(self, tmp_path, key, line):
        p_json, p_csv = tmp_path / "f.json", tmp_path / "f.csv"
        save_fields(p_json, random_s2_fields())
        convert_field(p_json, p_csv)
        lines = [line if l.startswith(key + "=") else l
                 for l in p_csv.read_text().splitlines()]
        p_csv.write_text("\n".join(l for l in lines if l is not None) + "\n")
        out = tmp_path / "back.json"
        assert main(["convert", str(p_csv), str(out)]) == 3
        assert not out.exists()

    def test_csv_without_data_rows(self, tmp_path):
        p_json, p_csv = tmp_path / "f.json", tmp_path / "f.csv"
        save_fields(p_json, random_s2_fields())
        convert_field(p_json, p_csv)
        lines = p_csv.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        p_csv.write_text("\n".join(lines[:header_idx + 1]) + "\n")
        assert main(["convert", str(p_csv), str(tmp_path / "back.json")]) == 3

    def test_report_write_failure(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "r.json"
        code = main(["check", "--suite", "sparsity", "--bandwidth", "3",
                     "--report", str(target)])
        assert code == 3
