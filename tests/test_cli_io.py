import json

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
    return [TensorField(grid, FieldType("SO2", k),
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


class TestCli:
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

    def test_failing_tolerance_sets_exit_code(self, tmp_path, capsys):
        # an impossible tolerance forces a failure -> exit code 1; a measured
        # error can round to exactly 0.0, so only a negative one is impossible
        from homharm import checks
        cfg_patch = {"tolerances": {"parseval": -1.0}}
        report = checks.run_suite("transforms", {"bandwidth": 3, "seed": 1,
                                                 **cfg_patch})
        assert not report.passed

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
                    {"seed": -1}):
            with pytest.raises(checks.CheckConfigError, match=next(iter(bad))):
                checks.run_suite("all", bad)
        with pytest.raises(checks.CheckConfigError, match="unknown suite"):
            checks.run_suite("nope")

    def test_error_inside_a_check_is_not_a_usage_error(self, monkeypatch):
        from homharm import checks

        def broken(rng, cfg):
            raise ValueError("broken check")

        monkeypatch.setattr(checks, "SUITES", {"transforms": [
            ("broken", broken, 1.0)]})
        with pytest.raises(ValueError, match="broken check"):
            main(["check", "--suite", "transforms"])

    def test_io_error_on_convert(self, tmp_path):
        missing = tmp_path / "missing.json"
        out = tmp_path / "out.csv"
        assert main(["convert", str(missing), str(out)]) == 3

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
