"""The benchmark's S^2-layer and SE(3)-cloud workloads at their smoke sizes:
four ops each, every one passing the workload's own verification (the
rotation_pair, conv_stage and rototranslation_pair gates)."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,cls", [("s2-layer-b32", "S2Layer"),
                                      ("se3-cloud-n256", "SE3Cloud")])
def test_smoke_ops_verify(name, cls):
    wspec = json.loads((BENCH / "spec.json").read_text())["workloads"][name]
    params = {**wspec["params"], **wspec["smoke_params"],
              "tolerances": wspec.get("tolerances", {})}
    workload = getattr(_workloads(), cls)(params, seed=1)
    for i in range(4):
        assert workload.verify(i, workload.op(i)) is None, (name, i)
