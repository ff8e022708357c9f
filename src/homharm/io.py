"""On-disk formats: field files (JSON canonical, CSV for plotting), kernel
and activation specs, and point-cloud import.

Field file layout (format_version 1):

    {
      "format_version": 1,
      "space": "S2" | "SO3" | "R3points",
      "bandwidth": B,                  # grids only
      "field_orders": [k0, k1, ...],   # one entry per stored field block
      "channels": C,
      "data": [block0, block1, ...],   # one block per order, each block
                                       # row-major [channel][node][dim]
                                       # entries are [re, im] pairs
      "positions": [[x, y, z], ...]    # R3points only
    }

Floats are serialized with Python's shortest round-trip repr, which is
lossless at double precision (at most 17 significant digits).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .groups import quadrature_grid
from .fields import FieldType, GroupFunction, TensorField
from .nonlin import ActivationSpec
from .se_kernels import PointCloud
from .spectral_conv import SparseKernelSpec

__all__ = [
    "save_fields", "load_fields", "save_point_cloud", "load_point_cloud",
    "convert_field", "kernel_spec_to_json", "kernel_spec_from_json",
    "activation_spec_to_json", "activation_spec_from_json", "load_xyz",
    "FieldFormatError",
]

FORMAT_VERSION = 1


class FieldFormatError(ValueError):
    """Raised for malformed or unsupported field files, with context."""


def _pairs(block: np.ndarray) -> list:
    """Complex array -> nested lists of [re, im] pairs (a last axis of 2)."""
    stacked = np.stack([block.real, block.imag], axis=-1)
    return stacked.tolist()


def _float_array(data, ndim: int, last: int, where: str, expected: str) -> np.ndarray:
    """data as a float array of ndim axes, the last of length last."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):                   # ragged or non-numeric
        arr = None
    if arr is None or arr.ndim != ndim or arr.shape[-1] != last:
        got = "a ragged or non-numeric list" if arr is None else f"shape {arr.shape}"
        raise FieldFormatError(f"{where}: expected {expected}, got {got}")
    return arr


def _pair_array(data, where: str) -> np.ndarray:
    return _float_array(data, 4, 2, where, "[channel][node][dim] of [re, im] pairs")


def _unpairs(arr: np.ndarray) -> np.ndarray:
    """[..., 2] float [re, im] pairs -> [...] complex, bit for bit (a real
    part -0.0 stays -0.0, which re + 1j * im would make +0.0)."""
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def _positions(doc: dict, path: str) -> np.ndarray:
    """The positions as an [n, 3] array; an empty list is a cloud of n = 0."""
    data = doc["positions"]
    return _float_array(np.zeros((0, 3)) if data == [] else data, 2, 3,
                        f"{path}: positions", "a list of [x, y, z]")


def _dump(doc: dict, path: str):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _is_int(value) -> bool:
    """A JSON integer (bool is an int subclass in Python, not in JSON)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read_doc(path: str) -> dict:
    """Read a JSON field document and check it with _check_doc."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise FieldFormatError(f"{path}: invalid JSON at line {e.lineno}, "
                               f"column {e.colno}: {e.msg}") from e
    return _check_doc(doc, path)


def _check_doc(doc, path: str) -> dict:
    """Return a field document unchanged, or reject it: not an object,
    another version, a missing required key, an unknown space, field_orders
    and data of unequal length, a grid bandwidth that is not an integer
    >= 1, or a field order that is not an integer (null is allowed in SO3
    files, negative orders are not allowed in point clouds).
    """
    if not isinstance(doc, dict):
        raise FieldFormatError(f"{path}: expected a JSON object")
    v = doc.get("format_version")
    if v != FORMAT_VERSION:
        raise FieldFormatError(f"{path}: unsupported format_version {v!r} "
                               f"(this reader handles {FORMAT_VERSION})")
    extra = "positions" if doc.get("space") == "R3points" else "bandwidth"
    missing = [key for key in ("space", "channels", "field_orders", "data", extra)
               if key not in doc]
    if missing:
        raise FieldFormatError(f"{path}: missing key(s) {', '.join(missing)}")
    space = doc["space"]
    if space not in ("S2", "SO3", "R3points"):
        raise FieldFormatError(f"{path}: space must be S2, SO3 or R3points, "
                               f"got {space!r}")
    orders, data = doc["field_orders"], doc["data"]
    if not (isinstance(orders, list) and isinstance(data, list)
            and len(orders) == len(data)):
        raise FieldFormatError(f"{path}: field_orders and data must be lists "
                               f"of equal length")
    if space != "R3points" and not (_is_int(doc["bandwidth"])
                                    and doc["bandwidth"] >= 1):
        raise FieldFormatError(f"{path}: bandwidth must be an integer >= 1, "
                               f"got {doc['bandwidth']!r}")
    for order in orders:
        if order is None and space == "SO3":
            continue
        if not _is_int(order) or (space == "R3points" and order < 0):
            kind = "a non-negative integer" if space == "R3points" else "an integer"
            raise FieldFormatError(f"{path}: field order must be {kind}, "
                                   f"got {order!r}")
    return doc


# ---------------------------------------------------------------------------
# Grid fields and group functions
# ---------------------------------------------------------------------------


def save_fields(path: str, fields: list):
    """Write TensorFields (shared S2 grid) or GroupFunctions (SO3) as JSON."""
    if not fields:
        raise ValueError("nothing to save")
    first = fields[0]
    if isinstance(first, GroupFunction):
        space = "SO3"
        orders = [None] * len(fields)
    else:
        space = first.grid.space
        orders = [f.field_type.order for f in fields]
    B = first.grid.bandwidth
    doc = {
        "format_version": FORMAT_VERSION,
        "space": space,
        "bandwidth": B,
        "field_orders": orders,
        "channels": first.channels,
        "data": [_pairs(f.samples) for f in fields],
    }
    _dump(doc, path)


def load_fields(path: str) -> list:
    """Read a field file back into TensorFields or GroupFunctions."""
    doc = _read_doc(path)
    space = doc["space"]
    if space not in ("S2", "SO3"):
        raise FieldFormatError(f"{path}: space must be S2 or SO3 in a grid "
                               f"field file, got {space!r}")
    grid = quadrature_grid(space, doc["bandwidth"])
    out = []
    for idx, (order, block) in enumerate(zip(doc["field_orders"], doc["data"])):
        samples = _unpairs(_pair_array(block, f"{path}: data[{idx}]"))
        if samples.shape[1] != grid.n_nodes:
            raise FieldFormatError(f"{path}: data[{idx}] has {samples.shape[1]} "
                                   f"nodes, grid expects {grid.n_nodes}")
        if space == "SO3":
            out.append(GroupFunction(grid, samples.reshape(samples.shape[0], -1)))
        else:
            out.append(TensorField(grid, FieldType("SO2", order), samples))
    return out


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------


def save_point_cloud(path: str, cloud: PointCloud):
    orders = [l for l, f in enumerate(cloud.features) if f is not None]
    channels = cloud.features[orders[0]].shape[2] if orders else 0
    data = []
    for l in orders:
        f = cloud.features[l]                         # [n, 2l+1, c] real
        block = np.transpose(f, (2, 0, 1)).astype(complex)
        data.append(_pairs(block))
    doc = {
        "format_version": FORMAT_VERSION,
        "space": "R3points",
        "field_orders": orders,
        "channels": channels,
        "positions": cloud.positions.tolist(),
        "data": data,
    }
    _dump(doc, path)


def load_point_cloud(path: str) -> PointCloud:
    doc = _read_doc(path)
    if doc["space"] != "R3points":
        raise FieldFormatError(f"{path}: expected space R3points, got "
                               f"{doc['space']!r}")
    positions = _positions(doc, path)
    orders = doc["field_orders"]
    features: list = [None] * (max(orders) + 1 if orders else 0)
    for l, block in zip(orders, doc["data"]):
        arr = _unpairs(_pair_array(block, f"{path}: order {l}"))
        features[l] = np.transpose(arr.real, (1, 2, 0))
    return PointCloud(positions, features)


def load_xyz(path: str) -> np.ndarray:
    """Import positions from XYZ-style text: one 'label x y z' line per atom;
    an optional leading count line and comment line are skipped.
    """
    positions = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = 0
    if lines and lines[0].strip().isdigit():
        start = 2
    for ln, line in enumerate(lines[start:], start=start + 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 4:
            raise FieldFormatError(f"{path}: line {ln}: expected "
                                   f"'label x y z', got {line!r}")
        try:
            positions.append([float(p) for p in parts[1:4]])
        except ValueError as e:
            raise FieldFormatError(f"{path}: line {ln}: non-numeric "
                                   f"coordinate in {line!r}") from e
    return np.asarray(positions, dtype=float)


# ---------------------------------------------------------------------------
# JSON <-> CSV field conversion
# ---------------------------------------------------------------------------

_CSV_HEADER = "field_index,order,channel,node,dim,re,im"


def _field_doc_to_csv(doc: dict, path: str) -> str:
    blocks = [_pair_array(block, f"{path}: data[{fi}]").tolist()
              for fi, block in enumerate(doc["data"])]
    lines = [f"# format_version={doc['format_version']}",
             f"# space={doc['space']}"]
    if "bandwidth" in doc:
        lines.append(f"# bandwidth={doc['bandwidth']}")
    lines.append(f"# channels={doc['channels']}")
    lines.append("# field_orders=" + ",".join(str(o) for o in doc["field_orders"]))
    if "positions" in doc:
        for p in _positions(doc, path).tolist():
            lines.append("# position=" + ",".join(repr(v) for v in p))
    lines.append(_CSV_HEADER)
    for fi, block in enumerate(blocks):
        order = doc["field_orders"][fi]
        for c, chan in enumerate(block):
            for nd, node in enumerate(chan):
                for d, (re, im) in enumerate(node):
                    lines.append(f"{fi},{order},{c},{nd},{d},{re!r},{im!r}")
    return "\n".join(lines) + "\n"


def _csv_to_field_doc(text: str, path: str) -> dict:
    meta = {}
    position_text = []
    rows = []
    header_seen = False
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" not in body:
                raise FieldFormatError(f"{path}: line {ln}: malformed "
                                       f"metadata comment {line!r}")
            key, val = body.split("=", 1)
            if key.strip() == "position":
                position_text.append(val)
            else:
                meta[key.strip()] = val.strip()
            continue
        if not header_seen:
            if line != _CSV_HEADER:
                raise FieldFormatError(f"{path}: line {ln}: expected header "
                                       f"{_CSV_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise FieldFormatError(f"{path}: line {ln}: expected 7 fields, "
                                   f"got {len(parts)}")
        try:
            rows.append((int(parts[0]), int(parts[2]), int(parts[3]),
                         int(parts[4]), float(parts[5]), float(parts[6])))
        except ValueError as e:
            raise FieldFormatError(f"{path}: line {ln}: {e}") from e
    for key in ("format_version", "space", "channels", "field_orders"):
        if key not in meta:
            raise FieldFormatError(f"{path}: missing metadata comment "
                                   f"'# {key}=...'")
    orders_raw = meta["field_orders"].split(",") if meta["field_orders"] else []
    try:
        version = int(meta["format_version"])
        orders = [None if o == "None" else int(o) for o in orders_raw]
        ints = {key: int(meta[key]) for key in ("channels", "bandwidth")
                if key in meta}
        positions = [[float(v) for v in p.split(",")] for p in position_text]
    except ValueError as e:
        raise FieldFormatError(f"{path}: non-numeric metadata: {e}") from e
    data = []
    for fi in range(len(orders)):
        field_rows = [r for r in rows if r[0] == fi]
        if not field_rows:
            raise FieldFormatError(f"{path}: no data rows for field {fi}")
        n_ch = max(r[1] for r in field_rows) + 1
        n_nd = max(r[2] for r in field_rows) + 1
        n_d = max(r[3] for r in field_rows) + 1
        arr = np.zeros((n_ch, n_nd, n_d, 2))
        for _, c, nd, d, re, im in field_rows:
            arr[c, nd, d] = (re, im)
        data.append(arr.tolist())
    doc = {
        "format_version": version,
        "space": meta["space"],
        "field_orders": orders,
        "data": data,
        **ints,
    }
    if positions or meta["space"] == "R3points":
        doc["positions"] = positions
    return doc


def convert_field(in_path: str, out_path: str):
    """Convert a field file between JSON and CSV, chosen by extension."""
    in_path, out_path = os.fspath(in_path), os.fspath(out_path)
    src = in_path.lower()
    dst = out_path.lower()
    if src.endswith(".json") and dst.endswith(".csv"):
        text = _field_doc_to_csv(_read_doc(in_path), in_path)
        with open(out_path, "w") as fh:
            fh.write(text)
    elif src.endswith(".csv") and dst.endswith(".json"):
        with open(in_path) as fh:
            doc = _check_doc(_csv_to_field_doc(fh.read(), in_path), in_path)
        _dump(doc, out_path)
    else:
        raise FieldFormatError("conversion must be between a .json and a "
                               f".csv path, got {in_path!r} -> {out_path!r}")


# ---------------------------------------------------------------------------
# Spec serialization
# ---------------------------------------------------------------------------


def kernel_spec_to_json(kernel: SparseKernelSpec) -> str:
    doc = {
        "m_in": kernel.m_in,
        "m_out": kernel.m_out,
        "bandwidth": kernel.bandwidth,
        "coeffs": _pairs(kernel.coeffs),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def kernel_spec_from_json(text: str) -> SparseKernelSpec:
    doc = json.loads(text)
    coeffs = _unpairs(np.asarray(doc["coeffs"], dtype=float))
    return SparseKernelSpec(int(doc["m_in"]), int(doc["m_out"]),
                            int(doc["bandwidth"]), coeffs)


def activation_spec_to_json(spec: ActivationSpec) -> str:
    doc = {"kind": spec.kind,
           "weights": [[W.tolist(), b.tolist()] for W, b in spec.weights]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def activation_spec_from_json(text: str) -> ActivationSpec:
    doc = json.loads(text)
    weights = [(np.asarray(W, dtype=float), np.asarray(b, dtype=float))
               for W, b in doc.get("weights", [])]
    return ActivationSpec(doc["kind"], weights)
