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

A field file is valid when _check_doc accepts its header, each block has
the shape that header implies, every value is finite and point-cloud values
are real.  _decode is that definition; both loaders and both directions of
convert_field run it.  A CSV file holds the header in '# key=value'
comments, then one row per (field, channel, node, dim) cell.  A block of
no nodes has no rows, so a CSV file may imply at most one empty channel
entry per byte of the file, summed over such blocks.

Floats are serialized with Python's shortest round-trip repr, which is
lossless at double precision (at most 17 significant digits).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

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
    """Raised for a malformed or unsupported field file, kernel or activation
    spec, or XYZ file, naming the path or spec and the line or key at fault."""


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


def _unpairs(arr: np.ndarray) -> np.ndarray:
    """[..., 2] float [re, im] pairs -> [...] complex, bit for bit (a real
    part -0.0 stays -0.0, which re + 1j * im would make +0.0)."""
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def _positions(doc: dict, path: str) -> np.ndarray:
    """The finite positions as an [n, 3] array; an empty list is a cloud of
    n = 0."""
    data = doc["positions"]
    arr = _float_array(np.zeros((0, 3)) if data == [] else data, 2, 3,
                       f"{path}: positions", "a list of [x, y, z]")
    if not np.isfinite(arr).all():
        raise FieldFormatError(f"{path}: positions must be finite")
    return arr


def _dump(doc: dict, path: str):
    Path(path).write_text(json.dumps(doc, sort_keys=True,
                                     separators=(",", ":")) + "\n")


def _read(path) -> str:
    """A field or XYZ file's text; undecodable bytes are a FieldFormatError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise FieldFormatError(f"{path}: not a text file: {e}") from e


def _json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FieldFormatError(f"{where}: invalid JSON at line {e.lineno}, "
                               f"column {e.colno}: {e.msg}") from e
    except (RecursionError, ValueError) as e:   # too deep, or a number too long
        raise FieldFormatError(f"{where}: invalid JSON: {e}") from e


def _require(doc, keys, where: str):
    """doc, if it is a JSON object holding every one of keys."""
    if not isinstance(doc, dict):
        raise FieldFormatError(f"{where}: expected a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise FieldFormatError(f"{where}: missing key(s) {', '.join(missing)}")
    return doc


def _check_doc(doc, path: str) -> list:
    """The [channels, nodes, dim] shape of each block, computed from a field
    document's header without building a grid: C channels of (2B)^2 (S2) or
    (2B)^3 (SO3) nodes of dimension 1, or of one point per position of
    dimension 2l+1 (R3points, order l).  Rejected: not an object, another
    version, a missing required key, an unknown space, field_orders and data
    of unequal length, a bandwidth that is not an integer >= 1, channels that
    is not an integer >= 0 or differs from a data block's, a field order that
    is not an integer (null is allowed in SO3 files, negative orders are not
    allowed in point clouds), an order that a point cloud holds twice, or
    positions that are not a list of finite [x, y, z].
    """
    _require(doc, (), path)
    # type(x) is int: a JSON integer (bool is an int subclass in Python)
    v = doc.get("format_version")
    if type(v) is not int or v != FORMAT_VERSION:
        raise FieldFormatError(f"{path}: unsupported format_version {v!r} "
                               f"(this reader handles {FORMAT_VERSION})")
    extra = "positions" if doc.get("space") == "R3points" else "bandwidth"
    _require(doc, ("space", "channels", "field_orders", "data", extra), path)
    space = doc["space"]
    if space not in ("S2", "SO3", "R3points"):
        raise FieldFormatError(f"{path}: space must be S2, SO3 or R3points, "
                               f"got {space!r}")
    orders, data = doc["field_orders"], doc["data"]
    if not (isinstance(orders, list) and isinstance(data, list)
            and len(orders) == len(data)):
        raise FieldFormatError(f"{path}: field_orders and data must be lists "
                               f"of equal length")
    if space != "R3points" and not (type(doc["bandwidth"]) is int
                                    and doc["bandwidth"] >= 1):
        raise FieldFormatError(f"{path}: bandwidth must be an integer >= 1, "
                               f"got {doc['bandwidth']!r}")
    channels = doc["channels"]
    if not (type(channels) is int and channels >= 0):
        raise FieldFormatError(f"{path}: channels must be an integer >= 0, "
                               f"got {channels!r}")
    for idx, block in enumerate(data):
        if isinstance(block, list) and len(block) != channels:
            raise FieldFormatError(f"{path}: data[{idx}] holds {len(block)} "
                                   f"channels, the header says {channels}")
    for order in orders:
        if order is None and space == "SO3":
            continue
        if not type(order) is int or (space == "R3points" and order < 0):
            kind = "a non-negative integer" if space == "R3points" else "an integer"
            raise FieldFormatError(f"{path}: field order must be {kind}, "
                                   f"got {order!r}")
    if space != "R3points":
        n = (2 * doc["bandwidth"]) ** (2 if space == "S2" else 3)
        return [(channels, n, 1)] * len(orders)
    if len(set(orders)) != len(orders):
        raise FieldFormatError(f"{path}: a point cloud holds each field order "
                               f"once, got {orders}")
    n = len(_positions(doc, path))
    return [(channels, n, 2 * l + 1) for l in orders]


def _decode(doc, path: str) -> list:
    """The blocks of a valid field document (see the module docstring) as
    complex [channels, nodes, dim] arrays.  No grid is built, so a header
    meets its data before anything of the header's size is allocated."""
    shapes = _check_doc(doc, path)
    noun = "points" if doc["space"] == "R3points" else "nodes"
    blocks = []
    for idx, (block, shape) in enumerate(zip(doc["data"], shapes)):
        # JSON drops the axes after the first empty one of a zero-size block;
        # _check_doc has matched a list's length to channels, so this reads
        # no more than the file holds
        if 0 in shape and isinstance(block, list) and all(
                c == [] for c in block):
            blocks.append(np.zeros(shape, dtype=complex))
            continue
        where, (_, n, dim) = f"{path}: data[{idx}]", shape
        arr = _float_array(block, 4, 2, where,
                           "[channel][node][dim] of [re, im] pairs")
        if arr.shape[1:3] != (n, dim):
            raise FieldFormatError(
                f"{where} holds {arr.shape[1]} {noun} of dimension "
                f"{arr.shape[2]}, expected {n} {noun} of dimension {dim}")
        if not np.isfinite(arr).all() or (noun == "points" and arr[..., 1].any()):
            raise FieldFormatError(f"{where}: values must be finite"
                                   + (" and real" if noun == "points" else ""))
        blocks.append(_unpairs(arr))
    return blocks


def _save(path: str, header: dict, orders: list, blocks: list):
    """Write a field file of the header's space keys and one complex
    [channels, nodes, dim] block per order, all of one channel count."""
    counts = [block.shape[0] for block in blocks]
    if len(set(counts)) > 1:
        raise ValueError("blocks of one file must have equal channel counts, "
                         f"got {counts}")
    _dump({"format_version": FORMAT_VERSION, **header, "field_orders": orders,
           "channels": counts[0] if counts else 0,
           "data": [_pairs(block) for block in blocks]}, path)


# ---------------------------------------------------------------------------
# Grid fields and group functions
# ---------------------------------------------------------------------------


def save_fields(path: str, fields: list):
    """Write TensorFields or GroupFunctions, all on one grid, as JSON."""
    if not fields:
        raise ValueError("nothing to save")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("fields of one file must share one grid")
    _save(path, {"space": grid.space, "bandwidth": grid.bandwidth},
          [None if isinstance(f, GroupFunction) else f.field_type.order
           for f in fields], [f.samples for f in fields])


def load_fields(path: str) -> list:
    """Read a field file back into TensorFields or GroupFunctions."""
    doc = _json(_read(path), path)
    blocks = _decode(doc, path)
    space = doc["space"]
    if space == "R3points":
        raise FieldFormatError(f"{path}: space must be S2 or SO3 in a grid "
                               f"field file, got {space!r}")
    grid = quadrature_grid(space, doc["bandwidth"])
    if space == "SO3":
        return [GroupFunction(grid, block) for block in blocks]
    return [TensorField(grid, FieldType(order), block)
            for order, block in zip(doc["field_orders"], blocks)]


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------


def save_point_cloud(path: str, cloud: PointCloud):
    orders = [l for l, f in enumerate(cloud.features) if f is not None]
    _save(path, {"space": "R3points", "positions": cloud.positions.tolist()},
          orders, [np.transpose(cloud.features[l], (2, 0, 1)) for l in orders])


def load_point_cloud(path: str) -> PointCloud:
    doc = _json(_read(path), path)
    blocks = _decode(doc, path)
    if doc["space"] != "R3points":
        raise FieldFormatError(f"{path}: expected space R3points, got "
                               f"{doc['space']!r}")
    orders = doc["field_orders"]
    features: list = [None] * (max(orders) + 1 if orders else 0)
    for l, block in zip(orders, blocks):
        features[l] = np.transpose(block.real, (1, 2, 0))
    return PointCloud(_positions(doc, path), features)


def load_xyz(path: str) -> np.ndarray:
    """Import positions as an [n, 3] array from XYZ-style text: one
    'label x y z' line per atom; an optional leading count line, which must
    match the atom lines, and the comment line after it are skipped."""
    positions = []
    lines = _read(path).splitlines()
    count = int(lines[0]) if lines and lines[0].strip().isdecimal() else None
    start = 0 if count is None else 2
    for ln, line in enumerate(lines[start:], start=start + 1):
        parts = line.split()
        if not parts:
            continue
        try:
            xyz = [float(p) for p in parts[1:4]]
        except ValueError:
            xyz = []
        if len(xyz) < 3 or not all(map(math.isfinite, xyz)):
            raise FieldFormatError(f"{path}: line {ln}: expected 'label x y z' "
                                   f"of finite numbers, got {line!r}")
        positions.append(xyz)
    if count is not None and count != len(positions):
        raise FieldFormatError(f"{path}: line 1: count {count}, but "
                               f"{len(positions)} atom lines follow")
    return np.asarray(positions, dtype=float).reshape(-1, 3)


# ---------------------------------------------------------------------------
# JSON <-> CSV field conversion
# ---------------------------------------------------------------------------

_CSV_HEADER = "field_index,order,channel,node,dim,re,im"
_CSV_META = {"format_version": int, "space": str, "bandwidth": int,
             "channels": int, "field_orders": lambda v: [
                 None if o == "None" else int(o) for o in v.split(",") if v]}


def _field_doc_to_csv(doc, path: str) -> str:
    blocks = _decode(doc, path)
    space, orders = doc["space"], doc["field_orders"]
    lines = [f"# format_version={doc['format_version']}", f"# space={space}"]
    if space != "R3points":
        lines.append(f"# bandwidth={doc['bandwidth']}")
    lines.append(f"# channels={doc['channels']}")
    lines.append("# field_orders=" + ",".join(str(o) for o in orders))
    if space == "R3points":
        lines += ["# position=" + ",".join(repr(v) for v in p)
                  for p in _positions(doc, path).tolist()]
    lines.append(_CSV_HEADER)
    lines += [f"{fi},{order},{c},{nd},{d},{float(z.real)!r},{float(z.imag)!r}"
              for fi, (order, block) in enumerate(zip(orders, blocks))
              for (c, nd, d), z in np.ndenumerate(block)]
    return "\n".join(lines) + "\n"


def _table(rows: list, orders: list, shapes: list, path: str) -> list:
    """The blocks of a CSV table as nested [re, im] lists: each row must name
    a (channel, node, dim) cell of a block that its header implies, with that
    block's order, and each cell must appear exactly once."""
    cells = [{} for _ in orders]        # per field: flat cell -> (line, re, im)
    for ln, fi, order, *cell, re, im in rows:
        shape = shapes[fi] if 0 <= fi < len(orders) else ()
        if not (shape and order == str(orders[fi])
                and all(0 <= i < n for i, n in zip(cell, shape))):
            raise FieldFormatError(
                f"{path}: line {ln}: field {fi} of order {order} has no cell "
                f"{tuple(cell)}; the header gives orders {orders} of "
                f"[channel, node, dim] shapes {shapes}")
        flat = (cell[0] * shape[1] + cell[1]) * shape[2] + cell[2]
        if flat in cells[fi]:
            raise FieldFormatError(f"{path}: line {ln}: repeats the cell of "
                                   f"line {cells[fi][flat][0]}")
        cells[fi][flat] = ln, re, im
    data = []
    for fi, (shape, found) in enumerate(zip(shapes, cells)):
        if len(found) < math.prod(shape):    # a cell <= len(found) lacks a row
            flat = min(set(range(len(found) + 1)) - found.keys())
            cell = tuple(map(int, np.unravel_index(flat, shape)))
            raise FieldFormatError(f"{path}: field {fi} has no row for cell "
                                   f"{cell}")
        block = np.empty((len(found), 2))
        block[list(found)] = np.reshape([v[1:] for v in found.values()], (-1, 2))
        data.append(block.reshape(*shape, 2).tolist())
    return data


def _csv_to_field_doc(text: str, path: str) -> dict:
    doc, rows, header_seen = {}, [], False
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("#"):
            key, eq, val = (part.strip() for part in line[1:].partition("="))
            if not eq:
                raise FieldFormatError(f"{path}: line {ln}: malformed "
                                       f"metadata comment {line!r}")
            try:
                if key == "position":
                    doc.setdefault("positions", []).append(
                        [float(v) for v in val.split(",")])
                elif key in _CSV_META:
                    doc[key] = _CSV_META[key](val)
            except ValueError as e:
                raise FieldFormatError(f"{path}: line {ln}: non-numeric "
                                       f"metadata: {e}") from e
        elif line and not header_seen:
            if line != _CSV_HEADER:
                raise FieldFormatError(f"{path}: line {ln}: expected header "
                                       f"{_CSV_HEADER!r}, got {line!r}")
            header_seen = True
        elif line:
            try:                    # a wrong field count fails to unpack
                fi, order, c, nd, d, re, im = line.split(",")
                rows.append((ln, int(fi), order.strip(), int(c), int(nd),
                             int(d), float(re), float(im)))
            except ValueError as e:
                raise FieldFormatError(f"{path}: line {ln}: {e}") from e
    if doc.get("space") == "R3points":
        doc.setdefault("positions", [])
    doc["data"] = [None] * len(doc.get("field_orders", []))   # header first
    shapes = _check_doc(doc, path)
    # a block of no nodes has no rows, so the file's size bounds the empty
    # channel entries it implies
    empty = sum(c for c, n, _ in shapes if n == 0)
    size = len(text.encode())
    if empty > size:
        raise FieldFormatError(f"{path}: the header implies {empty} empty "
                               f"channel entries of no points, more than the "
                               f"file's {size} bytes")
    doc["data"] = _table(rows, doc["field_orders"], shapes, path)
    return doc


def convert_field(in_path: str, out_path: str):
    """Convert a valid field file between JSON and CSV, chosen by extension;
    an invalid one raises FieldFormatError and writes nothing."""
    in_path, out_path = os.fspath(in_path), os.fspath(out_path)
    src = in_path.lower()
    dst = out_path.lower()
    if src.endswith(".json") and dst.endswith(".csv"):
        text = _field_doc_to_csv(_json(_read(in_path), in_path), in_path)
        Path(out_path).write_text(text)
    elif src.endswith(".csv") and dst.endswith(".json"):
        doc = _csv_to_field_doc(_read(in_path), in_path)
        _decode(doc, in_path)
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
    doc = _require(_json(text, "kernel spec"),
                   ("m_in", "m_out", "bandwidth", "coeffs"), "kernel spec")
    for key in ("m_in", "m_out", "bandwidth"):
        if type(doc[key]) is not int:       # a JSON integer, as in _check_doc
            raise FieldFormatError(f"kernel spec: {key} must be an integer, "
                                   f"got {doc[key]!r}")
    coeffs = _unpairs(_float_array(doc["coeffs"], 4, 2, "kernel spec: coeffs",
                                   "[c_out][c_in][degree] of [re, im] pairs"))
    return SparseKernelSpec(doc["m_in"], doc["m_out"], doc["bandwidth"], coeffs)


def activation_spec_to_json(spec: ActivationSpec) -> str:
    doc = {"kind": spec.kind,
           "weights": [[W.tolist(), b.tolist()] for W, b in spec.weights]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def activation_spec_from_json(text: str) -> ActivationSpec:
    doc = _require(_json(text, "activation spec"), ("kind",),
                   "activation spec")
    kinds = ActivationSpec._KINDS
    if doc["kind"] not in kinds:
        raise FieldFormatError(f"activation spec: kind must be one of "
                               f"{', '.join(kinds)}, got {doc['kind']!r}")
    try:                    # ActivationSpec raises on weights unfit for the kind
        return ActivationSpec(doc["kind"], [
            (np.asarray(W, dtype=float), np.asarray(b, dtype=float))
            for W, b in doc.get("weights", [])])
    except (TypeError, ValueError) as e:
        raise FieldFormatError(f"activation spec: weights must be a list of "
                               f"numeric [W, b] pairs: {e}") from e
