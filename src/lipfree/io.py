"""JSON file formats and digests.

Schemas (documented in docs/formats.md):

* space:     {"labels": [..], "base": int,
              "metric": {"type": "matrix", "d": [[..]]}
                      | {"type": "graph", "n": int, "edges": [[i, j, w], ..]}}
* function:  {"space": <path-or-inline>, "values": [..]}
* vector:    {"space": <path-or-inline>, "coeffs": [..]}   (zero sum required;
              files violating it are rejected, never rebalanced)
* map:       {"domain": <path-or-inline>, "codomain": <path-or-inline>,
              "image": [..]}
* geodesic:  space fields plus "paths": [{"pair": [i, j], "points": [..]}]
  (``image``, ``pair`` and ``points`` are point-index lists, read by :func:`_indices`)

Inline space references are the space object itself; path references are
resolved relative to the referencing file. All files are UTF-8 JSON and
field order never matters. A space read with another in hand is that one
where the two are exactly equal, of any form (a matrix is not admitted again).

:func:`read_json` is the one place a file is read. While a caller has
set :data:`READS` to a list, it appends one ``{"path", "sha256"}`` record
per file parsed, in read order, digesting the bytes it parsed; a file
reached through a space reference also records ``"via"``, the
referencing file and field.
"""

from __future__ import annotations

import hashlib
import json
from contextvars import ContextVar
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from .errors import MalformedInput, NotStraightPath, NotZeroSum
from .freespace import FreeVector
from .geodesic import DiscretizedGeodesicSpace
from .lipschitz import LipschitzFunction
from .composition import LipschitzMap
from .metric_core import PointedMetricSpace, from_weighted_graph, point_indices, validate_space


READS: ContextVar[list[dict] | None] = ContextVar("lipfree_reads", default=None)


def read_json(path: str | Path, via: dict | None = None) -> Any:
    """Parse one UTF-8 JSON file, recording it in :data:`READS` when that
    is collecting. A file that cannot be read or decoded is malformed
    input at its path."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        obj = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise MalformedInput(str(path), f"cannot read file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInput(str(path), f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise MalformedInput(str(path), f"invalid JSON: {exc}") from None
    reads = READS.get()
    if reads is not None:
        record = {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()}
        reads.append(record if via is None else {**record, "via": via})
    return obj


def _require(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise MalformedInput(where, "expected an object")
    if key not in obj:
        raise MalformedInput(f"{where}.{key}", "missing required field")
    return obj[key]


def _integer(value: Any, where: str) -> int:
    """A JSON integer; a float only when it is whole and at most 2**53 in magnitude."""
    whole = isinstance(value, float) and value.is_integer() and abs(value) <= 2 ** 53
    if whole or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise MalformedInput(where, f"expected an integer, got {value!r}")


def _number(value: Any, where: str) -> float:
    """A JSON number; strings and booleans are rejected, not parsed."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise MalformedInput(where, f"expected a number, got {value!r}")


def _indices(obj: dict, key: str, where: str, space: PointedMetricSpace, length=None) -> tuple:
    """The list ``obj[key]`` of JSON integers (``length`` if given), points of ``space``."""
    raw, at = _require(obj, key, where), f"{where}.{key}"
    if not isinstance(raw, list) or length not in (None, len(raw)):
        count = f"{length} " if length else ""
        raise MalformedInput(at, f"expected a list of {count}point indices")
    try:
        return tuple(point_indices(space, [_integer(p, at) for p in raw]).tolist())
    except ValueError as exc:
        raise MalformedInput(at, str(exc)) from None


def _floats(obj: dict, key: str, where: str) -> np.ndarray:
    raw, at = _require(obj, key, where), f"{where}.{key}"
    try:
        values = np.asarray(raw, dtype=float)
    except OverflowError:  # an integer past every float
        raise MalformedInput(at, "entries must be finite numbers") from None
    except (TypeError, ValueError):
        raise MalformedInput(at, "expected rows of numbers of equal length") from None
    if not set(map(type, np.asarray(raw, dtype=object).flat)) <= {int, float}:
        for entry in np.asarray(raw, dtype=object).flat:  # name the first other entry
            _number(entry, at)
    if not np.all(np.isfinite(values)):
        raise MalformedInput(at, "entries must be finite numbers")
    return values


def _space_from_dict(obj: dict, where: str, tol: float | None = None,
                     known: PointedMetricSpace | None = None) -> PointedMetricSpace:
    """``obj``'s space, or ``known`` where it is that space (:func:`_same_space`), checked
    before validation for two matrices, else once ``obj`` is built (closed or admitted)."""
    metric = _require(obj, "metric", where)
    base = _integer(obj.get("base", 0), f"{where}.base")
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise MalformedInput(f"{where}.labels", "expected a list of labels")
    kind = _require(metric, "type", f"{where}.metric")
    if kind == "matrix":
        d = _floats(metric, "d", f"{where}.metric")
        if known is not None and known.edges is None and _same_space(known, d, base, labels):
            return known
        build = partial(validate_space, d, base=base, labels=labels, tol=tol)
    elif kind == "graph":
        n = _integer(_require(metric, "n", f"{where}.metric"), f"{where}.metric.n")
        edges = _require(metric, "edges", f"{where}.metric")
        at = f"{where}.metric.edges"
        try:
            triples = [(_integer(i, at), _integer(j, at), _number(w, at)) for i, j, w in edges]
        except OverflowError:  # a weight past every float
            raise MalformedInput(at, "weights must be finite numbers") from None
        except (TypeError, ValueError):
            raise MalformedInput(at, "expected [i, j, w] triples") from None
        build = partial(from_weighted_graph, n, triples, base=base, labels=labels)
    else:
        raise MalformedInput(f"{where}.metric.type", f"unknown metric type {kind!r}")
    try:
        space = build()
    except MalformedInput as exc:  # located relative to the space object
        raise MalformedInput(f"{where}.{exc.json_path}", exc.reason) from None
    same = known is not None and _same_space(known, space.dist, space.base, space.labels)
    return known if same else space


def _same_space(known: PointedMetricSpace, d: np.ndarray, base: int, labels) -> bool:
    """``known``'s matrix bitwise, base, and labels type for type (``p0, ...`` if None)?"""
    labels = [f"p{i}" for i in range(known.n)] if labels is None else labels
    return (np.array_equal(d.view(np.int64), known.dist.view(np.int64)) and base == known.base
            and repr(tuple(labels)) == repr(known.labels))  # repr tells True from 1 and 1.0


def _resolve_space(obj: dict, key: str, path: str | Path, tol: float | None = None,
                   known: PointedMetricSpace | None = None) -> PointedMetricSpace:
    ref = _require(obj, key, str(path))
    if isinstance(ref, str):
        ref_path = Path(path).parent / ref  # an absolute reference stands alone
        obj = read_json(ref_path, via={"path": str(path), "field": key})
        return _space_from_dict(obj, str(ref_path), tol, known)
    return _space_from_dict(ref, f"{path}.{key}", tol, known)


def load_space(path: str | Path, tol: float | None = None) -> PointedMetricSpace:
    return _space_from_dict(read_json(path), str(path), tol)


def space_to_dict(space: PointedMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "base": space.base,
        "metric": {"type": "matrix", "d": space.dist.tolist()},
    }


def load_function(path: str | Path) -> LipschitzFunction:
    return _load_on_space(path, "values", LipschitzFunction)


def load_free_vector(path: str | Path) -> FreeVector:
    return _load_on_space(path, "coeffs", FreeVector)


def _load_on_space(path: str | Path, key: str, build):
    """``build(space, values)`` of the file's ``space`` and list ``key``."""
    obj = read_json(path)
    space = _resolve_space(obj, "space", path)
    try:
        return build(space, _floats(obj, key, str(path)))
    except (NotZeroSum, ValueError) as exc:
        raise MalformedInput(f"{path}.{key}", str(exc)) from None


def load_map(path: str | Path, codomain: PointedMetricSpace | None = None,
             tol: float | None = None) -> LipschitzMap:
    """Both spaces read with ``codomain`` in hand, a codomain that is not it refused;
    with none given, the codomain is read with the domain in hand."""
    obj = read_json(path)
    domain = _resolve_space(obj, "domain", path, tol, codomain)
    read = _resolve_space(obj, "codomain", path, tol, domain if codomain is None else codomain)
    if codomain is not None and read is not codomain:
        raise MalformedInput(f"{path}.codomain", "not the space given as the codomain")
    return LipschitzMap(domain, read, _indices(obj, "image", str(path), read, domain.n))


def load_geodesic_space(path: str | Path,
                        tol: float | None = None) -> DiscretizedGeodesicSpace:
    obj = read_json(path)
    where = str(path)
    space = _space_from_dict(obj, where, tol)
    paths_field = _require(obj, "paths", where)
    if not isinstance(paths_field, list):
        raise MalformedInput(f"{where}.paths", "expected a list of paths")
    paths = {}
    for k, entry in enumerate(paths_field):
        at = f"{where}.paths[{k}]"
        pair = _indices(entry, "pair", at, space, 2)  # read before its points
        if pair in paths:  # (y, x) is another key: a pair can have two geodesics
            raise MalformedInput(f"{at}.pair", f"{list(pair)} is stored twice")
        paths[pair] = _indices(entry, "points", at, space)
    try:
        return DiscretizedGeodesicSpace(space, paths)
    except NotStraightPath as exc:  # short, repeating, off its pair or crooked
        raise MalformedInput(f"{where}.paths[{list(paths).index(exc.pair)}].points",
                             str(exc)) from None
    except ValueError as exc:  # no path
        raise MalformedInput(f"{where}.paths", str(exc)) from None


def geodesic_space_to_dict(gspace: DiscretizedGeodesicSpace) -> dict:
    obj = space_to_dict(gspace.space)
    obj["paths"] = [
        {"pair": [x, y], "points": list(pts)}
        for (x, y), pts in sorted(gspace.paths.items())
    ]
    return obj
