"""Instance and result files: versioned JSON plus a terse text form.

Instances are stored as ``{"schema": "instance/1", "name", "container",
"radii", "best_known"?}``; a whitespace-separated text form (count followed
by that many radii) is accepted for quick experiments.  Results are stored
as ``{"schema": "result/1", ...}`` carrying the certified bracket, the
incumbent placement, and the full iteration log.

Placement coordinates coming from the lattice solver are exact rationals;
they are serialized as ``"p/q"`` strings so that a result file re-read from
disk still verifies at tolerance zero.  Plain floats stay JSON numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from . import __version__
from .bounds import BoundReport
from .driver import RunResult
from .geometry import (
    CircleContainer,
    ContainerKind,
    Coordinate,
    Instance,
    Placement,
    StripContainer,
)

INSTANCE_SCHEMA = "instance/1"
RESULT_SCHEMA = "result/1"


class FileFormatError(ValueError):
    """A file could not be parsed; the message names the path and field."""

    def __init__(self, path: Path | str, detail: str):
        self.path = Path(path)
        self.detail = detail
        super().__init__(f"{self.path}: {detail}")


@dataclass(frozen=True)
class InstanceFile:
    """An instance plus the optional reference value stored alongside it."""

    instance: Instance
    best_known: float | None = None


# ---------------------------------------------------------------------------
# coordinate encoding


def encode_coordinate(value: Coordinate) -> float | int | str:
    """JSON value for a coordinate; rationals become exact ``"p/q"`` strings."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def decode_coordinate(value: Any) -> Coordinate:
    """Inverse of :func:`encode_coordinate`."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a coordinate: {value!r}")
    return value


def _encode_container(container: ContainerKind) -> dict:
    if container.kind == "strip":
        return {"kind": "strip", "width": float(container.width)}
    return {"kind": "circle"}


def _decode_container(path: Path, raw: Any) -> ContainerKind:
    if raw is None:
        return CircleContainer()
    if not isinstance(raw, Mapping):
        raise FileFormatError(path, "field 'container' must be an object")
    kind = raw.get("kind", "circle")
    if kind == "circle":
        return CircleContainer()
    if kind == "strip":
        width = raw.get("width")
        if not isinstance(width, (int, float)) or isinstance(width, bool) or width <= 0:
            raise FileFormatError(path, "field 'container.width' must be a positive number")
        return StripContainer(width=float(width))
    raise FileFormatError(path, f"field 'container.kind' must be 'circle' or 'strip', got {kind!r}")


def _check_radii(path: Path, raw: Any) -> list[float]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise FileFormatError(path, "field 'radii' must be a nonempty list")
    radii: list[float] = []
    for index, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FileFormatError(path, f"radii[{index}] must be a number, got {value!r}")
        if not value > 0:
            raise FileFormatError(path, f"radii[{index}] must be positive, got {value!r}")
        radii.append(float(value))
    return radii


# ---------------------------------------------------------------------------
# instance files


def read_instance(path: Path | str) -> InstanceFile:
    """Load an instance from JSON or from the text form (count then radii)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(path, f"cannot read: {exc.strerror or exc}") from exc
    stripped = text.lstrip()
    if path.suffix.lower() == ".json" or stripped.startswith("{"):
        return _read_instance_json(path, text)
    return _read_instance_text(path, text)


def _read_instance_json(path: Path, text: str) -> InstanceFile:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, Mapping):
        raise FileFormatError(path, "top level must be a JSON object")
    schema = payload.get("schema")
    if schema != INSTANCE_SCHEMA:
        raise FileFormatError(path, f"field 'schema' must be {INSTANCE_SCHEMA!r}, got {schema!r}")
    name = payload.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise FileFormatError(path, "field 'name' must be a nonempty string")
    radii = _check_radii(path, payload.get("radii"))
    container = _decode_container(path, payload.get("container"))
    best_known = payload.get("best_known")
    if best_known is not None and (
        isinstance(best_known, bool) or not isinstance(best_known, (int, float)) or best_known <= 0
    ):
        raise FileFormatError(path, "field 'best_known' must be a positive number")
    try:
        instance = Instance.from_radii(name, radii, container=container)
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from exc
    return InstanceFile(instance=instance, best_known=None if best_known is None else float(best_known))


def _read_instance_text(path: Path, text: str) -> InstanceFile:
    tokens = text.split()
    if not tokens:
        raise FileFormatError(path, "empty file; expected a count followed by radii")
    try:
        count = int(tokens[0])
    except ValueError:
        raise FileFormatError(path, f"first token must be the circle count, got {tokens[0]!r}") from None
    if count <= 0:
        raise FileFormatError(path, f"circle count must be positive, got {count}")
    if len(tokens) - 1 != count:
        raise FileFormatError(path, f"expected {count} radii after the count, found {len(tokens) - 1}")
    radii: list[float] = []
    for index, token in enumerate(tokens[1:]):
        try:
            value = float(token)
        except ValueError:
            raise FileFormatError(path, f"radii[{index}] must be a number, got {token!r}") from None
        if not value > 0:
            raise FileFormatError(path, f"radii[{index}] must be positive, got {token!r}")
        radii.append(value)
    instance = Instance.from_radii(path.stem, radii)
    return InstanceFile(instance=instance)


def write_instance(
    instance: Instance, path: Path | str, *, best_known: float | None = None
) -> Path:
    """Write an instance as schema-versioned JSON; returns the path."""
    path = Path(path)
    payload: dict[str, Any] = {
        "schema": INSTANCE_SCHEMA,
        "name": instance.name,
        "container": _encode_container(instance.container),
        "radii": [float(circle.radius) for circle in instance.circles],
    }
    if best_known is not None:
        payload["best_known"] = float(best_known)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# result files


def encode_placement(placement: Placement) -> dict:
    return {
        "container_size": encode_coordinate(placement.container_size),
        "centers": {
            str(cid): [encode_coordinate(x), encode_coordinate(y)]
            for cid, (x, y) in sorted(placement.centers.items())
        },
    }


def decode_placement(path: Path, raw: Any) -> Placement | None:
    if raw is None:
        return None
    if not isinstance(raw, Mapping) or "container_size" not in raw or "centers" not in raw:
        raise FileFormatError(path, "field 'placement' must hold 'container_size' and 'centers'")
    try:
        size = decode_coordinate(raw["container_size"])
        centers: dict[int, tuple[Coordinate, Coordinate]] = {}
        for key, pair in raw["centers"].items():
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"center {key!r} must be an [x, y] pair")
            centers[int(key)] = (decode_coordinate(pair[0]), decode_coordinate(pair[1]))
    except (ValueError, TypeError, AttributeError) as exc:
        raise FileFormatError(path, f"field 'placement' is malformed: {exc}") from exc
    return Placement(centers=centers, container_size=size)


def _bounds_timings(bounds: BoundReport) -> dict[str, float]:
    return {name: float(seconds) for name, seconds in sorted(bounds.timings.items())}


def result_payload(
    instance: Instance,
    result: RunResult,
    *,
    tolerance: float = 0.0,
) -> dict:
    """Full result-file dictionary for a finished run."""
    timings = _bounds_timings(result.bounds)
    timings["total"] = result.elapsed
    return {
        "schema": RESULT_SCHEMA,
        "version": __version__,
        "instance": {
            "name": instance.name,
            "container": _encode_container(instance.container),
            "radii": [float(circle.radius) for circle in instance.circles],
        },
        "status": result.status,
        "epsilon": result.epsilon,
        "lower": result.lower,
        "upper": result.upper,
        "gap": result.gap,
        "tolerance": tolerance,
        "placement": encode_placement(result.incumbent),
        "initial_bounds": result.bounds.as_dict(),
        "trials": result.trials,
        "perturbations": result.perturbations,
        "log": [record.as_dict() for record in result.log],
        "timings": timings,
    }


def write_result(payload: Mapping[str, Any], path: Path | str) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


_RESULT_NUMBER_FIELDS = ("epsilon", "lower", "upper", "gap", "tolerance")


def read_result(path: Path | str) -> dict:
    """Load and structurally validate a result file; returns the payload."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(path, f"cannot read: {exc.strerror or exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, Mapping):
        raise FileFormatError(path, "top level must be a JSON object")
    schema = payload.get("schema")
    if schema != RESULT_SCHEMA:
        raise FileFormatError(path, f"field 'schema' must be {RESULT_SCHEMA!r}, got {schema!r}")
    for field in _RESULT_NUMBER_FIELDS:
        value = payload.get(field)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FileFormatError(path, f"field {field!r} must be a number, got {value!r}")
    if not isinstance(payload.get("status"), str):
        raise FileFormatError(path, "field 'status' must be a string")
    info = payload.get("instance")
    if not isinstance(info, Mapping):
        raise FileFormatError(path, "field 'instance' must be an object")
    _check_radii(path, info.get("radii"))
    _decode_container(path, info.get("container"))
    decode_placement(path, payload.get("placement"))
    return dict(payload)


def instance_from_result(path: Path | str, payload: Mapping[str, Any]) -> Instance:
    """Rebuild the solved instance recorded inside a result payload."""
    info = payload["instance"]
    radii = _check_radii(Path(path), info.get("radii"))
    container = _decode_container(Path(path), info.get("container"))
    name = info.get("name") or Path(path).stem
    return Instance.from_radii(str(name), radii, container=container)
