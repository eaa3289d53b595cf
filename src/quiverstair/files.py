"""JSON interchange format for representations and planted ground truth.

Matrices carry explicit ``rows``/``cols`` fields so the degenerate ``0 x n``
and ``n x 0`` cases are unambiguous.  In format version 2, which the writers
emit, a matrix's ``data`` is the standard padded base64 of its row-major
entries as little-endian IEEE-754 complex128, so round trips are bit-exact
for every float64 pattern, ``-0.0`` and subnormals included.  Version 1
files, whose matrices list row-major ``[re, im]`` number pairs under
``entries``, still load; that form is convenient to write by hand.  Plant
specs read the same in both versions.
"""

import base64
import json

import numpy as np

from .errors import ValidationError
from .linalg import _is_int, _is_real
from .oracle import PlantSpec
from .quiver import LABEL_TAG, QuiverShape, Representation

__all__ = [
    "FORMAT_VERSION",
    "representation_to_dict",
    "representation_from_dict",
    "save_representation",
    "load_representation",
    "plant_spec_to_dict",
    "plant_spec_from_dict",
    "save_plant_spec",
    "load_plant_spec",
]

FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_ENTRY_DTYPE = np.dtype("<c16")


def _matrix_to_dict(m: np.ndarray) -> dict:
    raw = np.ascontiguousarray(m, dtype=_ENTRY_DTYPE).tobytes()
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def _is_number_pair(x) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_real, x))


def _count_error(where: str, rows: int, cols: int, got: str) -> ValidationError:
    return ValidationError(
        f"{where}: expected {rows * cols} entries for a {rows}x{cols} matrix, got {got}"
    )


def _entries_v1(entries, rows: int, cols: int, where: str) -> np.ndarray:
    """Version 1 ``[re, im]`` pairs as a C-ordered ``(rows * cols, 2)`` float64 array."""
    n = rows * cols
    if not isinstance(entries, list):
        raise ValidationError(f"{where}: 'entries' must be a list of [re, im] pairs")
    if len(entries) != n:
        raise _count_error(where, rows, cols, str(len(entries)))
    for k, pair in enumerate(entries):
        if not _is_number_pair(pair):
            raise ValidationError(f"{where}: entry {k} is not a [re, im] pair")
    try:  # integers beyond float64 range
        return np.array(entries, dtype=np.float64).reshape(n, 2)
    except OverflowError:
        raise ValidationError(f"{where}: non-finite entries") from None


def _entries_v2(data, rows: int, cols: int, where: str) -> np.ndarray:
    """Version 2 base64 ``data`` as ``rows * cols`` complex128 entries."""
    if not isinstance(data, str):
        raise ValidationError(f"{where}: 'data' must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValidationError(f"{where}: 'data' is not valid base64 ({exc})") from None
    got, stray = divmod(len(raw), _ENTRY_DTYPE.itemsize)
    if (got, stray) != (rows * cols, 0):
        extra = f" and {stray} stray bytes" if stray else ""
        raise _count_error(where, rows, cols, f"{got}{extra}")
    return np.frombuffer(raw, _ENTRY_DTYPE).astype(np.complex128)


def _matrix_from_dict(d, where: str, version: int) -> np.ndarray:
    if not isinstance(d, dict):
        raise ValidationError(f"{where}: a matrix must be a JSON object")
    rows, cols = d.get("rows"), d.get("cols")
    if not (_is_int(rows) and _is_int(cols)):
        raise ValidationError(f"{where}: rows/cols must be integers, got {rows!r}/{cols!r}")
    if rows < 0 or cols < 0:
        raise ValidationError(f"{where}: negative matrix size {rows}x{cols}")
    key = "entries" if version == 1 else "data"
    if key not in d:
        raise ValidationError(f"{where}: a version {version} matrix needs '{key}'")
    if version == 1:
        out = _entries_v1(d[key], rows, cols, where).view(np.complex128)
    else:
        out = _entries_v2(d[key], rows, cols, where)
    return out.reshape(rows, cols)


def _header(s: QuiverShape) -> dict:
    """The fields every file starts with: the format version and the quiver ``s``."""
    return {"version": FORMAT_VERSION, "kind": s.kind, "t": s.t, "orientations": s.orientations}


def _read_header(d, what: str) -> tuple[int, QuiverShape]:
    """The format version and the quiver of the file dict ``d`` holding a ``what``."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} file must hold a JSON object")
    version = d.get("version")
    if not (_is_int(version) and version in _READABLE_VERSIONS):
        raise ValidationError(f"unsupported format version {version!r}")
    try:
        return version, QuiverShape(d.get("kind"), d["t"], d["orientations"])
    except KeyError as exc:
        raise ValidationError(f"missing or malformed field: {exc}") from exc


def _write_json(path, d: dict):
    """Write ``d`` as the files are written: indented JSON and a final newline."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(d, fp, indent=1)
        fp.write("\n")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def representation_to_dict(rep: Representation) -> dict:
    return {
        **_header(rep.shape),
        "dims": list(rep.dims),
        "matrices": [_matrix_to_dict(m) for m in rep.matrices],
    }


def representation_from_dict(d: dict) -> Representation:
    version, shape = _read_header(d, "representation")
    try:
        dims = tuple(d["dims"])
        raw_mats = d["matrices"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing or malformed field: {exc}") from exc
    if not isinstance(raw_mats, list):
        raise ValidationError(f"field 'matrices' must be a list, got {type(raw_mats).__name__}")
    mats = tuple(
        _matrix_from_dict(md, f"matrices[{k}]", version) for k, md in enumerate(raw_mats)
    )
    return Representation(shape, dims, mats)


def save_representation(path, rep: Representation):
    _write_json(path, representation_to_dict(rep))


def load_representation(path) -> Representation:
    return representation_from_dict(_read_json(path))


def plant_spec_to_dict(spec: PlantSpec) -> dict:
    return {
        **_header(spec.shape),
        "labels": [[LABEL_TAG[spec.shape.kind], a, b, m] for (a, b), m in spec.labels],
        "regular_eigs": [[z.real, z.imag] for z in spec.regular_eigs],
        "seed": spec.seed,
        "scramble": spec.scramble,
        "max_condition": spec.max_condition,
    }


def plant_spec_from_dict(d: dict) -> PlantSpec:
    """The plant spec a spec-file dict holds; ``gen``'s flags are read as such a dict.

    Checks each label's tag against the quiver kind; an absent ``seed``,
    ``scramble`` or ``max_condition`` takes :class:`PlantSpec`'s default.
    """
    _, shape = _read_header(d, "plant spec")
    try:
        labels = []
        for k, row in enumerate(d.get("labels", [])):
            tag, a, b, m = row
            if tag != LABEL_TAG[shape.kind]:
                raise ValidationError(
                    f"labels[{k}]: tag {tag!r} does not match kind {shape.kind!r}"
                )
            labels.append(((a, b), m))
        eigs = []
        for k, pair in enumerate(d.get("regular_eigs", [])):
            if not _is_number_pair(pair):
                raise ValidationError(
                    f"regular_eigs[{k}]: must be a [re, im] pair of numbers, got {pair!r}"
                )
            eigs.append(complex(*pair))
        optional = {f: d[f] for f in ("seed", "scramble", "max_condition") if f in d}
        return PlantSpec(shape, tuple(labels), tuple(eigs), **optional)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"missing or malformed field: {exc}") from exc


def save_plant_spec(path, spec: PlantSpec):
    _write_json(path, plant_spec_to_dict(spec))


def load_plant_spec(path) -> PlantSpec:
    return plant_spec_from_dict(_read_json(path))
