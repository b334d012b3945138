"""Study-file input/output and the bundled reference dataset.

The interchange format is deliberately plain: comma-separated text with a
`lab,value,u` header, optional `#` comment lines, one row per laboratory.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .errors import DataError
from .statistic import Dataset, Observation

_HEADER = ("lab", "value", "u")


def _parse_study(lines, origin: str) -> Dataset:
    observations: dict[str, Observation] = {}
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = tuple(part.strip() for part in line.split(","))
        if not header_seen:
            if fields != _HEADER:
                raise DataError(
                    f"{origin}:{lineno}: expected header 'lab,value,u', "
                    f"got {line!r}")
            header_seen = True
            continue
        if len(fields) != 3:
            raise DataError(
                f"{origin}:{lineno}: expected 3 comma-separated fields, "
                f"got {len(fields)}")
        lab, value_text, u_text = fields
        if not lab:
            raise DataError(f"{origin}:{lineno}: empty lab name")
        try:
            value = float(value_text)
            u = float(u_text)
        except ValueError:
            raise DataError(
                f"{origin}:{lineno}: value and u must be decimal numbers, "
                f"got {value_text!r}, {u_text!r}") from None
        if lab in observations:
            raise DataError(f"{origin}:{lineno}: duplicate labels: {lab}")
        try:
            observations[lab] = Observation(lab, value, u)
        except DataError as exc:
            raise DataError(f"{origin}:{lineno}: {exc}") from None
    if not header_seen:
        raise DataError(f"{origin}: missing 'lab,value,u' header")
    try:
        return Dataset(tuple(observations.values()))
    except DataError as exc:
        raise DataError(f"{origin}: {exc}") from None


def load_study(path) -> Dataset:
    """Parse a study file; errors carry the file name and line number. A
    leading byte-order mark, as spreadsheets' CSV UTF-8 export writes, is
    dropped."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read study file {path}: {exc}") from exc
    return _parse_study(text.splitlines(), origin=path.name)


def save_study(ds: Dataset, path) -> None:
    """Write a dataset in the study-file format; re-parsing it is lossless."""
    lines = ["lab,value,u"]
    lines += [f"{o.label},{o.value!r},{o.uncertainty!r}"
              for o in ds.observations]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def conductivity_study() -> Dataset:
    """The bundled thirteen-laboratory conductivity comparison."""
    return load_study(resources.files("msdstat") / "data" / "ccqm_p22.csv")
