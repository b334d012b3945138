"""Study-file input and the bundled reference dataset.

The interchange format is deliberately plain: comma-separated text with a
`lab,value,u` header, optional `#` comment lines, one row per laboratory.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .errors import DataError
from .statistic import Dataset, Observation

_HEADER = ("lab", "value", "u")


def _ascii(text: str) -> str:
    """``text``, or a ValueError if it holds ``_`` or a non-ASCII character:
    the one rule for a number read from a file or the command line, as
    ``int`` and ``float`` would read both."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number without '_': {text!r}")
    return text


def _decimal(text: str) -> float:
    return float(_ascii(text))


def _parse_study(lines, origin: str) -> tuple[Observation, ...]:
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
            value, u = _decimal(value_text), _decimal(u_text)
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
    return tuple(observations.values())


def load_study(path) -> Dataset:
    """Parse a study file; errors carry the file name and line number. A
    leading byte-order mark, as spreadsheets' CSV UTF-8 export writes, is
    dropped."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read study file {path}: {exc}") from exc
    observations = _parse_study(text.splitlines(), origin=path.name)
    try:
        return Dataset(observations)
    except DataError as exc:
        raise DataError(f"{path.name}: {exc}") from None


def conductivity_study() -> Dataset:
    """The bundled thirteen-laboratory conductivity comparison."""
    return load_study(resources.files("msdstat") / "data" / "ccqm_p22.csv")
