"""Multivariate sample paths and their CSV round trip.

Every CSV file the package writes goes through ``_write_csv``. The series
reader first tries one ``np.loadtxt`` pass, taken only when the ``t``
fields read exactly "1" .. "n" as ``to_csv`` writes them; every other file
falls through to the line-by-line rows of ``_csv_rows``. That slow path is
the only authority on which files are accepted and what the error says
(``path:line``), so the fast path changes no answer, only the time.
The coefficient-report reader takes its rows from ``_csv_rows`` and its values
from ``_float_field`` as well.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["SeriesMatrix"]


def _write_csv(path, header: str, rows, preamble: str = "") -> None:
    """Write ``preamble``, the ``header`` line, then each row's values joined by commas.

    Values are written with ``str``: the shortest round-trip text of a float or float64.
    """
    with open(path, "w", newline="") as fh:
        fh.write(preamble + header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


@contextmanager
def _open_text(path):
    """``path`` opened as UTF-8 text, a leading byte-order mark dropped, whose reads raise a
    ValidationError naming ``path`` on undecodable bytes."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc


def _csv_rows(path, fh, width: int, start: int):
    """Yield (line number, fields) of each non-blank line of ``fh``, counting from ``start``.

    A line without exactly ``width`` fields is a ValidationError naming ``path:line``.
    """
    for lineno, line in enumerate(fh, start=start):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValidationError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
        yield lineno, parts


def _float_field(path, lineno: int, text: str) -> float:
    """The value field ``text`` as ``np.loadtxt`` reads it, which unlike ``float`` refuses
    underscores and non-ASCII digits; a refusal is a ValidationError naming ``path:line``."""
    if text.strip().isascii() and "_" not in text:
        with suppress(ValueError):
            return float(text)
    raise ValidationError(f"{path}:{lineno}: could not convert string to float: {text!r}")


@dataclass(frozen=True, eq=False)
class SeriesMatrix:
    """An n x r sample path: row t is the observation at time t, column j a component."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValidationError(f"series must be 2-D, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValidationError(f"series must be non-empty, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("series contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path) -> None:
        """Write `t,x1,...,xr` rows, values as shortest round-trip text (exact)."""
        header = "t," + ",".join(f"x{j + 1}" for j in range(self.dim))
        _write_csv(path, header, zip(range(1, self.n + 1), *self.values.T.tolist()))

    @classmethod
    def from_csv(cls, path) -> "SeriesMatrix":
        """Read `t,x1,...,xr` rows as written by ``to_csv``.

        Column names must be distinct and the ``t`` field of the data rows
        must read 1, 2, ..., n in order, so a shuffled, repeated or spliced
        file is refused rather than estimated as if it were in order.
        """
        with _open_text(path) as fh:
            header = fh.readline().strip()
            if not header:
                raise ValidationError(f"{path}: empty file")
            names = [c.strip() for c in header.split(",")]
            if len(names) < 2 or names[0] != "t":
                raise ValidationError(
                    f"{path}: expected header 't,x1,...,xr', got {header!r}"
                )
            if len(set(names)) != len(names):
                raise ValidationError(f"{path}:1: repeated column name in {header!r}")
            values = _canonical_values(fh, len(names) - 1) if fh.seekable() else None
            if values is None:
                values = _checked_values(path, fh, len(names))
        return cls(values)


def _canonical_values(fh, dim: int):
    """Values of the data rows of ``fh`` if its ``t`` fields read exactly "1" .. "n", else None.

    The fast path for files that ``to_csv`` wrote: one ``np.loadtxt`` pass.
    For anything else, a ValueError included, it rewinds ``fh`` to where it
    started and returns None; the caller then reads the rows with
    ``_checked_values``, which decides what is accepted.
    """
    start = fh.tell()
    if fh.readline().startswith("1,"):  # else loadtxt could warn "input contained no data"
        fh.seek(start)
        fields = [("t", "U12")] + [(f"x{j}", float) for j in range(dim)]
        try:
            rec = np.loadtxt(fh, dtype=fields, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            rec = None
        if rec is not None and np.array_equal(
            rec["t"], np.arange(1, rec.shape[0] + 1).astype("U12")
        ):
            # a copy, not a strided view that would keep the whole record alive
            return np.column_stack([rec[f"x{j}"] for j in range(dim)])
    fh.seek(start)
    return None


def _checked_values(path, fh, width: int) -> np.ndarray:
    """Values of the data rows of ``fh`` read line by line; a ValidationError names ``path:line``."""
    rows = []
    for t, (lineno, parts) in enumerate(_csv_rows(path, fh, width, 2), start=1):
        if parts[0].strip() != str(t):
            raise ValidationError(f"{path}:{lineno}: expected t = {t}, got {parts[0]!r}")
        rows.append([_float_field(path, lineno, text) for text in parts[1:]])
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)
