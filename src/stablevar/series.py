"""Multivariate sample paths and their CSV round trip."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["SeriesMatrix"]


@dataclass(frozen=True)
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

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def to_csv(self, path) -> None:
        """Write `t,x1,...,xr` rows, values as shortest round-trip text (exact)."""
        header = "t," + ",".join(f"x{j + 1}" for j in range(self.dim))
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for t, row in enumerate(self.values.tolist(), start=1):
                fh.write(f"{t},{','.join(map(repr, row))}\n")

    @classmethod
    def from_csv(cls, path) -> "SeriesMatrix":
        """Read `t,x1,...,xr` rows as written by ``to_csv``.

        Column names must be distinct and the ``t`` field of the data rows
        must read 1, 2, ..., n in order, so a shuffled, repeated or spliced
        file is refused rather than estimated as if it were in order.
        """
        with open(path, "r") as fh:
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
            rows = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != len(names):
                    raise ValidationError(
                        f"{path}:{lineno}: expected {len(names)} fields, got {len(parts)}"
                    )
                if parts[0].strip() != str(len(rows) + 1):
                    raise ValidationError(
                        f"{path}:{lineno}: expected t = {len(rows) + 1}, got {parts[0]!r}"
                    )
                try:
                    rows.append([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if not rows:
            raise ValidationError(f"{path}: no data rows")
        return cls(np.asarray(rows, dtype=float))
