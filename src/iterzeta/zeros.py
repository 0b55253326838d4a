"""Zero tables: local files listing nontrivial zeros of zeta.

The artifact never finds zeros on its own; it trusts whatever table it is
given.  Zeros absent from the table are invisible to every downstream
consumer (zero sums, quadrature splits, guard checks), which is the
documented trust model.

File format, one zero per line:
    14.134725141734694            -> beta = 1/2, multiplicity 1
    0.75 10.0 2                   -> beta gamma multiplicity
Lines may carry '#' comments.  Ordinates must be strictly increasing and
positive; beta must lie in (0, 1); multiplicity is a positive integer.
Zeros come in conjugate pairs; the table stores the upper half plane only.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

import numpy as np

from .errors import (MonotonicityError, ParseError, TableCoverage,
                     UnsupportedRange)

BUNDLED_TABLE_NAME = "zeros_t250.txt"


@dataclass(frozen=True)
class ZeroTable:
    betas: np.ndarray
    gammas: np.ndarray
    mults: np.ndarray
    source_label: str = "unlabelled"

    def __post_init__(self) -> None:
        b = np.asarray(self.betas, dtype=np.float64)
        g = np.asarray(self.gammas, dtype=np.float64)
        m = np.asarray(self.mults, dtype=np.int64)
        if not (b.shape == g.shape == m.shape):
            raise ParseError("beta/gamma/mult arrays must have equal length")
        if b.size:
            if np.any((b <= 0.0) | (b >= 1.0)):
                raise ParseError("beta outside (0, 1)")
            if np.any(g <= 0.0):
                raise ParseError("ordinates must be positive")
            if np.any(np.diff(g) <= 0.0):
                raise MonotonicityError("ordinates must be strictly increasing")
            if np.any(m < 1):
                raise ParseError("multiplicities must be positive")
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "mults", m)

    def __len__(self) -> int:
        return int(self.gammas.size)

    @property
    def coverage(self) -> float:
        """Largest ordinate in the table; 0.0 when empty."""
        return float(self.gammas[-1]) if len(self) else 0.0

    def require_coverage(self, t: float) -> None:
        """TableCoverage if height t lies past the table's coverage, where
        zeros the table does not list would be invisible."""
        if t > self.coverage:
            raise TableCoverage(
                f"height t={t:g} beyond table coverage {self.coverage:g} "
                f"({self.source_label}); zeros there would be invisible")

    @property
    def key(self) -> tuple:
        """The table's zeros as bytes, for cache keys: two tables of one
        label may differ."""
        return (self.betas.tobytes(), self.gammas.tobytes(),
                self.mults.tobytes())

    @property
    def max_beta(self) -> float:
        return float(self.betas.max()) if len(self) else 0.0


EMPTY_TABLE = ZeroTable(np.array([]), np.array([]), np.array([], dtype=np.int64),
                        source_label="empty")


def load_zero_table(path: str) -> ZeroTable:
    """Parse a zero table file.  See the module docstring for the format."""
    betas: list[float] = []
    gammas: list[float] = []
    mults: list[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if len(parts) == 1:
                    b, g, k = 0.5, float(parts[0]), 1
                elif len(parts) == 3:
                    b, g = float(parts[0]), float(parts[1])
                    k = int(parts[2])
                else:
                    raise ValueError("expected 1 or 3 columns")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not 0.0 < b < 1.0:
                raise ParseError(f"{path}:{lineno}: beta outside (0, 1)")
            if g <= 0.0:
                raise ParseError(f"{path}:{lineno}: ordinate must be positive")
            if k < 1:
                raise ParseError(f"{path}:{lineno}: multiplicity must be >= 1")
            if gammas and g <= gammas[-1]:
                raise MonotonicityError(
                    f"{path}:{lineno}: ordinates must be strictly increasing")
            betas.append(b)
            gammas.append(g)
            mults.append(k)
    return ZeroTable(np.array(betas), np.array(gammas),
                     np.array(mults, dtype=np.int64), source_label=path)


def bundled_table() -> ZeroTable:
    """The table shipped with the package (ordinates up to ~250,
    generated by the sign-change scan in demos/make_zero_table.py)."""
    ref = importlib.resources.files("iterzeta.data").joinpath(BUNDLED_TABLE_NAME)
    with importlib.resources.as_file(ref) as path:
        table = load_zero_table(str(path))
    return ZeroTable(table.betas, table.gammas, table.mults,
                     source_label=f"bundled:{BUNDLED_TABLE_NAME}")


def zeros_in_box(table: ZeroTable, sigma: float, t: float):
    """Zeros with beta > sigma and 0 < gamma < t, multiplicities included.

    Returns (betas, gammas, mults) as numpy arrays; all empty when the
    table holds nothing in the box.
    """
    if not t > 0.0:
        raise UnsupportedRange("zeros_in_box needs t > 0")
    sel = (table.betas > sigma) & (table.gammas < t)
    return table.betas[sel], table.gammas[sel], table.mults[sel]
