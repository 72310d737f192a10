"""Rydberg level bookkeeping."""

from __future__ import annotations

import re
from dataclasses import dataclass

_L_LETTERS = "SPDFGHIKLMN"


def valid_j(L: int, J: float) -> bool:
    """Whether J is a fine-structure level of L: J = L +/- 1/2 and J >= 1/2."""
    return J > 0 and abs(abs(J - L) - 0.5) < 1e-9


@dataclass(frozen=True, order=True)
class RydbergLevel:
    """One fine-structure level |n, L, J> of a single valence electron."""

    n: int
    L: int
    J: float

    def __post_init__(self):
        if not 0 <= self.L < self.n:
            raise ValueError(f"need 0 <= L < n, got L={self.L}, n={self.n}")
        if not valid_j(self.L, self.J):
            raise ValueError(f"J must be L +/- 1/2 and positive, got L={self.L}, J={self.J}")

    @property
    def label(self) -> str:
        letter = (
            _L_LETTERS[self.L] if self.L < len(_L_LETTERS) else f"(L={self.L})"
        )
        return f"{self.n}{letter}{int(2 * self.J)}/2"

    def __str__(self) -> str:
        return self.label


_LABEL_RE = re.compile(r"^(\d+)([A-Za-z])(\d+)/2$")


def parse_level(label: str) -> RydbergLevel:
    """Parse labels like '70S1/2', '70P3/2' into levels."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise ValueError(
            f"bad level label {label!r}; expected e.g. '70S1/2' or '70P3/2'"
        )
    n = int(m.group(1))
    letter = m.group(2).upper()
    if letter not in _L_LETTERS:
        raise ValueError(f"unknown orbital letter {letter!r} in {label!r}")
    L = _L_LETTERS.index(letter)
    J = int(m.group(3)) / 2.0
    return RydbergLevel(n=n, L=L, J=J)


def s_level(n: int) -> RydbergLevel:
    return RydbergLevel(n, 0, 0.5)


def p_level(n: int, J: float = 0.5) -> RydbergLevel:
    return RydbergLevel(n, 1, J)
