"""Angular algebra for dipole-dipole pair matrix elements.

Wigner 3j and 6j symbols are evaluated from the Racah series with exact
integer/rational arithmetic (the value is sign(S) sqrt(S^2 P) with S, P
rational), converted to float only at the end.

The quantisation axis is the interatomic axis, so the dipole-dipole
operator conserves the total projection M = m1 + m2 and decomposes as

    V_dd = (e^2 / 4 pi eps0 d^3) R1 R2 [ -2 C0 C0' - C+1 C-1' - C-1 C+1' ]

where C_q are rank-1 spherical tensors on each atom and R1, R2 the radial
integrals. This module provides the m-resolved angular block of the
bracketed operator on a pair-state manifold at fixed M, plus two scalar
reductions: the degeneracy-averaged RMS factor (what enters perturbative
channel sums) and the extremal singular value of the resonant exchange
block (what sets the C3 eigenvalue branch).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "wigner_3j",
    "wigner_6j",
    "dipole_component",
    "pair_m_states",
    "angular_block",
    "angular_factor",
    "exchange_singular_value",
]


def _two_j(j: float) -> int:
    two = round(2 * j)
    if abs(2 * j - two) > 1e-9:
        raise ValueError(f"angular momentum {j} is not integer or half-integer")
    return two


def _delta_fraction(tj1: int, tj2: int, tj3: int) -> Fraction | None:
    """Triangle coefficient Delta(j1 j2 j3) as a Fraction, None if forbidden."""
    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tj2 + tj3) // 2
    c = (-tj1 + tj2 + tj3) // 2
    if a < 0 or b < 0 or c < 0:
        return None
    if (tj1 + tj2 - tj3) % 2:
        return None
    s = (tj1 + tj2 + tj3) // 2 + 1
    return Fraction(
        math.factorial(a) * math.factorial(b) * math.factorial(c), math.factorial(s)
    )


def _signed_sqrt(series: Fraction, radicand: Fraction) -> float:
    """sign(series) * sqrt(series^2 * radicand), exact under the root."""
    if series == 0 or radicand == 0:
        return 0.0
    value2 = series * series * radicand
    out = math.sqrt(value2.numerator / value2.denominator)
    return out if series > 0 else -out


@functools.lru_cache(maxsize=None)
def _wigner_3j_two(tj1, tj2, tj3, tm1, tm2, tm3) -> float:
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        return 0.0
    delta = _delta_fraction(tj1, tj2, tj3)
    if delta is None:
        return 0.0

    f = math.factorial
    radicand = delta * Fraction(
        f((tj1 + tm1) // 2)
        * f((tj1 - tm1) // 2)
        * f((tj2 + tm2) // 2)
        * f((tj2 - tm2) // 2)
        * f((tj3 + tm3) // 2)
        * f((tj3 - tm3) // 2)
    )

    k_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    k_max = min(
        (tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    )
    series = Fraction(0)
    for k in range(k_min, k_max + 1):
        den = (
            f(k)
            * f((tj1 + tj2 - tj3) // 2 - k)
            * f((tj1 - tm1) // 2 - k)
            * f((tj2 + tm2) // 2 - k)
            * f((tj3 - tj2 + tm1) // 2 + k)
            * f((tj3 - tj1 - tm2) // 2 + k)
        )
        series += Fraction(-1 if k % 2 else 1, den)
    phase = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    return phase * _signed_sqrt(series, radicand)


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3j symbol, exact rational arithmetic under the root."""
    return _wigner_3j_two(
        _two_j(j1), _two_j(j2), _two_j(j3), _two_j(m1), _two_j(m2), _two_j(m3)
    )


@functools.lru_cache(maxsize=None)
def _wigner_6j_two(tj1, tj2, tj3, tj4, tj5, tj6) -> float:
    deltas = [
        _delta_fraction(tj1, tj2, tj3),
        _delta_fraction(tj1, tj5, tj6),
        _delta_fraction(tj4, tj2, tj6),
        _delta_fraction(tj4, tj5, tj3),
    ]
    if any(d is None for d in deltas):
        return 0.0
    radicand = deltas[0] * deltas[1] * deltas[2] * deltas[3]

    f = math.factorial
    t123 = (tj1 + tj2 + tj3) // 2
    t156 = (tj1 + tj5 + tj6) // 2
    t426 = (tj4 + tj2 + tj6) // 2
    t453 = (tj4 + tj5 + tj3) // 2
    q1245 = (tj1 + tj2 + tj4 + tj5) // 2
    q2356 = (tj2 + tj3 + tj5 + tj6) // 2
    q3164 = (tj3 + tj1 + tj6 + tj4) // 2

    k_min = max(t123, t156, t426, t453)
    k_max = min(q1245, q2356, q3164)
    series = Fraction(0)
    for k in range(k_min, k_max + 1):
        den = (
            f(k - t123)
            * f(k - t156)
            * f(k - t426)
            * f(k - t453)
            * f(q1245 - k)
            * f(q2356 - k)
            * f(q3164 - k)
        )
        series += Fraction((-1 if k % 2 else 1) * f(k + 1), den)
    return _signed_sqrt(series, radicand)


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6j symbol, exact rational arithmetic under the root."""
    return _wigner_6j_two(
        _two_j(j1), _two_j(j2), _two_j(j3), _two_j(j4), _two_j(j5), _two_j(j6)
    )


@functools.lru_cache(maxsize=None)
def _reduced_c1(Lc: int, tJc: int, La: int, tJa: int) -> float:
    """<(Lc 1/2) Jc || C1 || (La 1/2) Ja> for a spin-1/2 valence electron."""
    Jc = tJc / 2.0
    Ja = tJa / 2.0
    red_l = (
        (-1) ** Lc
        * math.sqrt((2 * Lc + 1) * (2 * La + 1))
        * wigner_3j(Lc, 1, La, 0, 0, 0)
    )
    if red_l == 0.0:
        return 0.0
    phase = -1 if round(Lc + 0.5 + Ja + 1) % 2 else 1
    return (
        phase
        * math.sqrt((tJa + 1) * (tJc + 1))
        * wigner_6j(Lc, Jc, 0.5, Ja, La, 1)
        * red_l
    )


def dipole_component(Lc, Jc, mc, La, Ja, ma) -> float:
    """<Lc Jc mc| C1_q |La Ja ma> with q = mc - ma, zero if not dipole allowed."""
    q = mc - ma
    if abs(round(2 * q)) > 2:
        return 0.0
    red = _reduced_c1(Lc, _two_j(Jc), La, _two_j(Ja))
    if red == 0.0:
        return 0.0
    phase = -1 if round(Jc - mc) % 2 else 1
    return phase * wigner_3j(Jc, 1, Ja, -mc, q, ma) * red


def pair_m_states(Ja: float, Jb: float, M: float) -> list[tuple[float, float]]:
    """All (ma, mb) with ma + mb = M, ordered by decreasing ma.

    Empty when M has the wrong parity for Ja + Jb (mb must step with Jb).
    """
    out = []
    tja, tjb, tm = _two_j(Ja), _two_j(Jb), _two_j(M)
    for tma in range(tja, -tja - 1, -2):
        tmb = tm - tma
        if abs(tmb) <= tjb and (tjb - tmb) % 2 == 0:
            out.append((tma / 2.0, tmb / 2.0))
    return out


# Spherical-component weights of (d1.d2 - 3 d1z d2z): q paired with -q.
_VDD_WEIGHT = {0: -2.0, 1: -1.0, -1: -1.0}


def angular_block(level_a, level_b, level_c, level_d, M: float) -> np.ndarray:
    """Angular matrix of V_dd between (a,b) and (c,d) pair manifolds at M.

    Rows run over the (c,d) m-combinations, columns over (a,b), both in
    pair_m_states order. Multiply by the two radial integrals and the
    1/d^3 prefactor to get energy matrix elements. The block depends on
    (L, J) per atom and M only, never on n: levels that differ only in n
    share one cached, read-only array.
    """
    return _angular_block_two(
        level_a.L,
        _two_j(level_a.J),
        level_b.L,
        _two_j(level_b.J),
        level_c.L,
        _two_j(level_c.J),
        level_d.L,
        _two_j(level_d.J),
        _two_j(M),
    )


@functools.lru_cache(maxsize=None)
def _angular_block_two(La, tJa, Lb, tJb, Lc, tJc, Ld, tJd, tM) -> np.ndarray:
    Ja, Jb, Jc, Jd = tJa / 2.0, tJb / 2.0, tJc / 2.0, tJd / 2.0
    cols = pair_m_states(Ja, Jb, tM / 2.0)
    rows = pair_m_states(Jc, Jd, tM / 2.0)
    block = np.zeros((len(rows), len(cols)))
    for i, (mc, md) in enumerate(rows):
        for k, (ma, mb) in enumerate(cols):
            q = mc - ma
            w = _VDD_WEIGHT.get(round(q * 2) / 2)
            if w is None:
                continue
            t1 = dipole_component(Lc, Jc, mc, La, Ja, ma)
            if t1 == 0.0:
                continue
            t2 = dipole_component(Ld, Jd, md, Lb, Jb, mb)
            block[i, k] = w * t1 * t2
    block.setflags(write=False)
    return block


def angular_factor(level_a, level_b, level_c, level_d, M: float = 0.0) -> float:
    """Scalar geometric factor for the channel (a,b) -> (c,d) at fixed M.

    Degeneracy-averaged RMS over the M manifold: the square equals the
    initial-manifold average of the summed squared couplings, which is
    exactly what the second-order channel sum needs. Zero (not an error)
    when selection rules forbid the channel. Symmetric under swapping the
    two atoms.
    """
    block = angular_block(level_a, level_b, level_c, level_d, M)
    if block.size == 0:
        return 0.0
    g_i = block.shape[1]
    return float(np.sqrt(np.sum(block * block) / g_i))


def exchange_singular_value(level_a, level_b, M: float = 0.0) -> float:
    """Largest singular value of the resonant exchange block (a,b) <-> (b,a).

    The two-atom manifold spanned by |a b> and |b a> m-combinations at
    fixed M splits under V_dd into eigenvalue pairs +/- sigma_k R1 R2 / d^3;
    this returns the extremal sigma, the branch a distance fit sees.
    """
    block = angular_block(level_a, level_b, level_b, level_a, M)
    if block.size == 0:
        return 0.0
    return float(np.linalg.svd(block, compute_uv=False)[0])
