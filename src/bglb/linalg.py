"""Rank computation over F_p and over the rationals.

Modular elimination is the workhorse; the exact path uses fraction-free
(Bareiss) elimination on Python integers and is intended for small inputs,
where intermediate entry growth stays affordable.
"""
from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 2147483647

# With p < 2**31 every product of two reduced entries stays below 2**62,
# so a single outer-product update fits in int64 before the next mod.
_P_LIMIT = 1 << 31


def _as_int64(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=np.int64)
    if m.ndim != 2:
        m = m.reshape(1, -1) if m.ndim == 1 else m.reshape(0, 0)
    return m


def rank_mod_p(mat, p: int = DEFAULT_PRIME) -> int:
    """Rank of an integer matrix over F_p by in-place Gaussian elimination."""
    rank, _ = _eliminate(_reduce(mat, p), p)
    return rank


def rank_and_extension_mod_p(a, b, p: int = DEFAULT_PRIME) -> tuple[int, int]:
    """(rank(a), rank([a | b])) over F_p from one elimination pass.

    The sweep pivots through a's columns first, so the pivot count at the
    boundary equals rank(a) and the final count equals rank of the
    augmented matrix.
    """
    a = _reduce(a, p)
    b = _reduce(b, p)
    if a.shape[0] != b.shape[0]:
        raise ValueError("row counts differ: %d vs %d" % (a.shape[0], b.shape[0]))
    m = np.concatenate([a, b], axis=1)
    split = a.shape[1]
    rank_a, rank_ab = _eliminate(m, p, split=split)
    return rank_a, rank_ab


def _reduce(mat, p: int) -> np.ndarray:
    if not (1 < p < _P_LIMIT):
        raise ValueError("prime out of supported range: %r" % (p,))
    m = _as_int64(mat)
    return np.ascontiguousarray(m % p)


def _eliminate(m: np.ndarray, p: int, split: int | None = None) -> tuple[int, int]:
    """Forward elimination; returns (pivots before `split`, total pivots)."""
    rows, cols = m.shape
    r = 0
    rank_at_split = 0
    for c in range(cols):
        if split is not None and c == split:
            rank_at_split = r
        if r == rows:
            if split is not None and c < split:
                # all pivots sit left of the split, so rank(a) == r
                rank_at_split = r
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        tail = m[r + 1:, c]
        hit = np.nonzero(tail)[0]
        if hit.size:
            idx = r + 1 + hit
            m[idx, c:] -= np.outer(m[idx, c], m[r, c:])
            m[idx, c:] %= p
        r += 1
    if split is not None and split >= cols:
        rank_at_split = r
    return (rank_at_split, r) if split is not None else (r, r)


# no bglb code calls this; perfbench/tracer.py wraps it by name when it installs
def sketch_columns(mat, p: int, target: int, seed: int, fill: int = 32) -> np.ndarray:
    """Random sparse column sketch of `mat` over F_p.

    rank(sketch) <= rank(mat) always; equality holds with high probability,
    so a sketched rank can only undercount (a safe false alarm for the
    callers, which assert expected ranks).  A systematic pass folds every
    input column in, then `fill` rounds add random picks on top.  Sketch
    values stay below 2**26 and every round reduces mod p, keeping sums in
    int64.
    """
    m = _reduce(mat, p)
    rows, cols = m.shape
    if target >= cols:
        return m
    rng = np.random.default_rng(seed)
    out = np.zeros((rows, target), dtype=np.int64)
    for start in range(0, cols, target):
        block = m[:, start:start + target]
        w = block.shape[1]
        vals = rng.integers(1, 1 << 26, size=w, dtype=np.int64)
        out[:, :w] += block * vals[None, :]
        out %= p
    for _ in range(fill):
        picks = rng.integers(0, cols, size=target)
        vals = rng.integers(1, 1 << 26, size=target, dtype=np.int64)
        out += m[:, picks] * vals[None, :]
        out %= p
    return out


def rank_exact(mat) -> int:
    """Rank over the rationals via Bareiss fraction-free elimination.

    Exact for any integer input; intermediate entries are minors, so keep
    inputs small (a few hundred rows/columns at +-1 scale).
    """
    m = [[int(x) for x in row] for row in np.asarray(mat).tolist()] if not isinstance(mat, list) else [
        [int(x) for x in row] for row in mat
    ]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pc = m[r][c]
        for i in range(r + 1, rows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, cols):
                row_i[j] = (pc * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pc
        r += 1
    return r
