"""Independent reference for the benchmark's checks; it never imports treesource.

Kernels are plain tuples: ("bst",), ("uniform",), ("binomial", p) and
("table", rows, fallback), where rows maps a size to its n-1 split
probabilities and fallback is one of the closed-form tuples.  Split rows
come from the closed forms (1/(n-1), Catalan ratios and binomial weights
through lgamma) or from the table itself.

Four recursions give survivals S_h[m] = P(H_m > h):

* exact_survivals: Fraction arithmetic, S_{h+1}[m] = sum_k sigma(k, m-k)
  (S_h[k] + S_h[m-k] - S_h[k] S_h[m-k]), for small sizes;
* float_survivals: the same recursion in doubles, evaluated as one gathered
  vector over all (m, k) pairs and a segmented sum per layer;
* uniform_survivals: counts of trees of height > h from the generating
  function y_{h+1} = z + y_h^2, scaled by 4^-m so nothing overflows; with
  u = the scaled count of tall trees and t = the scaled Catalan numbers,
  u_{h+1} = (2t - u) * u, a convolution of nonnegative terms;
* uniform_mean_fft: the same convolution by FFT, for a mean at large n.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp

TINY = 1e-300  # survivals below this no longer move any checked quantity


# --- split rows ------------------------------------------------------------------


def _log_tree_counts(upto: int) -> np.ndarray:
    """log T_m for m = 0..upto, T_m = (2m-2)! / (m! (m-1)!) full binary trees on m leaves."""
    m = np.arange(upto + 1, dtype=float)
    out = np.full(upto + 1, -np.inf)
    out[1:] = gammaln(2 * m[1:] - 1) - gammaln(m[1:] + 1) - gammaln(m[1:])
    return out


def split_row(kernel: tuple, m: int) -> np.ndarray:
    """sigma(k, m-k) for k = 1..m-1 as doubles."""
    kind = kernel[0]
    k = np.arange(1, m, dtype=float)
    if kind == "bst":
        return np.full(m - 1, 1.0 / (m - 1))
    if kind == "uniform":
        lt = _log_tree_counts(m)
        ki = np.arange(1, m)
        return np.exp(lt[ki] + lt[m - ki] - lt[m])
    if kind == "binomial":
        p = kernel[1]
        logw = (
            gammaln(m - 1.0) - gammaln(k) - gammaln(m - k)
            + (k - 1) * math.log(p) + (m - k - 1) * math.log1p(-p)
        )
        return np.exp(logw)
    if kind == "table":
        rows, fallback = kernel[1], kernel[2]
        if m in rows:
            return np.asarray(rows[m], dtype=float)
        return split_row(fallback, m)
    raise ValueError(f"unknown kernel {kernel!r}")


def _catalan(m: int) -> int:
    return math.comb(2 * m - 2, m - 1) // m


def split_row_exact(kernel: tuple, m: int) -> list[Fraction]:
    """sigma(k, m-k) for k = 1..m-1 as exact rationals (doubles taken at face value)."""
    kind = kernel[0]
    if kind == "bst":
        return [Fraction(1, m - 1)] * (m - 1)
    if kind == "uniform":
        tm = _catalan(m)
        return [Fraction(_catalan(k) * _catalan(m - k), tm) for k in range(1, m)]
    if kind == "binomial":
        p = Fraction(kernel[1])
        q = 1 - p
        return [math.comb(m - 2, k - 1) * p ** (k - 1) * q ** (m - k - 1) for k in range(1, m)]
    if kind == "table":
        rows, fallback = kernel[1], kernel[2]
        if m in rows:
            return [Fraction(x) for x in rows[m]]
        return split_row_exact(fallback, m)
    raise ValueError(f"unknown kernel {kernel!r}")


# --- recursions ------------------------------------------------------------------


def exact_survivals(kernel: tuple, n_max: int) -> list[list[Fraction]]:
    """S[h][m] for h = 0..n_max-1 and m = 0..n_max, exactly."""
    rows = {m: split_row_exact(kernel, m) for m in range(2, n_max + 1)}
    S = [Fraction(0)] * 2 + [Fraction(1)] * (n_max - 1)
    layers = [S]
    for _ in range(n_max - 1):
        nxt = [Fraction(0)] * (n_max + 1)
        for m in range(2, n_max + 1):
            acc = Fraction(0)
            for k, w in enumerate(rows[m], start=1):
                a, b = S[k], S[m - k]
                if a or b:
                    acc += w * (a + b - a * b)
            nxt[m] = acc
        S = nxt
        layers.append(S)
    return layers


def float_survivals(kernel: tuple, n_max: int) -> np.ndarray:
    """S[h, m] for m = 0..n_max, from h = 0 until every survival is below TINY."""
    ks, js, ws, starts = [], [], [], []
    pos = 0
    for m in range(2, n_max + 1):
        starts.append(pos)
        k = np.arange(1, m)
        ks.append(k)
        js.append(m - k)
        ws.append(split_row(kernel, m))
        pos += m - 1
    K, J, W = np.concatenate(ks), np.concatenate(js), np.concatenate(ws)
    starts = np.asarray(starts)
    S = np.ones(n_max + 1)
    S[:2] = 0.0
    layers = [S]
    for _ in range(n_max - 1):
        a, b = S[K], S[J]
        nxt = np.zeros(n_max + 1)
        nxt[2:] = np.add.reduceat(W * (a + b - a * b), starts)
        S = nxt
        layers.append(S)
        if S.max() < TINY:
            break
    return np.array(layers)


def _scaled_tree_counts(upto: int) -> np.ndarray:
    """t[m] = T_m / 4^m, with t[0] = 0."""
    lt = _log_tree_counts(upto)
    t = np.exp(lt - np.arange(upto + 1) * math.log(4.0))
    t[0] = 0.0
    return t


def uniform_survivals(n_max: int, stop_at: float = TINY) -> np.ndarray:
    """S[h, m] for the uniform shape law by direct convolution.

    Runs until every survival (or, with stop_at above TINY, the one at
    n_max) falls to stop_at.
    """
    t = _scaled_tree_counts(n_max)
    u = t.copy()
    u[1] = 0.0
    layers = [u / np.where(t > 0, t, 1.0)]
    for _ in range(n_max - 1):
        u = np.convolve(2.0 * t - u, u)[: n_max + 1]
        u[:2] = 0.0
        S = u / np.where(t > 0, t, 1.0)
        layers.append(S)
        if (S.max() if stop_at <= TINY else S[n_max]) <= stop_at:
            break
    return np.array(layers)


def uniform_mean_fft(n: int, stop_at: float = 1e-13) -> float:
    """E(H_n) for the uniform shape law, FFT convolution, survival cut at stop_at."""
    t = _scaled_tree_counts(n)
    size = 1 << (2 * n + 1).bit_length()
    u = t.copy()
    u[1] = 0.0
    total = 0.0
    for _ in range(n - 1):
        s = u[n] / t[n]
        total += s
        if s <= stop_at:
            break
        spec = np.fft.rfft(2.0 * t - u, size) * np.fft.rfft(u, size)
        u = np.clip(np.fft.irfft(spec, size)[: n + 1], 0.0, t)
        u[:2] = 0.0
    return total


# --- summaries ---------------------------------------------------------------------


def expected_heights(S: "np.ndarray | list") -> np.ndarray:
    """E(H_m) = sum_h S_h[m] for every m."""
    if isinstance(S, np.ndarray):
        return S.sum(axis=0)
    return [sum(col) for col in zip(*S)]


def log_moment(S: np.ndarray, m: int, base: float) -> float:
    """log E(base^H_m) = log(1 + (base-1) sum_h base^h S_h[m]), natural log."""
    col = S[:, m]
    h = np.nonzero(col > 0)[0]
    if base == 1.0 or h.size == 0:
        return 0.0
    tail = logsumexp(h * math.log(base) + np.log(col[h]))
    return float(np.logaddexp(0.0, math.log(base - 1.0) + tail))
