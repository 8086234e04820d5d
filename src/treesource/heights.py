"""Exact height distributions for kernel-driven tree sources.

Everything here runs on one engine: a layered scan over survival vectors
S_h[m] = P(height of a random size-m tree > h).  Conditioning on the root
split and using independence of the subtrees,

    S_{h+1}[m] = sum_k sigma(k, m-k) * (S_h[k] + S_h[m-k] * (1 - S_h[k]))

which vectorizes to S' = W.S + (W*T).(1 - S), with W[m, k] = sigma(k, m-k)
and T[m, k] = S[m-k], summing only nonnegative terms.

A tree's height does not see which subtree is on the left: the terms at k
and m-k of row m share the factor S[k] + S[m-k] * (1 - S[k]), so the
recurrence reads each row only through its symmetrized split
sigma(k, m-k) + sigma(m-k, k).  Every layer skips the rows known to be
exactly 0 (m <= h+1) or exactly 1 (m > 2^h), and takes one of two forms.

Where the split has product form, sigma(k, m-k) = u_k * u_(m-k) / z_m, as
for bst (u = 1, z_m = m-1) and uniform (u = c, the scaled Catalan numbers,
z = 4c), the symmetry folds both sums of a layer into one convolution of
nonnegative vectors, S'[m] = conv(u (2 - S), u S)[m] / z_m (see
_product_layer).  Such a layer builds no split row and needs O(n) memory,
so the default budget admits these kernels up to n in the millions: time,
not memory, bounds their scans.

Every other kernel runs on a folded W that holds the symmetrized split at
k < m/2, and sigma(m/2, m/2) alone in the middle column of an even row (see
_panel).  It has half the columns of W, so a layer streams half the bytes
and does half the flops, and the default budget admits n up to 16341 (a
few sizes less for a table whose uniform fallback keeps its own table).
A scan never holds the folded W whole.  Rows 2..n are cut once into fixed
row blocks, and each block [m0, m1) keeps one rectangular panel: its rows
against columns 1..(m1-1)//2, the only ones where its part of the folded
triangle is nonzero.  A panel is built from the kernel's ascending row walk
the first time a layer's 2^h reaches its rows, so a layer that reaches only
small sizes allocates no more than O(n).  Each layer walks the panels that meet
its live rows, forming W*T one panel at a time in a small scratch.

How a layer groups its sums, the panel shapes for BLAS or np.convolve's
order, sets the last bits of survivals, E(H) and moments, so they differ
in the last bits from those of a scan that sums otherwise.
Working with survivals instead of CDF differences matters too: expected
height is a plain sum of them, and exponential moments become
E(b^H) = 1 + (b-1) * sum_h b^h S_h, so deep tails are never formed by
subtracting nearly equal doubles and then amplified by b^h.

One pass answers exactly the sizes asked: every exact entry point scans to
the largest of them, accumulates E(H_m) and the moments at those sizes only,
and ends once each has met its stop rule.  Moments are accumulated in log
space, so values that would overflow a double are still finite logs.

A moment stops at the first layer where a proven bound on its remaining tail
(b-1) * sum_{j>h} b^j S_j[m] is at most tail_tol times the sum so far.  The
plain bound is b^(m-1) * S_h[m], since survivals fall in h and vanish from
h = m-1.  It overstates the tail by a factor of up to about b^(m-1-h), so
once a size's expected height has retired, the pass also tries a geometric
bound from the union step 1 - (1-x)(1-y) <= x + y, the step behind the
certificates themselves (see _THETA).  Either bound retires the moment, so
no pass runs longer for it, and its g is read from the scan's own row walk.

A scan is sequential in h by data dependence.  Scans for different kernels
or sizes are independent and may run in parallel; results are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import SplitKernel
from .trees import enumerate_trees, inner_split_sizes

__all__ = [
    "DEFAULT_TAIL_TOL",
    "DEFAULT_MEM_BUDGET",
    "ScanBudgetError",
    "HeightCdf",
    "ExpMoment",
    "MomentRecursionReport",
    "survival_layers",
    "height_cdf",
    "expected_height",
    "expected_heights",
    "expected_height_grid",
    "exp_moment",
    "exp_moment_grid",
    "brute_expected_height",
    "check_moment_recursion",
]

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_MEM_BUDGET = 512 << 20

BRUTE_FORCE_LIMIT = 12

# Scratch for one row block of W*T.  A layer streams the block of W, the rows
# of T and the scratch through L2 together, so the scratch takes about a
# quarter of a 2 MiB L2.  Per layer at n = 3000 (bst, one BLAS thread),
# 512 KiB ran 7.3 ms, 256 KiB 7.5, 1 MiB 8.9, 4 MiB 12.4 and 16 MiB 14.8.
_BLOCK_BYTES = 512 << 10

# What a product-form scan allocates besides its O(n) vectors: its Python
# objects and numpy's small temporaries, traced at under 2 KiB at n = 100
_SMALL_BYTES = 16 << 10

_MAX_LOG = math.log(np.finfo(float).max)

_THETA = 0.5
"""Per-layer decay of the geometric tail bound on the exponential moments.

Since 1 - (1-x)(1-y) <= x + y, every layer obeys S_{h+1} <= L S_h
componentwise, with (Lv)(m) = sum_k sigma(k, m-k) * (v[k] + v[m-k]).  L is
nonnegative and row m reads only sizes below m, so S_{h+t} <= L^t S_h, and
on sizes up to m, S_h <= c_h(m) * g for c_h(m) = max_{k<=m} S_h[k] / g[k].
The supersolution g has g[0] = g[1] = 0 and g[m] = 1 + (B/theta) * (Lg)(m),
B the largest base of the pass, so B * L g <= theta * g and, for every
base b <= B,

    (b-1) * sum_{j>h} b^j S_j[m] <= (b-1) * b^h * c_h(m) * g[m] * theta/(1-theta).

g is built with B/theta scaled up by 1 + _G_MARGIN.  The margin covers the
rounding of g's own sums, the rounding of each layer and rows forced to
exactly 1 whose split row sums to as little as 1 - TABLE_TOL.  A panel
layer sums nonnegative terms, within 2n * 2^-53 relative.  A product layer
forms each term u_k (2 - S[k]) * u_(m-k) S[m-k] in four roundings, none of
which cancels: 2 - S[k] >= 1, the two products by u and their product.
Its sum of at most n+1 nonnegative terms adds at most n roundings and the
division by z_m one, so S'[m] is within (n+5) * 2^-53 relative of the
recurrence on the stored factors (bst's are exact; uniform's are the table
its sigma and rows are formed from): below 7.5e-10 up to the largest size
the default budget admits, 6.71 million leaves for bst.  Each is far below
1e-6 for any n a scan can hold, so the bound holds for the survivals as
computed.  A g that overflows a double is inf from that size on, and the
bound is not used there.  g[m] is formed from row m as the scan's walk
passes it (see _RowTap).
"""
_G_MARGIN = 1e-6
_LOG_GEOMETRIC = math.log(_THETA / (1.0 - _THETA))


class ScanBudgetError(MemoryError):
    """A scan would allocate more than the configured memory budget."""


def survival_layers(
    kernel: SplitKernel, n: int, mem_budget: int = DEFAULT_MEM_BUDGET
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (h, S) for h = 0, 1, ... where S[m] = P(H_m > h), m = 0..n.

    Each yielded vector is freshly allocated and safe to keep.  The scan
    ends after h = n-1, by which point S is identically zero.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    need, blocks = _scan_need(kernel, n, mem_budget)
    if need > mem_budget:
        what = "split-matrix panels" if kernel._split_factors is None else "product-form layers"
        # rounded up, so a refusal never reads as a need within the budget
        raise ScanBudgetError(
            f"scan at n={n} needs ~{-(-need >> 20)} MiB for the {what} and work space, "
            f"budget is {mem_budget >> 20} MiB"
        )
    layer = _product_layer(kernel, n) if blocks is None else _panel_layer(kernel, n, blocks)
    S = np.ones(n + 1)
    S[0] = 0.0
    h = 0
    while True:
        new = np.empty(n + 1)
        # a tree on m leaves has height <= m-1, so rows m <= h+1 are exactly 0,
        # and height >= log2(m), so rows m > 2^h are exactly 1
        lo, hi = min(h + 2, n + 1), min(n, 1 << h)
        new[:lo] = 0.0
        new[hi + 1 :] = 1.0
        layer(S, new, lo, hi)
        # no term is negative; rounding can only overshoot 1
        np.minimum(new[lo : hi + 1], 1.0, out=new[lo : hi + 1])
        S = new
        yield h, S
        if h >= n - 1:
            return
        h += 1


def _scan_need(
    kernel: SplitKernel, n: int, mem_budget: float
) -> tuple[int, "list[tuple[int, int]] | None"]:
    """(bytes, row blocks): what a scan at n allocates at most, and its panels' row blocks.

    The blocks are None for a kernel of product form, whose layers need no
    panel.  A panel scan whose folded triangle alone is over mem_budget is
    not tiled: its need is then the triangle's, which bounds it below, and
    its blocks are None too.  Either way the need counts what the kernel
    takes while it builds rows or factors (SplitKernel._work_cells).
    """
    extra = kernel._work_cells(n)
    if kernel._split_factors is not None:
        # ten O(n) vectors (S, the new layer, a, b, u, z, the convolution
        # counting two, the contiguous copy np.convolve makes of b reversed,
        # and the split row in flight when a _RowTap is shown rows) and the
        # scan's own small objects
        return 8 * (10 * (n + 1) + extra) + _SMALL_BYTES, None
    # each row is stored folded onto its half k <= m/2, so a panel of rows
    # [m0, m1) holds columns 1..(m1-1)//2 only
    cap = _scratch_cells(n)
    # besides the panels: the W*T block scratch (one row if that is wider),
    # seven O(n) vectors (S, 1-S, the reversed padded S counting two, the new
    # layer, one block's partial sums and the split row in flight while a
    # panel is built), the iteration buffers numpy may take for the three
    # operands of the block product, and what the kernel takes besides
    work = cap + 7 * (n + 1) + 3 * np.getbufsize() + extra
    # the panels hold at least the folded strictly lower triangle, so a size
    # whose folded triangle alone is over budget is refused before it is tiled
    need = 8 * (n * (n - 1) // 4 + work)
    if need > mem_budget:
        return need, None
    blocks = _row_blocks(n, cap)
    return 8 * (sum((m1 - m0) * ((m1 - 1) // 2) for m0, m1 in blocks) + work), blocks


def _scratch_cells(n: int) -> int:
    """Cells of a panel scan's W*T scratch: _BLOCK_BYTES, or one row if that is wider."""
    return max(_BLOCK_BYTES // 8, n)


def _product_layer(kernel: SplitKernel, n: int) -> Callable[[np.ndarray, np.ndarray, int, int], None]:
    """A layer of a kernel of product form, as one convolution of its split factors.

    With sigma(k, m-k) = u_k * u_(m-k) / z_m, the symmetry of the terms at
    k and m-k folds the recurrence's two sums into one:

        S'[m] = sum_k u_k (2 - S[k]) * u_(m-k) S[m-k] / z_m = conv(a, b)[m] / z_m

    with a = u (2 - S), a[0] = 0, and b = u S, all nonnegative.  S[k] = 0
    for k < lo - 1, so b is cut there, and a to the same length.  The
    convolution is np.convolve's direct sum: an FFT's error is absolute,
    and deep-tail survivals need it relative.  A plain scan builds no row;
    a _RowTap is shown rows 2..min(n, 2^h) by layer h, so rows 2..m pass it
    before S_h[m] can fall below 1.
    """
    u, z = kernel._split_factors(n)
    a, b = np.empty(n + 1), np.empty(n + 1)
    rows = kernel._ascending_rows(range(2, n + 1)) if isinstance(kernel, _RowTap) else None
    pulled = 1

    def layer(S: np.ndarray, new: np.ndarray, lo: int, hi: int) -> None:
        nonlocal pulled
        if rows is not None:  # hi never falls from one layer to the next
            for _ in range(pulled, hi):
                next(rows)
            pulled = hi
        if lo > hi:
            return
        # entry j of the convolution is row m = j + lo - 1
        s, w = lo - 1, hi - lo + 2
        np.multiply(u[s : hi + 1], S[s : hi + 1], out=b[:w])
        np.subtract(2.0, S[:w], out=a[:w])
        np.multiply(a[:w], u[:w], out=a[:w])
        a[0] = 0.0
        np.divide(np.convolve(a[:w], b[:w])[1:w], z[lo : hi + 1], out=new[lo : hi + 1])

    return layer


def _panel_layer(
    kernel: SplitKernel, n: int, blocks: list[tuple[int, int]]
) -> Callable[[np.ndarray, np.ndarray, int, int], None]:
    """A layer on the folded W's row-block panels, each built as 2^h first reaches its rows."""
    rows = kernel._ascending_rows(range(2, n + 1))
    panels: list[np.ndarray] = []
    scratch = np.empty(_scratch_cells(n))
    one_minus = np.empty(n + 1)
    rev = np.zeros(2 * n + 1)
    # rev[:n+1] holds S reversed, so T[m, k] = S[m-k] (0 when k > m) is
    # entry k of window n-m, read with unit stride
    windows = sliding_window_view(rev, n + 1)

    def layer(S: np.ndarray, new: np.ndarray, lo: int, hi: int) -> None:
        # a panel is built the first time 2^h reaches its rows, live or not, so
        # rows 2..m have passed any _RowTap before S_h[m] can fall below 1
        while len(panels) < len(blocks) and blocks[len(panels)][0] <= hi:
            panels.append(_panel(rows, *blocks[len(panels)]))
        if lo > hi:
            return
        rev[: n + 1] = S[::-1]
        np.subtract(1.0, S, out=one_minus)
        for (m0, m1), P in zip(blocks, panels):
            # the live rows [a, b) of the panel against columns 1..c-1,
            # the only ones where their folded rows are nonzero
            a, b = max(m0, lo), min(m1, hi + 1)
            if a >= b:
                continue
            c = (b - 1) // 2 + 1
            Wb = P[a - m0 : b - m0, : c - 1]
            WT = scratch[: Wb.size].reshape(Wb.shape)
            np.multiply(Wb, windows[n - b + 1 : n - a + 1][::-1, 1:c], out=WT)
            block = new[a:b]
            np.matmul(Wb, S[1:c], out=block)
            block += WT @ one_minus[1:c]

    return layer


def _row_blocks(n: int, cap: int) -> list[tuple[int, int]]:
    """The row blocks [m0, m1) that tile rows 2..n, in increasing order.

    A block of r rows from m0 takes the most rows with r * (m0-1+r) <=
    2 * cap, so its panel, r rows by (m1-1)//2 columns, fits the W*T
    scratch of cap cells: r * ((m1-1)//2) <= r * (m1-1)/2 <= cap.  cap >= n
    keeps every block at least one row.
    """
    blocks = []
    m0 = 2
    while m0 <= n:
        r = (math.isqrt((m0 - 1) ** 2 + 8 * cap) - (m0 - 1)) // 2
        m1 = min(m0 + r, n + 1)
        blocks.append((m0, m1))
        m0 = m1
    return blocks


def _panel(rows: Iterator[np.ndarray], m0: int, m1: int) -> np.ndarray:
    """Rows m0..m1-1 of the folded W, columns 1..(m1-1)//2, from an ascending walk.

    Row m holds sigma(k, m-k) + sigma(m-k, k) at k < m/2 and, for an even
    m, sigma(m/2, m/2) at k = m/2, whose term the recurrence counts once.
    Each sum is formed in the panel from the row in flight, so the build
    allocates no second row, and the middle entry is added to itself and
    then halved, both exact.  Addition commutes, so a kernel and its mirror
    image build the same panels and scan to the same bits.
    """
    P = np.empty((m1 - m0, (m1 - 1) // 2))
    for i, m in enumerate(range(m0, m1)):
        width = m // 2
        row = next(rows)
        np.add(row[:width], row[::-1][:width], out=P[i, :width])
        P[i, width:] = 0.0
        if m % 2 == 0:
            P[i, width - 1] *= 0.5
    return P


class _RowTap(SplitKernel):
    """kernel's rows, each shown to see(m, row) as the scan's walk passes it."""

    def __init__(self, kernel: SplitKernel, see: Callable[[int, np.ndarray], object]):
        self._kernel, self._see = kernel, see
        # the scan takes the same layer form with or without a tap
        self._split_factors = kernel._split_factors

    def _work_cells(self, n: int) -> int:
        # see(m, row) may take a temporary as long as the row
        return self._kernel._work_cells(n) + n

    def _ascending_rows(self, sizes: Sequence[int]) -> Iterator[np.ndarray]:
        for m, row in zip(sizes, self._kernel._ascending_rows(sizes)):
            self._see(m, row)
            yield row


@dataclass(frozen=True)
class HeightCdf:
    """Height distribution of one tree size, truncated at h_cut.

    values[h] = P(H_n <= h) and survivals[h] = 1 - values[h] for
    0 <= h <= h_cut, where h_cut is the first layer whose survival
    dropped to tail_tol or below (always <= n-1).
    """

    n: int
    values: np.ndarray
    survivals: np.ndarray
    tail_tol: float

    @property
    def h_cut(self) -> int:
        return len(self.values) - 1

    @property
    def tail_mass(self) -> float:
        return float(self.survivals[-1])

    def expected_height(self) -> float:
        """Sum of survivals up to the truncation point, added in scan order."""
        return float(np.cumsum(self.survivals)[-1])

    def truncation_error(self) -> float:
        """Upper bound on the expected-height mass beyond h_cut."""
        return max(0.0, self.tail_mass * (self.n - 1 - self.h_cut))


def height_cdf(
    kernel: SplitKernel,
    n: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> HeightCdf:
    """Height CDF of size n under a kernel.

    Stops at the first h with survival <= tail_tol; tail_tol = 0 runs the
    recurrence until the survival is exactly zero (h = n-1 at the latest).
    """
    survivals = _grid_scan(kernel, [n], tail_tol, mem_budget)[3]
    values = 1.0 - survivals
    survivals.setflags(write=False)
    values.setflags(write=False)
    return HeightCdf(n=n, values=values, survivals=survivals, tail_tol=tail_tol)


def expected_height(
    kernel: SplitKernel,
    n: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> float:
    """E(H_n) as the truncated sum of survivals."""
    return float(_grid_scan(kernel, [n], tail_tol, mem_budget)[0][0])


def expected_heights(
    kernel: SplitKernel,
    sizes: Sequence[int],
    tail_tol: float = DEFAULT_TAIL_TOL,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> np.ndarray:
    """E(H_m) for each of the given sizes m >= 1, in their order, from one scan.

    The scan runs to the largest size, and each size stops accumulating at
    its own truncation layer, as expected_height(kernel, m, tail_tol) does.
    """
    if len(sizes) == 0 or min(sizes) < 1:
        raise ValueError("need at least one size, every size >= 1")
    return _grid_scan(kernel, sizes, tail_tol, mem_budget)[0]


def expected_height_grid(
    kernel: SplitKernel,
    n_max: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> np.ndarray:
    """E(H_m) for every size m = 0..n_max in a single scan.

    Each size stops accumulating at its own truncation layer, so entry m
    agrees with expected_height(kernel, m, tail_tol) up to the rounding
    difference between a size-m scan and this shared size-n_max scan.
    """
    return _grid_scan(kernel, range(n_max + 1), tail_tol, mem_budget)[0]


@dataclass(frozen=True)
class ExpMoment:
    """E(base^H_n), carried as a log so huge moments stay representable."""

    n: int
    base: float
    log_value: float
    h_cut: int
    tail_tol: float

    @property
    def overflowed(self) -> bool:
        return self.log_value > _MAX_LOG

    @property
    def value(self) -> float:
        return math.inf if self.overflowed else math.exp(self.log_value)

    def __float__(self) -> float:
        return self.value


def exp_moment_grid(
    kernel: SplitKernel,
    n_max: int,
    bases: "float | Sequence[float] | np.ndarray",
    tail_tol: float = DEFAULT_TAIL_TOL,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """log E(bases[m]^H_m) for every size m = 0..n_max in one scan.

    bases may be a scalar or a per-size array with entries >= 1 (entries
    for sizes 0 and 1 are ignored; those moments are identically 1).
    Returns (log_moments, stop_layers).  Size m stops at the first layer
    where a proven bound on its remaining tail is at most tail_tol times the
    moment accumulated so far, so each moment is within tail_tol, relative,
    of the untruncated one.  The bound is the smaller of bases[m]^(m-1) *
    S_h[m] and, once E(H_m) has retired, the geometric bound of _THETA; the
    latter depends on the largest base, so a stop layer may move with the
    other bases of the pass, within tail_tol.
    """
    return _grid_scan(kernel, range(n_max + 1), tail_tol, mem_budget, bases)[1:3]


def _grid_scan(
    kernel: SplitKernel,
    sizes: Sequence[int],
    tail_tol: float,
    mem_budget: int,
    bases: "float | Sequence[float] | np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(E(H_m), log E(b_m^H_m), moment stop layers, survival column) per asked size.

    sizes is increasing; bases is a scalar or one base per asked size,
    ignored for sizes 0 and 1, whose moments are 1, as are all moments with
    bases None.  Each accumulator retires a size by the rule its public
    function documents, and the scan ends once no asked size is left.  The
    column holds S_h[largest size] for the layers its E(H) summed.
    """
    if not 0 <= tail_tol < 1:
        raise ValueError(f"tail_tol must lie in [0, 1), got {tail_tol}")
    idx = np.asarray(sizes, dtype=int)
    b = np.broadcast_to(np.asarray(1.0 if bases is None else bases, dtype=float), idx.shape)
    b = b.copy()
    b[idx < 2] = 1.0
    if np.any(b < 1.0) or not np.all(np.isfinite(b)):
        raise ValueError("moment bases must be finite and >= 1")
    lb = np.log(b)
    with np.errstate(divide="ignore"):
        lbm1 = np.log(b - 1.0)
    log_tol = math.log(tail_tol) if tail_tol > 0 else -math.inf

    E = np.zeros(idx.size)
    acc = np.full(idx.size, -np.inf)  # log sum of b^h * S_h
    stop = np.zeros(idx.size, dtype=int)
    # positions still accumulating; sizes 0 and 1 add S_0 = 0 and retire
    e_live = np.arange(idx.size)
    e_retired = np.zeros(idx.size, dtype=bool)
    m_live = e_live[idx >= 2] if bases is not None else e_live[:0]
    if m_live.size:
        kernel, g = _supersolution_tap(kernel, int(idx.max()), float(b.max()))
    column = []
    for h, S in survival_layers(kernel, max(sizes, default=0), mem_budget):
        s = S[idx[e_live]]
        E[e_live] += s
        column.extend(s[e_live == idx.size - 1])
        e_retired[e_live[s <= tail_tol]] = True
        e_live = e_live[s > tail_tol]
        if m_live.size:
            with np.errstate(divide="ignore"):
                lnS = np.log(S[idx[m_live]])
            acc[m_live] = np.logaddexp(acc[m_live], h * lb[m_live] + lnS)
            limit = log_tol + np.logaddexp(0.0, lbm1[m_live] + acc[m_live])
            done = (idx[m_live] - 1) * lb[m_live] + lnS <= limit
            # the geometric bound, tried from the layer where the size's own
            # E(H) retires, so its stop layer does not wait on other sizes
            late = e_retired[m_live] & ~done
            if late.any():
                at = m_live[late]
                bound = lbm1[at] + h * lb[at] + _log_tail_factor(S, g, idx[at])
                done[late] = bound <= limit[late]
            stop[m_live[done]] = h
            m_live = m_live[~done]
        if not (e_live.size or m_live.size):
            break
    return E, np.logaddexp(0.0, lbm1 + acc), stop, np.array(column)


def _supersolution_tap(kernel: SplitKernel, n: int, top_base: float) -> tuple[_RowTap, np.ndarray]:
    """A tap on kernel's walk that sets g[m] of _THETA as row m passes, and g[0..n]."""
    g = np.zeros(n + 1)
    scale = (1.0 + _G_MARGIN) * top_base / _THETA

    def see(m: int, row: np.ndarray) -> None:
        if g[m] < math.inf:  # g is inf from the first size where it overflows
            with np.errstate(over="ignore"):
                v = 1.0 + scale * float(row @ (g[1:m] + g[m - 1 : 0 : -1]))
            if not v < math.inf:  # later sizes read g[m]; inf only turns the bound off
                g[m:] = math.inf
            else:
                g[m] = v

    return _RowTap(kernel, see), g


def _log_tail_factor(S: np.ndarray, g: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """log(c_h(m) * g[m] * theta/(1-theta)) at each size m >= 2 (see _THETA).

    Times (b-1) * b^h, this bounds the remaining moment tail after layer h.
    It is inf wherever g is not finite, so the bound is not used there.
    """
    top = int(sizes.max())
    with np.errstate(divide="ignore"):
        log_g = np.log(g[: top + 1])
        c = np.maximum.accumulate(np.log(S[2 : top + 1]) - log_g[2:])
    out = np.full(sizes.shape, math.inf)
    ok = log_g[sizes] < math.inf
    out[ok] = c[sizes[ok] - 2] + log_g[sizes[ok]] + _LOG_GEOMETRIC
    return out


def exp_moment(
    kernel: SplitKernel,
    n: int,
    base: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> ExpMoment:
    """E(base^H_n) for base > 1, in log form."""
    if not base > 1.0:
        raise ValueError(f"moment base must be > 1, got {base}")
    # size 0 has the moment of size 1, and a scan needs a size >= 1
    _, logs, stops, _ = _grid_scan(kernel, [max(n, 1)], tail_tol, mem_budget, base)
    return ExpMoment(
        n=n, base=base, log_value=float(logs[0]), h_cut=int(stops[0]), tail_tol=tail_tol
    )


def brute_expected_height(kernel: SplitKernel, n: int) -> Fraction:
    """E(H_n) by exhaustive enumeration, in exact rational arithmetic.

    Kernels with float parameters contribute the exact rational value of
    each stored double, so the result is reproducible to the bit.  Guarded
    at n <= 12 where enumeration is still cheap.
    """
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to 1 <= n <= {BRUTE_FORCE_LIMIT}, got {n}")
    total = Fraction(0)
    for t in enumerate_trees(n):
        p = Fraction(1)
        for i, j in inner_split_sizes(t):
            p *= kernel.sigma_exact(i, j)
        total += p * t.height
    return total


@dataclass(frozen=True)
class MomentRecursionReport:
    """Per-size slack of the subtree moment recursion.

    For each size n, lhs_log[i] = log E(phi_n^H_n) and rhs_log[i] is the
    log of phi_n * sum_k sigma(k, n-k) * (E(phi_k^H_k) + E(phi_{n-k}^H_{n-k})).
    Slack is taken on the log scale: near phi = e the two sides agree to
    enormous relative precision and a linear difference would be pure
    rounding noise.
    """

    ns: np.ndarray
    phi: np.ndarray
    lhs_log: np.ndarray
    rhs_log: np.ndarray
    slack_floor: float

    @property
    def slack(self) -> np.ndarray:
        return self.rhs_log - self.lhs_log

    @property
    def min_slack(self) -> float:
        return float(self.slack.min())

    @property
    def worst_n(self) -> int:
        return int(self.ns[int(np.argmin(self.slack))])

    @property
    def passed(self) -> bool:
        return bool(np.all(self.slack >= self.slack_floor))

    def summary(self) -> str:
        verdict = "holds" if self.passed else "VIOLATED"
        return (
            f"moment recursion {verdict} for n=2..{self.ns[-1]}: "
            f"min log-slack {self.min_slack:.3e} at n={self.worst_n} "
            f"(floor {self.slack_floor:g})"
        )


def check_moment_recursion(
    kernel: SplitKernel,
    n_max: int,
    phi: "Sequence[float] | np.ndarray",
    slack_floor: float = -1e-9,
    tail_tol: float = 0.0,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> MomentRecursionReport:
    """Check E(phi_n^H_n) <= phi_n * sum_k sigma(k,n-k) (E(phi_k^H_k) + E(phi_{n-k}^H_{n-k})).

    phi is indexed by size (entry 0 unused) and must be nonincreasing with
    every entry > 1 over sizes 1..n_max.  Both sides are evaluated from one
    per-size moment scan; the default tail_tol of 0 runs scans untruncated.
    The inequality holds for every kernel, since b^max(x,y) <= b^x + b^y and
    phi_n <= phi_k for k < n, so a violation points to the scan, not the kernel.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (n_max + 1,):
        raise ValueError(f"phi must have one entry per size 0..{n_max}")
    if np.any(phi[1:] <= 1.0):
        raise ValueError("phi entries must all be > 1")
    if np.any(np.diff(phi[1:]) > 0):
        raise ValueError("phi must be nonincreasing in size")

    log_m, _ = exp_moment_grid(kernel, n_max, phi, tail_tol, mem_budget)
    ns = np.arange(2, n_max + 1)
    lhs = log_m[2:]
    rhs = np.empty_like(lhs)
    sizes = range(2, n_max + 1)
    for i, (n, row) in enumerate(zip(sizes, kernel._ascending_rows(sizes))):
        k = np.arange(1, n)
        with np.errstate(divide="ignore"):
            log_row = np.log(row)
        rhs[i] = math.log(phi[n]) + _logsumexp(log_row + np.logaddexp(log_m[k], log_m[n - k]))
    return MomentRecursionReport(
        ns=ns, phi=phi, lhs_log=lhs, rhs_log=rhs, slack_floor=slack_floor
    )


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) shifted by the largest entry; -inf when every entry is -inf."""
    top = float(x.max())
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.exp(x - top).sum()))
