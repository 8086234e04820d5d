"""Seeded random generation of trees from a split kernel.

A sample is grown top-down: starting from the full leaf budget, each
pending block of m leaves either becomes a leaf (m = 1) or draws a left
share k from the size-m split row and splits into blocks of k and m - k.
Trees and Monte Carlo heights grow the same way: a block of trees at a
time, one step at a time, with one vectorized draw per step for every
pending block of every tree, each block at its own depth.  sample_preorder
writes each tree's pre-order shape bits as it grows (_grow): a block's bit
position follows from its parent's and its left sibling's size, so no
stack is walked and comb-like trees of any size cannot overflow the
interpreter stack.  sample_shape, sample_tree and sample_height are its
one-tree forms.  Monte Carlo returns heights alone, so it grows only the
blocks that can still raise their tree's height (_block_heights).

How a left share is drawn follows from the kernel alone (_level_drawer):
bst draws a uniform integer and binomial a binomial variate.  Another
kernel of product form, sigma(k, m-k) = u_k * u_(m-k) / z_m (uniform),
draws by rejection from u alone (_ProductDraw): from a uniform triple
(r0, r1, r2) it proposes k with probability proportional to u_k + u_(m-k)
and accepts it with probability f(k) / f(floor(m/2)), f(k) = u_k * u_(m-k)
/ (u_k + u_(m-k)).  A rejected triple draws 0, "not yet", and its block
waits, whole and at its depth, for the next step: an accepted proposal has
the target law whatever attempts came before it.  A table kernel draws a
block of a size it does not list by its fallback's rule, and a block of a
listed size m by inverse CDF over that size's own row: min(bisect_right(
cdf_m, u) + 1, m - 1) for a uniform u, cdf_m the np.cumsum of the row.
Any other kernel has no draw rule, and the sampler raises TypeError for it.

Reproducibility contract, for a fixed build of this package (bit-identical
output across numpy versions is not promised):

* sample_preorder(kernel, n, count, seed) is a pure function of its
  arguments for an integer seed.  It grows its trees in blocks of
  max(1, _BATCH_CELLS // n), block after block from the one generator
  _rng(seed), so a larger count leaves every full block unchanged; a
  generator seed is advanced by the trees drawn.  Each step makes one
  draw for the s pending blocks of the block of trees, in their order: bst
  takes rng.integers(1, m), binomial rng.binomial(m - 2, p), a rejection
  kernel rng.random((3, s)), one triple per pending block.  A table kernel
  takes its fallback's draw for the pending blocks of the sizes it does
  not list, in their order, then rng.random(s_listed) for the s_listed
  blocks of listed sizes, in their order.  sample_shape, sample_height
  and sample_tree take the one tree of sample_preorder(kernel, n, 1,
  seed).  The sample subcommand makes one sample_preorder call, so its
  heights are those of its trees for the same seed.  Releases that grew
  each tree from its own seed, replicate_seed(seed, r), one split per
  inner node, drew other trees of the same law.
* mc_heights and mc_expected_height are pure functions of (kernel, n,
  replicates, seed).  Replicates are grown in blocks of MC_BLOCK, block b
  from its own generator seeded with replicate_seed(seed, b), so adding
  replicates leaves every full block unchanged.  Each step draws as
  sample_preorder's steps do, for the pending blocks in their order.  A
  block that cannot raise its replicate's height is not grown: at depth d
  a block of m leaves is drawn only while d + m - 1 exceeds the largest
  d' + ceil(log2 m') over its replicate's blocks so far, so leaves and
  blocks of 2 or 3 leaves take no draw.  The heights are exact for the
  draws made and follow the law of sample_height, but are not the heights
  of the trees sample_preorder draws from any seed, nor those of releases
  that grew every block or drew each level's rejected blocks again before
  the next level.  mc_expected_height_grid gives at each size n exactly
  mc_expected_height(kernel, n, replicates, replicate_seed(seed, n)).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .kernels import BinomialKernel, BstKernel, SplitKernel, TableKernel
from .trees import BinaryTree, tree_from_shape_bits

__all__ = [
    "MC_BLOCK",
    "mix64",
    "replicate_seed",
    "sample_preorder",
    "sample_shape",
    "sample_tree",
    "sample_height",
    "sample_uniform_remy",
    "sample_uniform_remy_shape",
    "mc_heights",
    "mc_expected_height",
    "mc_expected_height_grid",
]

# Replicates grown together by mc_heights.  It fixes which generator draws
# each replicate, so changing it changes every Monte Carlo value.  A step's
# pending blocks take O(MC_BLOCK * n) memory at most, and far less once the
# blocks that cannot raise a height are dropped.  One block of 256, traced by
# tracemalloc: bst 28.1 MiB at n = 10^5 and 73.5 MiB at 3 * 10^5;
# binomial(1/2) 143.5 MiB and 486.0 MiB.  Larger blocks were no faster at
# n <= 4096.
MC_BLOCK = 256

# Cells that sample_preorder grows together: a block holds
# max(1, _BATCH_CELLS // n) trees of size n, and its arrays trace about 26
# bytes per cell (29 for binomial), 1.6 MiB at 2^16.  On a 2-vCPU machine,
# 200 trees at n = 400 took 60, 10.4, 4.7, 3.5 and 3.1 ms for bst at 2^10,
# 2^12, 2^14, 2^16 and 2^20 cells, 220, 59, 33, 12.4 and 9.6 ms for uniform,
# and 54, 16, 8.9, 7.4 and 6.9 ms for a table of rows 2..20 and four larger
# sizes over binomial(1/2); 2000 trees at n = 50 were no faster beyond 2^15
# for any of them.
_BATCH_CELLS = 1 << 16

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer: avalanching 64-bit mixer, stated for auditability."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Derived seed for one replicate; unordered in r by construction."""
    return mix64(master_seed + (replicate + 1) * _GOLDEN64)


def _rng(seed: "int | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_preorder(
    kernel: SplitKernel, n: int, count: int, seed: "int | np.random.Generator"
) -> Iterator[tuple[str, int]]:
    """Pre-order shape bits ('1' inner, '0' leaf) and height of each of count size-n trees.

    The trees grow in blocks of max(1, _BATCH_CELLS // n), block after
    block from the one generator _rng(seed), and each block is grown whole
    before its trees are yielded.  The sizes are checked, and the draw
    function built, at the call.  A loop over many trees should make one
    call: a table kernel builds the cumulative rows of its listed sizes, and
    a rejection kernel its prefix sums, once per call.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    draw, rng, batch = _level_drawer(kernel, n), _rng(seed), max(1, _BATCH_CELLS // n)
    blocks = (min(batch, count - lo) for lo in range(0, count, batch))
    return (tree for size in blocks for tree in _grow(draw, n, size, rng))


def _grow(
    draw: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    n: int,
    count: int,
    rng: np.random.Generator,
) -> list[tuple[str, int]]:
    """Shape bits and heights of count trees of size n, grown together one step at a time.

    Each step draws once for every pending block, at the block's own depth.
    Tree t writes its shape bits from position t * (2n - 1) on.  A block of
    m leaves at bit position p that splits into (k, m - k) has its left
    child at p + 1 and its right child at p + 2k, one level deeper, as a
    k-leaf subtree has 2k - 1 nodes.  A draw of 0, a rejected triple,
    splits it into an empty block and itself at p and its own depth, so it
    comes back whole in the next step.
    """
    width = 2 * n - 1
    # 1 + depth at each inner node's bit position, 0 at the leaves
    inner = np.zeros(count * width, dtype=np.int32)
    # pending blocks: size, bit position and depth
    sizes = np.full(count, n, dtype=np.int64)
    p = np.arange(count) * width
    depth = np.zeros(count, dtype=np.int32)
    while True:
        keep = np.flatnonzero(sizes >= 2)
        if not keep.size:
            break
        sizes, p, depth = sizes[keep], p[keep], depth[keep]
        inner[p] = depth + 1
        left = draw(sizes, rng)
        depth += left != 0
        depth = np.concatenate((depth, depth))
        p = np.concatenate((p + 1, p + 2 * left))
        sizes = np.concatenate((left, sizes - left))
    shapes = np.where(inner > 0, ord("1"), ord("0")).astype(np.uint8).tobytes().decode("ascii")
    heights = inner.reshape(count, width).max(axis=1).tolist()
    return [(shapes[t * width : (t + 1) * width], h) for t, h in enumerate(heights)]


def sample_shape(kernel: SplitKernel, n: int, seed: "int | np.random.Generator") -> str:
    """Pre-order shape bits of sample_tree(kernel, n, seed) ('1' inner, '0' leaf)."""
    return next(sample_preorder(kernel, n, 1, seed))[0]


def sample_tree(kernel: SplitKernel, n: int, seed: "int | np.random.Generator") -> BinaryTree:
    """Draw one size-n tree from the kernel's distribution."""
    return tree_from_shape_bits(sample_shape(kernel, n, seed))


def sample_height(kernel: SplitKernel, n: int, seed: "int | np.random.Generator") -> int:
    """Height of sample_tree(kernel, n, seed) without materializing the tree."""
    return next(sample_preorder(kernel, n, 1, seed))[1]


def sample_uniform_remy_shape(n: int, seed: "int | np.random.Generator") -> str:
    """Pre-order shape bits of a uniform tree on n leaves, grown independently of any kernel.

    Grows one leaf at a time: an edge (or the root) is chosen uniformly
    among all 2m - 1 nodes and a new inner node is spliced in there, with
    the new leaf put on a uniformly random side.  Each of the m steps is
    uniform, which makes the final shape uniform; this serves as an oracle
    for the Catalan-weighted kernel's sampler.  The bits are read off the
    grown child arrays by one pre-order walk, so no tree is built.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = _rng(seed)
    # step m draws j uniform on 0..4m - 3 for its node j // 2 and its side j % 2,
    # all in one call
    draws = rng.integers(0, 4 * np.arange(1, n) - 2).tolist()
    # flat arrays; child < 0 marks a leaf
    left = [-1]
    right = [-1]
    parent = [-1]
    root = 0
    for j in draws:
        pick, side = divmod(j, 2)
        inner = len(left)
        new_leaf = inner + 1
        par = parent[pick]
        children = (pick, new_leaf) if side == 0 else (new_leaf, pick)
        left.extend([children[0], -1])
        right.extend([children[1], -1])
        parent.extend([par, inner])
        parent[pick] = inner
        if par < 0:
            root = inner
        elif left[par] == pick:
            left[par] = inner
        else:
            right[par] = inner
    bits = []
    stack = [root]
    while stack:
        v = stack.pop()
        if left[v] < 0:
            bits.append("0")
        else:
            bits.append("1")
            stack.append(right[v])
            stack.append(left[v])
    return "".join(bits)


def sample_uniform_remy(n: int, seed: "int | np.random.Generator") -> BinaryTree:
    """The tree of sample_uniform_remy_shape(n, seed)."""
    return tree_from_shape_bits(sample_uniform_remy_shape(n, seed))


class _ProductDraw:
    """Exact rejection draws of the left share for a kernel of product form.

    With sigma(k, m-k) = u_k * u_(m-k) / z_m and prefix sums U_i = u_1 +
    ... + u_i (U_0 = 0), a uniform triple (r0, r1, r2) proposes the least j
    with U_j > r0 * U_(m-1), which has probability u_j / U_(m-1), and k = j
    if r2 < 1/2, else m - j; so k has probability (u_k + u_(m-k)) /
    (2 U_(m-1)).  As r0 <= 1 - 2^-53, r0 * U_(m-1) rounds to below
    U_(m-1), so j <= m - 1 with no clamp.  The draw accepts k exactly when
    r1 * f(h) < f(k), with f(k) = u_k * u_(m-k) / (u_k + u_(m-k)) and
    h = floor(m/2), compared cross-multiplied, without a division.  Where
    1/u is convex (see SplitKernel), f(k) <= f(h), so an accepted k has
    probability u_k * u_(m-k) / z_m exactly (the rejection method, Devroye,
    Non-Uniform Random Variate Generation, 1986, II.3), and a triple is
    accepted with probability z_m / (2 U_(m-1) f(h)): at least 0.71 for
    uniform up to m = 4096.  It keeps u, U and the numerator and denominator
    of f(h) at every size, O(n) memory.
    """

    def __init__(self, kernel: SplitKernel, n: int):
        u, _ = kernel._split_factors(n)
        self.u = u
        self.prefix = np.zeros_like(u)
        np.cumsum(u[1:], out=self.prefix[1:])
        # f(h) = top / bottom at each size m, h = floor(m/2)
        m = np.arange(u.size)
        uh, uhm = u[m >> 1], u[m - (m >> 1)]
        self.top, self.bottom = uh * uhm, uh + uhm

    def draw(self, m: np.ndarray, r0: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Left shares at the sizes m, one triple per entry, 0 where the triple is rejected."""
        prefix, u = self.prefix, self.u
        j = np.searchsorted(prefix, r0 * prefix[m - 1], side="right")
        k = np.where(r2 < 0.5, j, m - j)
        uk, ukm = u[k], u[m - k]
        return np.where(r1 * self.top[m] * (uk + ukm) < uk * ukm * self.bottom[m], k, 0)


def _level_drawer(
    kernel: SplitKernel, n: int
) -> Callable[[np.ndarray, np.random.Generator], np.ndarray]:
    """Vectorized k = draw(m, rng): one left share per entry of the size array m <= n.

    It feeds both growth loops, _grow and _block_heights.  A rejection
    kernel's share, and a table's at a size it leaves to such a fallback, is
    0 where its triple is rejected; no other share is 0.  A kernel with no
    draw rule raises TypeError here.
    """
    if isinstance(kernel, TableKernel):
        return _table_drawer(kernel, n)
    if isinstance(kernel, BstKernel):
        return lambda m, rng: rng.integers(1, m)
    if isinstance(kernel, BinomialKernel):
        p = kernel.p
        return lambda m, rng: 1 + rng.binomial(m - 2, p)
    if kernel._split_factors is not None:
        product = _ProductDraw(kernel, n)
        return lambda m, rng: product.draw(m, *rng.random((3, m.size)))
    raise TypeError(f"no draw rule for {kernel!r}")


def _table_drawer(
    kernel: TableKernel, n: int
) -> Callable[[np.ndarray, np.random.Generator], np.ndarray]:
    """The fallback's draw at the sizes the table does not list, inverse CDF at the listed ones.

    The rows of the listed sizes m <= n are kept back to back as complex
    keys m + i * cdf_m.  numpy orders complex numbers by real part, then by
    imaginary part, so keys sort by size and then along each nondecreasing
    row, and one np.searchsorted of m + i * u counts, for every query at
    once, the entries of its own row that are <= u: exactly
    bisect_right(cdf_m, u).  A query's share depends only on its own size
    and uniform.  The keys take twice the memory of the listed rows.  A
    table that lists no size up to n draws as its fallback.
    """
    fallback = _level_drawer(kernel.fallback, n)
    listed = sorted(m for m in kernel.rows if m <= n)
    if not listed:
        return fallback
    keys = np.concatenate([m + 1j * np.cumsum(kernel.rows[m]) for m in listed])
    # where row m's keys begin, -1 at the sizes left to the fallback
    start = np.full(n + 1, -1, dtype=np.int64)
    start[listed] = np.cumsum([0] + [m - 1 for m in listed])[:-1]

    def draw(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        first = start[m]
        left = np.empty_like(m)
        rest = np.flatnonzero(first < 0)
        if rest.size:  # an empty draw takes nothing from rng, so skipping it keeps the stream
            left[rest] = fallback(m[rest], rng)
        at = np.flatnonzero(first >= 0)
        sizes = m[at]
        below = np.searchsorted(keys, sizes + 1j * rng.random(at.size), side="right") - first[at]
        # clamp: a cumulative row can fall a few ulp short of 1
        left[at] = np.minimum(below + 1, sizes - 1)
        return left

    return draw


def _block_heights(
    draw: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    n: int,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Heights of count trees of size n, grown together one step at a time.

    Each step draws once for every pending block, at the block's own depth.
    A draw of 0, a rejected triple, means "not yet": the block splits into
    an empty block and itself, both at its depth, so it comes back whole in
    the next step.  Only blocks that can still raise their tree's height
    are grown.  An m-leaf subtree is at least ceil(log2 m) and at most
    m - 1 tall, so at depth d a block lifts its tree's height to at least
    d + ceil(log2 m), and is dropped, undrawn, once d + m - 1 cannot exceed
    that floor over its tree's blocks.  Empty blocks, leaves and blocks of 2
    or 3 leaves always go.  A dropped subtree cannot set the maximum, and
    every draw depends only on its block's size and fresh uniforms, so each
    height is exact given the draws made and keeps its law.
    """
    heights = np.zeros(count, dtype=np.int64)
    # least[m] = ceil(log2 m) = bit length of m - 1, exact from frexp's exponent
    least = np.zeros(n + 1, dtype=np.int64)
    least[1:] = np.frexp(np.arange(n))[1]
    # pending blocks: size, replicate and depth
    sizes = np.full(count, n, dtype=np.int64)
    owner = np.arange(count)
    depth = np.zeros(count, dtype=np.int32)
    while True:
        np.maximum.at(heights, owner, depth + least[sizes])
        # indices, not a mask: three arrays of 10^5 entries took 2.0 ms to
        # select by a random mask and 0.29 ms by its indices
        keep = np.flatnonzero(depth + sizes - 1 > heights[owner])
        if not keep.size:
            return heights
        sizes, owner, depth = sizes[keep], owner[keep], depth[keep]
        left = draw(sizes, rng)
        depth += left != 0
        depth = np.concatenate((depth, depth))
        owner = np.concatenate((owner, owner))
        sizes = np.concatenate((left, sizes - left))
        # freed now, not when rebound in the next step: one 256-replicate
        # block at n = 10^5 then traces 28.1 MiB for bst and 143.5 MiB for
        # binomial(1/2), against 33.9 and 174.4 MiB
        del keep, left


def _seeded_heights(
    draw: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    n: int,
    replicates: int,
    seed: int,
) -> np.ndarray:
    """Heights of the replicates, block b grown from default_rng(replicate_seed(seed, b))."""
    heights = np.empty(replicates, dtype=np.int64)
    for b, lo in enumerate(range(0, replicates, MC_BLOCK)):
        hi = min(lo + MC_BLOCK, replicates)
        rng = np.random.default_rng(replicate_seed(seed, b))
        heights[lo:hi] = _block_heights(draw, n, hi - lo, rng)
    return heights


def _mean_stderr(heights: np.ndarray) -> tuple[float, float]:
    mean = float(heights.mean())
    stderr = float(heights.std(ddof=1) / np.sqrt(heights.size))
    return mean, stderr


def mc_heights(kernel: SplitKernel, n: int, replicates: int, seed: int = 0) -> np.ndarray:
    """Heights of `replicates` independent trees of size n, seeded by blocks.

    Replicates are grown MC_BLOCK at a time; block b draws from
    default_rng(replicate_seed(seed, b)).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if replicates < 1:
        raise ValueError(f"need replicates >= 1, got {replicates}")
    return _seeded_heights(_level_drawer(kernel, n), n, replicates, seed)


def mc_expected_height(
    kernel: SplitKernel, n: int, replicates: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the height at size n, from mc_heights."""
    if replicates < 2:
        raise ValueError(f"need replicates >= 2 for a standard error, got {replicates}")
    return _mean_stderr(mc_heights(kernel, n, replicates, seed))


def mc_expected_height_grid(
    kernel: SplitKernel, grid: Iterable[int], replicates: int, seed: int = 0
) -> dict[int, tuple[float, float]]:
    """Monte Carlo mean and standard error at each size of the grid.

    Size n gets mc_expected_height(kernel, n, replicates,
    replicate_seed(seed, n)), bit for bit.  One draw function, built for
    the largest size, serves every size, so a table kernel builds the
    cumulative rows of its listed sizes, and a rejection kernel its prefix
    sums, once per grid rather than once per size.
    """
    sizes = sorted(set(grid))
    if replicates < 2:
        raise ValueError(f"need replicates >= 2 for a standard error, got {replicates}")
    if sizes and sizes[0] < 1:
        raise ValueError(f"need n >= 1, got {sizes[0]}")
    draw = _level_drawer(kernel, max(sizes, default=1))
    return {
        n: _mean_stderr(_seeded_heights(draw, n, replicates, replicate_seed(seed, n)))
        for n in sizes
    }
