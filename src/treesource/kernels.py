"""Split kernels: the probability law that drives a random tree source.

A kernel assigns to every size n >= 2 a distribution over root splits,
sigma(i, j) with i + j = n, meaning "the left subtree gets i of the n
leaves".  Rows must be nonnegative and sum to one.  The probability of a
whole tree is the product of sigma over its inner nodes.

Built-in kernels. With n = i + j:

  bst          sigma(i, j) = 1/(n - 1), the split law of binary search
               tree insertion under a random permutation
  uniform      sigma(i, j) = T_i * T_j / T_n where T_m counts trees of
               size m, so every shape of size n is equally likely
  binomial(p)  sigma(i, j) = C(n-2, i-1) p^(i-1) (1-p)^(j-1), the left
               subtree size is 1 + Binomial(n-2, p)
  table        explicit per-n rows with a built-in fallback elsewhere

Binomial rows are built by Pascal steps from row 2 = [1]: with a = [0, row m]
and b = [row m, 0], row m+1 = p*a + q*b, q = 1 - p.  The step computes it as
b + p*(a - b) for p < 1/2 and as a - q*(a - b) otherwise, so its only
multiplier is the smaller of p and q, which is an exact double (1 - p rounds
for p < 1/2, but not for p >= 1/2).  A rounded q would bias every step the
same way and make row sums drift linearly in n; this form has no such bias,
and a step's three roundings add at most about 3*2^-53 to the relative error
of an entry above the underflow range.  Against the exact rows at n = 8182,
every entry above 1e-300 is within 6e-14 relative for p = 0.03, 0.1, 0.3,
0.5, 0.7 and 0.97, and row sums stay within 1e-15 of one up to n = 40000 for
p = 0.3.  Far out in the tails the rows fall into subnormal doubles, which
are slow to compute with and mostly rounding noise.  A step therefore sets
the entries at either end of a row that fall below 2^-1064 to 0 and works on
the band between them, which is O(sqrt(n)) wide.  At n = 8182 and 30000, for
p = 0.03, 0.3, 0.5 and 0.97, every entry above 1e-300 comes out bit for bit
as without dropping.  The step and the dropping rule are the same on every
path, so a row has the same bits whichever path built it.  Building row n
costs n - 2 steps, so callers that need rows of many sizes take them from
one ascending walk.  sigma builds no row at any size: it is evaluated
directly in O(1) by Loader's saddle-point form.  For every n < 200 at
p = 0.03, 0.3, 0.5, 0.7 and 0.97 it is within 2.4e-13 relative of the exact
value.

Kernels keep no rows: every row is built when it is asked for, and the
caller that asked owns it.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .trees import BinaryTree, count_trees, inner_split_sizes

__all__ = [
    "SplitKernel",
    "BstKernel",
    "UniformKernel",
    "BinomialKernel",
    "TableKernel",
    "KernelSpec",
    "KernelFormatError",
    "ValidationReport",
    "make_kernel",
    "validate_kernel",
    "tree_probability",
    "load_kernel_spec",
    "render_kernel_spec",
]

CLOSED_FORM_TOL = 1e-12
TABLE_TOL = 1e-9

# the split row at size 2, shared and read-only
_ROW_2 = np.ones(1)
_ROW_2.setflags(write=False)

# Binomial rows drop entries below this at their ends: see the module docstring
_FLUSH = 2.0**-1064


class KernelFormatError(ValueError):
    """Raised for malformed or inconsistent kernel descriptions."""


def _check_pair(i: int, j: int) -> int:
    if i < 1 or j < 1:
        raise ValueError(f"split sides must be >= 1, got ({i}, {j})")
    return i + j


class SplitKernel:
    """Base class; concrete kernels implement the scalar forms and _row.

    A kernel whose rows follow from the previous row, or from a table best
    grown once per walk, overrides _ascending_rows instead of _row.  Callers that need rows of many sizes
    in increasing order take them from _ascending_rows, which builds each
    row once and keeps none of them.

    A kernel whose splits have product form, sigma(k, m-k) = u_k * u_(m-k)
    / z_m, defines _split_factors(n), which returns (u, z) over 0..n; the
    survival scan then builds no split row (see heights).  For the others
    _split_factors is None.
    """

    kind: str = "abstract"
    _split_factors: "Callable[[int], tuple[np.ndarray, np.ndarray]] | None" = None

    # --- scalar interface -------------------------------------------------

    def sigma(self, i: int, j: int) -> float:
        """Probability of the root split (i, j) at size i + j."""
        raise NotImplementedError

    def sigma_exact(self, i: int, j: int) -> Fraction:
        """sigma(i, j) as an exact rational.

        For float-parameterized kernels the stored double is treated as the
        exact parameter value.
        """
        raise NotImplementedError

    # --- row interface ----------------------------------------------------

    def _row(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def split_pmf(self, n: int) -> np.ndarray:
        """Raw split row at size n: entry k-1 holds sigma(k, n-k).

        The row is built afresh on every call, which for a binomial kernel
        takes n - 2 Pascal steps.  It may be read-only; do not mutate it.
        """
        if n < 2:
            raise ValueError(f"split rows exist for n >= 2, got {n}")
        return next(self._ascending_rows([n]))

    def split_cdf(self, n: int) -> list[float]:
        """Cumulative split row as a plain list; kept only because bench/tracing.py wraps it."""
        return np.cumsum(self.split_pmf(n)).tolist()

    def _ascending_rows(self, sizes: Sequence[int]) -> Iterator[np.ndarray]:
        """Split rows of the given increasing sizes, in one pass that keeps none of them.

        Rows may be read-only; do not mutate them.
        """
        for m in sizes:
            yield self._row(m)

    def _work_cells(self, n: int) -> int:
        """Doubles, besides one row in flight, that building rows or factors up to size n may take.

        That is state the kernel keeps across calls, such as a table, with
        the temporaries of growing it or of forming a row from it.
        """
        return 0

    def pmf_matrix(self, n: int) -> np.ndarray:
        """Dense (n+1) x (n+1) matrix W with W[m, k] = sigma(k, m-k).

        The rows come from one ascending walk.  The survival scan does not
        call this: it keeps a folded W as row-block panels built from the
        same walk, and for kernels of product form no W at all (see
        heights).  It stays only as bench/tracing.py wraps it.
        """
        W = np.zeros((n + 1, n + 1))
        for m, row in enumerate(self._ascending_rows(range(2, n + 1)), 2):
            W[m, 1:m] = row
        return W

    # --- description ------------------------------------------------------

    def spec(self) -> "KernelSpec":
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class BstKernel(SplitKernel):
    """Uniform split position: sigma(i, j) = 1/(i + j - 1)."""

    kind = "bst"

    def sigma(self, i: int, j: int) -> float:
        n = _check_pair(i, j)
        return 1.0 / (n - 1)

    def sigma_exact(self, i: int, j: int) -> Fraction:
        n = _check_pair(i, j)
        return Fraction(1, n - 1)

    def _row(self, n: int) -> np.ndarray:
        return np.full(n - 1, 1.0 / (n - 1))

    def _split_factors(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        # u = 1 and z_m = m - 1, each exact
        return np.ones(n + 1), np.arange(-1.0, n)

    def spec(self) -> "KernelSpec":
        return KernelSpec(kind="bst")


class UniformKernel(SplitKernel):
    """Catalan-weighted splits; induces the uniform law on tree shapes.

    sigma(k, m-k) = c_k * c_(m-k) / (4 c_m), where c_m = T_m / 4^(m-1) is
    the product of (2j - 3) / (2j) over j = 2..m.  sigma and the rows
    evaluate this one expression on one table of c, so they agree bit for
    bit; c_m falls only like m^-1.5, so nothing overflows or underflows.
    Up to 31 leaves every entry equals float(sigma_exact).  Up to 16400,
    rows sum to one within 7e-16, and at n = 3162, 8000, 16000 and 16341
    the entries k = 1, 2, 7, n/4, n/3 and n/2 are within 6.5e-15 relative
    of the exact quotient of tree counts.  The split factors are u = c and
    z = 4c on the same table.

    The table is grown, to at least twice its length, by the first call
    that reads past its end; a walk of rows grows it once, to its largest
    size, when its first row is asked for.
    """

    kind = "uniform"

    def __init__(self):
        self._catalan = np.ones(2)
        self._catalan_lock = threading.Lock()

    def _scaled_catalan(self, upto: int) -> np.ndarray:
        # c_m for m = 0..upto (c_0 = 1 is never read); a sequential cumprod,
        # so a longer table repeats a shorter one's entries bit for bit
        if len(self._catalan) <= upto:
            with self._catalan_lock:
                if len(self._catalan) <= upto:
                    hi = max(upto + 1, 2 * len(self._catalan), 1024)
                    # the ratios (2j - 3) / (2j), each one rounding, then
                    # their running product, all in one array and one temporary
                    c = np.arange(0.0, 2.0 * hi, 2.0)
                    np.divide(c[2:] - 3.0, c[2:], out=c[2:])
                    c[:2] = 1.0
                    np.multiply.accumulate(c, out=c)
                    self._catalan = c
        return self._catalan

    def _work_cells(self, n: int) -> int:
        # growing past n holds the old table (at most n entries), the new
        # one (at most max(2n, 1024), as the old one is at most n long) and
        # one temporary as long; once grown, a row takes one temporary of
        # at most n entries besides itself
        return n + 2 * max(2 * n, 1024)

    def _split_factors(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        c = self._scaled_catalan(n)[: n + 1]
        return c, 4.0 * c

    def sigma(self, i: int, j: int) -> float:
        n = _check_pair(i, j)
        c = self._scaled_catalan(n)
        return float(c[i] * c[j] / (4.0 * c[n]))

    def sigma_exact(self, i: int, j: int) -> Fraction:
        n = _check_pair(i, j)
        return Fraction(count_trees(i) * count_trees(j), count_trees(n))

    def _ascending_rows(self, sizes: Sequence[int]) -> Iterator[np.ndarray]:
        c = self._scaled_catalan(sizes[-1] if len(sizes) else 2)
        for n in sizes:
            yield c[1:n] * c[n - 1 : 0 : -1] / (4.0 * c[n])

    def spec(self) -> "KernelSpec":
        return KernelSpec(kind="uniform")


class BinomialKernel(SplitKernel):
    """Left size is 1 + Binomial(n-2, p); p = 1/2 gives the most balanced rows."""

    kind = "binomial"

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"binomial parameter must lie in (0, 1), got {p}")
        self.p = float(p)
        self._q = 1.0 - self.p

    def sigma(self, i: int, j: int) -> float:
        n = _check_pair(i, j)
        return _binomial_pmf(i - 1, n - 2, self.p, self._q)

    def sigma_exact(self, i: int, j: int) -> Fraction:
        n = _check_pair(i, j)
        p = Fraction(self.p)
        return p ** (i - 1) * (1 - p) ** (j - 1) * math.comb(n - 2, i - 1)

    def _pascal_step(self, band: np.ndarray) -> tuple[int, np.ndarray]:
        """One row up from the nonzero band of a row: the next band and its shift.

        The next row is p*a + q*b with a = [0, row], b = [row, 0], evaluated
        as b + p*(a - b) or a - q*(a - b), whichever multiplier is the exact
        one (see the module docstring).  Entries outside the band are 0 on
        both rows; entries below _FLUSH at the new band's ends are dropped.
        """
        out = np.empty(band.size + 1)
        out[0] = -band[0]
        np.subtract(band[:-1], band[1:], out=out[1:-1])
        out[-1] = band[-1]
        if self.p < 0.5:
            out *= self.p
            out[:-1] += band
        else:
            out *= -self._q
            out[1:] += band
        i, j = 0, out.size
        while out[i] < _FLUSH:
            i += 1
        while out[j - 1] < _FLUSH:
            j -= 1
        return i, out[i:j]

    def _ascending_rows(self, sizes: Sequence[int]) -> Iterator[np.ndarray]:
        """Rows of the given increasing sizes, by Pascal steps from row 2."""
        m, lo, band = 2, 0, _ROW_2
        for n in sizes:
            while m < n:
                m += 1
                shift, band = self._pascal_step(band)
                lo += shift
            yield _spread(band, lo, m)

    def describe(self) -> str:
        return f"binomial(p={self.p!r})"

    def spec(self) -> "KernelSpec":
        return KernelSpec(kind="binomial", p=self.p)


class TableKernel(SplitKernel):
    """Explicit rows for listed sizes, delegating to a fallback kernel elsewhere.

    Rows are validated on construction: length n-1, nonnegative entries,
    sum within TABLE_TOL of one.
    """

    kind = "table"

    def __init__(self, rows: dict[int, "np.ndarray | list[float]"], fallback: SplitKernel):
        if isinstance(fallback, TableKernel):
            raise KernelFormatError("fallback must be a closed-form kernel")
        self.fallback = fallback
        self.rows: dict[int, np.ndarray] = {}
        for n, row in rows.items():
            arr = np.asarray(row, dtype=float)
            if n < 2:
                raise KernelFormatError(f"table rows need n >= 2, got n={n}")
            if arr.shape != (n - 1,):
                raise KernelFormatError(
                    f"row for n={n} must have {n - 1} entries, got {arr.shape[0]}"
                )
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise KernelFormatError(f"row for n={n} has negative or non-finite entries")
            dev = abs(float(arr.sum()) - 1.0)
            if dev > TABLE_TOL:
                raise KernelFormatError(
                    f"row for n={n} sums to 1{dev:+.3e}, beyond tolerance {TABLE_TOL:g}"
                )
            arr.setflags(write=False)
            self.rows[n] = arr

    def sigma(self, i: int, j: int) -> float:
        n = _check_pair(i, j)
        row = self.rows.get(n)
        if row is not None:
            return float(row[i - 1])
        return self.fallback.sigma(i, j)

    def sigma_exact(self, i: int, j: int) -> Fraction:
        n = _check_pair(i, j)
        row = self.rows.get(n)
        if row is not None:
            return Fraction(float(row[i - 1]))
        return self.fallback.sigma_exact(i, j)

    def _work_cells(self, n: int) -> int:
        return self.fallback._work_cells(n)

    def _ascending_rows(self, sizes: Sequence[int]) -> Iterator[np.ndarray]:
        # the fallback builds only the rows the table does not list
        fallback = self.fallback._ascending_rows([m for m in sizes if m not in self.rows])
        for m in sizes:
            yield self.rows[m] if m in self.rows else next(fallback)

    def describe(self) -> str:
        sizes = ",".join(str(n) for n in sorted(self.rows))
        return f"table(n={{{sizes}}}, fallback={self.fallback.describe()})"

    def spec(self) -> "KernelSpec":
        fb = self.fallback.spec()
        return KernelSpec(
            kind="table",
            rows={n: [float(x) for x in row] for n, row in self.rows.items()},
            fallback=fb.kind,
            fallback_p=fb.p,
        )


def _spread(band: np.ndarray, lo: int, n: int) -> np.ndarray:
    """The read-only split row at size n that holds band from entry lo and 0 elsewhere."""
    row = np.zeros(n - 1)
    row[lo : lo + band.size] = band
    row.setflags(write=False)
    return row


# --- one binomial probability in O(1) ------------------------------------------
#
# C. Loader, "Fast and accurate computation of binomial probabilities"
# (2000): the probability is written through Stirling's formula with its
# error term and the deviance bd0, each evaluated without cancellation, so
# the result keeps near full relative accuracy for any number of trials.

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), for n >= 1."""
    if n <= 15:
        return math.log(math.factorial(n)) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_2PI
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x for x, m > 0, by a series in v = (x-m)/(x+m) near x = m."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    term = 2.0 * x * v
    v2 = v * v
    j = 3
    while True:
        term *= v2
        s_next = s + term / j
        if s_next == s:
            return s
        s, j = s_next, j + 2


def _binomial_pmf(k: int, n: int, p: float, q: float) -> float:
    """C(n, k) p^k q^(n-k) for n >= 0, with q = 1 - p."""
    if k == 0:
        return math.exp(n * math.log1p(-p))
    if k == n:
        return math.exp(n * math.log(p))
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    return math.exp(lc) * math.sqrt(n / (2.0 * math.pi * k * (n - k)))


def make_kernel(kind: str, p: float | None = None) -> SplitKernel:
    """Construct a closed-form kernel by name."""
    if kind == "bst":
        return BstKernel()
    if kind == "uniform":
        return UniformKernel()
    if kind == "binomial":
        if p is None:
            raise KernelFormatError("binomial kernel needs a parameter p")
        return BinomialKernel(p)
    raise KernelFormatError(f"unknown kernel kind {kind!r}")


# --- whole-tree probability ------------------------------------------------


def tree_probability(kernel: SplitKernel, t: BinaryTree) -> tuple[float, float]:
    """Probability of a tree under a kernel, as (linear, natural log).

    It is the product of kernel.sigma over the inner nodes, so it builds
    no row.  For bst and uniform kernels sigma is the row entry bit for
    bit.  For binomial kernels sigma and the split rows may differ in the
    last bits, so this product may differ from one of row entries by about
    1e-13 relative.  The linear value is a running product and may
    underflow to 0 for deep trees; the log value stays finite unless some
    split has probability 0, in which case it is -inf.
    """
    prob = 1.0
    logprob = 0.0
    for i, j in inner_split_sizes(t):
        s = kernel.sigma(i, j)
        prob *= s
        logprob += math.log(s) if s > 0.0 else -math.inf
    return prob, logprob


# --- validation --------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Row-sum and nonnegativity audit of a kernel over sizes 2..n_max."""

    kernel: str
    n_max: int
    tol: float
    worst_deviation: float
    worst_n: int
    min_entry: float
    min_entry_n: int
    offenders: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.offenders

    def summary(self) -> str:
        if self.passed:
            return (
                f"{self.kernel}: rows 2..{self.n_max} normalized within {self.tol:g} "
                f"(worst {self.worst_deviation:.3e} at n={self.worst_n})"
            )
        head = ", ".join(str(n) for n in self.offenders[:8])
        more = "" if len(self.offenders) <= 8 else f" and {len(self.offenders) - 8} more"
        return (
            f"{self.kernel}: FAILED at n={{{head}{more}}}; "
            f"worst deviation {self.worst_deviation:.3e} at n={self.worst_n}, "
            f"tolerance {self.tol:g}"
        )


def default_tolerance(kernel: SplitKernel) -> float:
    return TABLE_TOL if kernel.kind == "table" else CLOSED_FORM_TOL


def validate_kernel(kernel: SplitKernel, n_max: int, tol: float | None = None) -> ValidationReport:
    """Check row sums and nonnegativity for all sizes 2..n_max."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if tol is None:
        tol = default_tolerance(kernel)
    worst_dev, worst_n = 0.0, 2
    min_entry, min_entry_n = math.inf, 2
    offenders = []
    for n, row in enumerate(kernel._ascending_rows(range(2, n_max + 1)), 2):
        dev = abs(float(row.sum()) - 1.0)
        lo = float(row.min())
        if dev > worst_dev:
            worst_dev, worst_n = dev, n
        if lo < min_entry:
            min_entry, min_entry_n = lo, n
        if dev > tol or lo < 0.0:
            offenders.append(n)
    return ValidationReport(
        kernel=kernel.describe(),
        n_max=n_max,
        tol=tol,
        worst_deviation=worst_dev,
        worst_n=worst_n,
        min_entry=min_entry,
        min_entry_n=min_entry_n,
        offenders=tuple(offenders),
    )


# --- serialized kernel descriptions ------------------------------------------
#
# A kernel description is a single JSON object:
#
#   {"kind": "bst"}
#   {"kind": "uniform"}
#   {"kind": "binomial", "p": 0.3}
#   {"kind": "table",
#    "rows": {"4": [0.25, 0.5, 0.25]},
#    "fallback": "binomial", "fallback_p": 0.5}
#
# "p" is required exactly when kind is binomial; table rows map the decimal
# size to n-1 nonnegative numbers summing to 1 within 1e-9; "fallback" names
# a closed-form kind and "fallback_p" is required exactly when the fallback
# is binomial.  Unknown fields and repeated keys, at any level, are rejected.

_CLOSED_KINDS = ("bst", "uniform", "binomial")


@dataclass(frozen=True)
class KernelSpec:
    """Parsed form of the JSON kernel description; round-trips exactly."""

    kind: str
    p: float | None = None
    rows: dict[int, list[float]] | None = field(default=None)
    fallback: str | None = None
    fallback_p: float | None = None

    @staticmethod
    def parse(text: str) -> "KernelSpec":
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise KernelFormatError(f"not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise KernelFormatError("kernel description must be a JSON object")
        kind = obj.get("kind")
        if kind not in _CLOSED_KINDS + ("table",):
            raise KernelFormatError(f"unknown kernel kind {kind!r}")
        allowed = {"kind"}
        if kind == "binomial":
            allowed.add("p")
        if kind == "table":
            allowed |= {"rows", "fallback", "fallback_p"}
        extra = set(obj) - allowed
        if extra:
            raise KernelFormatError(f"unexpected fields for kind {kind!r}: {sorted(extra)}")

        p = None
        if kind == "binomial":
            p = _parse_p(obj, "p")
        rows = None
        fallback = None
        fallback_p = None
        if kind == "table":
            raw = obj.get("rows")
            if not isinstance(raw, dict) or not raw:
                raise KernelFormatError("table kernel needs a nonempty 'rows' object")
            rows = {}
            for key, val in raw.items():
                # one spelling per size, so the rows loaded are the rows rendered
                if not (key.isascii() and key.isdigit() and str(int(key)) == key):
                    raise KernelFormatError(
                        f"row key must be a size in ASCII digits without leading zeros, got {key!r}"
                    )
                n = int(key)
                if not isinstance(val, list) or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
                ):
                    raise KernelFormatError(f"row for n={n} must be an array of numbers")
                rows[n] = [float(x) for x in val]
            fallback = obj.get("fallback")
            if fallback not in _CLOSED_KINDS:
                raise KernelFormatError(
                    f"table fallback must be one of {list(_CLOSED_KINDS)}, got {fallback!r}"
                )
            if fallback == "binomial":
                fallback_p = _parse_p(obj, "fallback_p")
            elif "fallback_p" in obj:
                raise KernelFormatError("fallback_p only applies to a binomial fallback")
        return KernelSpec(kind=kind, p=p, rows=rows, fallback=fallback, fallback_p=fallback_p)

    def render(self) -> str:
        obj: dict = {"kind": self.kind}
        if self.kind == "binomial":
            obj["p"] = self.p
        if self.kind == "table":
            assert self.rows is not None
            obj["rows"] = {str(n): self.rows[n] for n in sorted(self.rows)}
            obj["fallback"] = self.fallback
            if self.fallback == "binomial":
                obj["fallback_p"] = self.fallback_p
        return json.dumps(obj, sort_keys=True)

    def build(self) -> SplitKernel:
        if self.kind == "table":
            assert self.rows is not None and self.fallback is not None
            try:
                fb = make_kernel(self.fallback, self.fallback_p)
                return TableKernel({n: row for n, row in self.rows.items()}, fb)
            except KernelFormatError:
                raise
            except ValueError as exc:
                raise KernelFormatError(str(exc)) from exc
        try:
            return make_kernel(self.kind, self.p)
        except ValueError as exc:
            raise KernelFormatError(str(exc)) from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key raises, where json would keep the last value."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise KernelFormatError(f"duplicate key {key!r} in kernel description")
        obj[key] = val
    return obj


def _parse_p(obj: dict, key: str) -> float:
    val = obj.get(key)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise KernelFormatError(f"'{key}' must be a number in (0, 1)")
    val = float(val)
    if not 0.0 < val < 1.0:
        raise KernelFormatError(f"'{key}' must lie strictly in (0, 1), got {val}")
    return val


def load_kernel_spec(text: str) -> SplitKernel:
    """Parse a JSON kernel description and build the kernel."""
    return KernelSpec.parse(text).build()


def render_kernel_spec(kernel: SplitKernel) -> str:
    """Serialize a kernel back to its JSON description."""
    return kernel.spec().render()
