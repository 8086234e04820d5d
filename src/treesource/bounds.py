"""Certified upper bounds on expected height, verified against the exact DP.

Two source classes are supported, each with a finite-size certificate that
holds for every size once the membership envelope holds from n_min on.

Envelope-bounded sources keep every symmetrized split small:
sigma(i, n-i) + sigma(n-i, i) <= psi(n) = c * (n - shift)^(-alpha) for
n >= n_min.  The certificate is built from the companion function

    ln g(x) = ln c + 1 + e*c*x^(1-alpha)/(1-alpha) - alpha*ln x   (alpha < 1)
    ln g(x) = ln c + 1 + (e*c - 1)*ln x                           (alpha = 1)

giving E(e^H_n) <= e^n_min * g(n) and E(H_n) <= ln g(n) + n_min.  The
fitted shift only sharpens the membership envelope; the certificate's
side conditions concern the unshifted family c*x^(-alpha) and follow from
c >= 1/e and 0 <= alpha <= 1 (see UpperBoundedParams).

Weakly balanced sources put mass at least phi(n) on middle splits
(gamma*n <= k <= (1-gamma)*n) for n >= n_min.  With the exponent
kappa = log2(2*(1+phi(n))/phi(n)) / log2(1/(1-gamma)) the certificate is
E((1+phi(n))^H_n) <= 2^n_min * n^kappa and
E(H_n) <= (kappa*log2 n + n_min) / log2(1+phi(n)).

Certificate magnitudes overflow doubles quickly, so every bound is carried
as a logarithm and all comparisons happen on the log scale, each family in
its own base: natural log for the envelope family, base 2 for the balance
family.  Reports label the base.

Each params class answers for its family: its label and log base, the
moment base at size n, its certificate at n and whether a split row meets
membership at n.  Verification is one loop over the grid for both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from .heights import DEFAULT_MEM_BUDGET, DEFAULT_TAIL_TOL, _RowTap, _grid_scan
from .kernels import BinomialKernel, BstKernel, SplitKernel, UniformKernel
from .sampling import mc_expected_height_grid

__all__ = [
    "PASS_TOL",
    "PhiFunction",
    "UpperBoundedParams",
    "WeaklyBalancedParams",
    "UpperBoundCertificate",
    "BalanceCertificate",
    "BoundRow",
    "BoundReport",
    "Preset",
    "PRESET_NAMES",
    "make_preset",
    "psi_envelope",
    "phi_balance",
    "balance_exponent",
    "asymptotic_power_bound",
    "upper_bounded_certificate",
    "weakly_balanced_certificate",
    "verify_certificates",
]

# slack allowed on every asserted inequality (log scale for moments)
PASS_TOL = 1e-9

_LN2 = math.log(2.0)
_MAX_EXP = math.log(np.finfo(float).max)


# --- class parameter descriptors ---------------------------------------------


@dataclass(frozen=True)
class PhiFunction:
    """Nonincreasing balance profile phi: sizes -> (0, 1].

    Three forms: a constant, coeff/sqrt(n) capped at 1, or an explicit
    per-size table.
    """

    kind: str
    value: float | None = None
    coeff: float | None = None
    table: "tuple[tuple[int, float], ...] | None" = None

    @staticmethod
    def constant(value: float) -> "PhiFunction":
        if not 0.0 < value <= 1.0:
            raise ValueError(f"constant profile must lie in (0, 1], got {value}")
        return PhiFunction(kind="constant", value=float(value))

    @staticmethod
    def inv_sqrt(coeff: float) -> "PhiFunction":
        if not coeff > 0.0:
            raise ValueError(f"inv_sqrt profile needs coeff > 0, got {coeff}")
        return PhiFunction(kind="inv_sqrt", coeff=float(coeff))

    @staticmethod
    def from_table(values: "dict[int, float]") -> "PhiFunction":
        items = tuple(sorted((int(n), float(v)) for n, v in values.items()))
        if not items:
            raise ValueError("table profile must be nonempty")
        for n, v in items:
            if n < 1 or not 0.0 < v <= 1.0:
                raise ValueError(f"table entry ({n}, {v}) outside size >= 1, value in (0, 1]")
        vals = [v for _, v in items]
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise ValueError("table profile must be nonincreasing in size")
        return PhiFunction(kind="table", table=items)

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"profile is defined for sizes >= 1, got {n}")
        if self.kind == "constant":
            return self.value
        if self.kind == "inv_sqrt":
            return min(1.0, self.coeff / math.sqrt(n))
        for size, v in self.table:
            if size == n:
                return v
        raise ValueError(f"table profile has no entry for size {n}")

    def describe(self) -> str:
        if self.kind == "constant":
            return f"{self.value:g}"
        if self.kind == "inv_sqrt":
            return f"{self.coeff:g}/sqrt(n)"
        return f"table({self.table[0][0]}..{self.table[-1][0]})"


@dataclass(frozen=True)
class UpperBoundedParams:
    """Envelope class: symmetrized splits <= c*(x - shift)^(-alpha) from n_min on.

    shift defaults to 0; a positive shift tightens membership for kernels
    whose envelope has the shifted form, while the certificate itself is
    computed from (c, alpha) alone.

    The certificate's side conditions hold for every instance, because
    __post_init__ enforces their premises.

    Lemma.  If c >= 1/e and 0 <= alpha <= 1, then for every x >= 1:

    (i) ln g is nondecreasing: d/dx ln g(x) = (e*c*x^(1-alpha) - alpha)/x,
        and e*c*x^(1-alpha) >= e*c >= 1 >= alpha because x^(1-alpha) >= 1.
    (ii) g(x) >= e*psi(x)*exp(e*Psi(x)), where psi(x) = c*x^(-alpha) and
        Psi(x) = c*x^(1-alpha)/(1-alpha) (c*ln x at alpha = 1) is its
        antiderivative: the log of the right side,
        1 + ln c - alpha*ln x + e*Psi(x), is ln g(x) term by term, so (ii)
        holds with equality.
    (iii) g(1) >= 1: ln g(1) = ln c + 1 + e*c/(1-alpha) >= ln c + 1 >= 0
        for alpha < 1, and ln g(1) = ln c + 1 >= 0 at alpha = 1.

    No condition is evaluated in floating point, where (ii) would compare
    two roundings of one number and could fail at large x.
    """

    family: ClassVar[str] = "envelope-bounded"
    log_base: ClassVar[str] = "e"
    ln_base: ClassVar[float] = 1.0
    conditions_ok: ClassVar["bool | None"] = True  # by the lemma

    c: float
    alpha: float
    n_min: int
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not self.c >= 1.0 / math.e:
            raise ValueError(f"need c >= 1/e, got {self.c}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"need 0 <= alpha <= 1, got {self.alpha}")
        if self.n_min < 1:
            raise ValueError(f"need n_min >= 1, got {self.n_min}")
        if not 0.0 <= self.shift < 2.0:
            raise ValueError(f"need 0 <= shift < 2, got {self.shift}")

    def psi(self, n: float) -> float:
        """Envelope value at size n (n must exceed the shift)."""
        if n <= self.shift:
            raise ValueError(f"envelope undefined at n={n} with shift {self.shift}")
        return self.c * (n - self.shift) ** (-self.alpha)

    def moment_base(self, n: int) -> float:
        """Base b of the certified moment E(b^H_n)."""
        return math.e

    def certificate(self, n: int) -> "UpperBoundCertificate":
        return upper_bounded_certificate(self, n)

    def admits(self, n: int, row: np.ndarray) -> bool:
        """Membership at size n: the split row's envelope is at most psi(n)."""
        return _envelope(row) <= self.psi(n) + PASS_TOL

    def describe(self) -> str:
        base = f"x-{self.shift:g}" if self.shift else "x"
        return f"psi(x)={self.c:g}*({base})^(-{self.alpha:g}), n_min={self.n_min}"


@dataclass(frozen=True)
class WeaklyBalancedParams:
    """Balance class: middle-split mass >= phi(n) at cut gamma from n_min on.

    The certificate has no side conditions.
    """

    family: ClassVar[str] = "weakly-balanced"
    log_base: ClassVar[str] = "2"
    ln_base: ClassVar[float] = _LN2
    conditions_ok: ClassVar["bool | None"] = None

    phi: PhiFunction
    gamma: float
    n_min: int

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 0.5:
            raise ValueError(f"need 0 < gamma < 1/2, got {self.gamma}")
        if self.n_min < 1:
            raise ValueError(f"need n_min >= 1, got {self.n_min}")

    def moment_base(self, n: int) -> float:
        """Base b of the certified moment E(b^H_n)."""
        return 1.0 + self.phi(n)

    def certificate(self, n: int) -> "BalanceCertificate":
        return weakly_balanced_certificate(self, n)

    def admits(self, n: int, row: np.ndarray) -> bool:
        """Membership at size n: the split row's middle mass is at least phi(n)."""
        return _balance(row, self.gamma) >= self.phi(n) - PASS_TOL

    def describe(self) -> str:
        return f"phi(n)={self.phi.describe()}, gamma={self.gamma:g}, n_min={self.n_min}"


# --- pointwise class diagnostics ----------------------------------------------


def psi_envelope(kernel: SplitKernel, n: int) -> float:
    """Tightest envelope value at size n: max_i sigma(i, n-i) + sigma(n-i, i)."""
    if n < 2:
        raise ValueError(f"envelope needs n >= 2, got {n}")
    return _envelope(kernel.split_pmf(n))


def _envelope(row: np.ndarray) -> float:
    return float(np.max(row + row[::-1]))


def phi_balance(kernel: SplitKernel, n: int, gamma: float) -> float:
    """Mass on middle splits: sum of sigma(k, n-k) over ceil(gamma*n) <= k <= n - ceil(gamma*n)."""
    if n < 2:
        raise ValueError(f"balance needs n >= 2, got {n}")
    if not 0.0 < gamma < 0.5:
        raise ValueError(f"need 0 < gamma < 1/2, got {gamma}")
    return _balance(kernel.split_pmf(n), gamma)


def _balance(row: np.ndarray, gamma: float) -> float:
    # the window is symmetric about n/2, so a row and its mirror image agree
    n = row.size + 1
    lo = math.ceil(gamma * n)
    return float(np.sum(row[lo - 1 : n - lo])) if 2 * lo <= n else 0.0


# --- closed-form certificate pieces -------------------------------------------


def _companion_log(c: float, alpha: float, x: np.ndarray) -> np.ndarray:
    """ln g(x), the derivative-side companion of the envelope certificate."""
    lx = np.log(x)
    if alpha == 1.0:
        return math.log(c) + 1.0 + (math.e * c - 1.0) * lx
    return math.log(c) + 1.0 + math.e * c * x ** (1.0 - alpha) / (1.0 - alpha) - alpha * lx


def asymptotic_power_bound(c: float, alpha: float, n: int) -> float:
    """Leading-order height bound for the power envelope family.

    (e*c/(1-alpha)) * n^(1-alpha) for alpha < 1, (e*c - 1) * ln n at
    alpha = 1.  Main term only; finite-size guarantees come from
    upper_bounded_certificate.
    """
    if not c >= 1.0 / math.e:
        raise ValueError(f"need c >= 1/e, got {c}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"need 0 <= alpha <= 1, got {alpha}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if alpha == 1.0:
        return (math.e * c - 1.0) * math.log(n)
    return math.e * c / (1.0 - alpha) * n ** (1.0 - alpha)


def balance_exponent(phi_value: float, gamma: float) -> float:
    """Moment exponent kappa of the balance certificate."""
    if not 0.0 < phi_value <= 1.0:
        raise ValueError(f"need phi in (0, 1], got {phi_value}")
    if not 0.0 < gamma < 0.5:
        raise ValueError(f"need 0 < gamma < 1/2, got {gamma}")
    return math.log2(2.0 * (1.0 + phi_value) / phi_value) / math.log2(1.0 / (1.0 - gamma))


@dataclass(frozen=True)
class UpperBoundCertificate:
    """Finite-size envelope certificate at one size; logs are natural."""

    n: int
    companion_log: float
    moment_bound_log: float  # bounds E(e^H_n)
    height_bound: float


def upper_bounded_certificate(params: UpperBoundedParams, n: int) -> UpperBoundCertificate:
    """Moment and height bounds at size n for the envelope class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    g = float(_companion_log(params.c, params.alpha, np.array([float(n)]))[0])
    return UpperBoundCertificate(
        n=n,
        companion_log=g,
        moment_bound_log=params.n_min + g,
        height_bound=g + params.n_min,
    )


@dataclass(frozen=True)
class BalanceCertificate:
    """Finite-size balance certificate at one size; logs are base 2."""

    n: int
    base: float  # moment base 1 + phi(n)
    exponent: float
    moment_bound_log: float  # bounds E(base^H_n)
    height_bound: float


def weakly_balanced_certificate(params: WeaklyBalancedParams, n: int) -> BalanceCertificate:
    """Moment and height bounds at size n for the balance class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    phi_n = params.phi(n)
    kappa = balance_exponent(phi_n, params.gamma)
    log2n = math.log2(n)
    return BalanceCertificate(
        n=n,
        base=1.0 + phi_n,
        exponent=kappa,
        moment_bound_log=params.n_min + kappa * log2n,
        height_bound=(kappa * log2n + params.n_min) / math.log2(1.0 + phi_n),
    )


# --- verification report -------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One verified size: measured quantities against certificate values.

    moment_log and moment_bound_log share the report's log base.  mc fields
    are None unless Monte Carlo replication was requested.
    """

    n: int
    exact_eh: float
    mc_eh: "float | None"
    mc_stderr: "float | None"
    moment: float
    moment_log: float
    moment_bound_log: float
    height_bound: float
    membership_required: bool
    membership_ok: bool
    moment_ok: bool
    height_ok: bool

    @property
    def passed(self) -> bool:
        return self.membership_ok and self.moment_ok and self.height_ok


@dataclass(frozen=True)
class BoundReport:
    """Certificate verification over a size grid, serializable as CSV or JSON."""

    kernel: str
    family: str
    params: str
    log_base: str  # "e" or "2"
    tail_tol: float
    rows: tuple[BoundRow, ...]
    conditions_ok: "bool | None" = None  # the params class's, kept as a report key

    CSV_COLUMNS = (
        "n",
        "exact_EH",
        "mc_EH",
        "mc_stderr",
        "moment",
        "moment_bound_log",
        "height_bound",
        "membership_ok",
        "pass",
    )

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_csv(self) -> str:
        lines = [
            f"# kernel={self.kernel} family={self.family} params=[{self.params}] "
            f"moment_log_base={self.log_base} tail_tol={self.tail_tol:g}",
            ",".join(self.CSV_COLUMNS),
        ]
        for r in self.rows:
            lines.append(
                ",".join(
                    (
                        str(r.n),
                        _csv_num(r.exact_eh),
                        _csv_num(r.mc_eh),
                        _csv_num(r.mc_stderr),
                        _csv_num(r.moment),
                        _csv_num(r.moment_bound_log),
                        _csv_num(r.height_bound),
                        _csv_bool(r.membership_ok),
                        _csv_bool(r.passed),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "kernel": self.kernel,
            "family": self.family,
            "params": self.params,
            "moment_log_base": self.log_base,
            "tail_tol": self.tail_tol,
            "conditions_ok": self.conditions_ok,
            "all_pass": self.all_pass,
            "rows": [
                {
                    "n": r.n,
                    "exact_EH": r.exact_eh,
                    "mc_EH": r.mc_eh,
                    "mc_stderr": r.mc_stderr,
                    "moment": r.moment,
                    "moment_log": r.moment_log,
                    "moment_bound_log": r.moment_bound_log,
                    "moment_slack_log": r.moment_bound_log - r.moment_log,
                    "height_bound": r.height_bound,
                    "height_slack": r.height_bound - r.exact_eh,
                    "membership_required": r.membership_required,
                    "membership_ok": r.membership_ok,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
        }
        return json.dumps(obj, indent=2)

    def summary(self) -> str:
        verdict = "all pass" if self.all_pass else "FAILURES"
        failed = [r.n for r in self.rows if not r.passed]
        tail = "" if self.all_pass else f" at n={failed[:8]}"
        return (
            f"{self.family} certificate on {self.kernel} over {len(self.rows)} sizes "
            f"(max n={self.rows[-1].n if self.rows else 0}): {verdict}{tail}"
        )


def _csv_num(x: "float | None") -> str:
    if x is None:
        return ""
    return f"{x:.15g}"


def _csv_bool(x: bool) -> str:
    return "true" if x else "false"


def verify_certificates(
    kernel: SplitKernel,
    params: "UpperBoundedParams | WeaklyBalancedParams",
    ns: Iterable[int],
    tail_tol: float = DEFAULT_TAIL_TOL,
    mc_replicates: int = 0,
    seed: int = 0,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> BoundReport:
    """Verify certificates against exact DP values over a grid of sizes.

    For each requested size: membership (where required, n >= n_min),
    the moment inequality, and the height inequality, each allowed PASS_TOL
    slack on its comparison scale.  All exact quantities come from one scan
    that accumulates at the grid sizes only, membership from the rows of
    that scan's own walk as they pass (see heights._RowTap), and the Monte
    Carlo columns (sizes n >= 2) from one mc_expected_height_grid.  No row
    outlives the call: the kernel keeps none.
    """
    sizes = sorted(set(int(n) for n in ns))
    if not sizes or sizes[0] < 1:
        raise ValueError("size grid must be nonempty with all sizes >= 1")
    bases = [params.moment_base(m) for m in sizes]
    member = dict.fromkeys(n for n in sizes if n >= max(2, params.n_min))

    def see(n: int, row: np.ndarray) -> None:
        if n in member:
            member[n] = params.admits(n, row)

    tap = _RowTap(kernel, see)
    exact, moment_log_nat, _, _ = _grid_scan(tap, sizes, tail_tol, mem_budget, bases)
    mc_sizes = [n for n in sizes if n >= 2] if mc_replicates > 0 else []
    mc = mc_expected_height_grid(kernel, mc_sizes, mc_replicates, seed) if mc_sizes else {}

    rows = []
    for n, eh, log_nat in zip(sizes, exact.tolist(), moment_log_nat.tolist()):
        cert = params.certificate(n)
        mlog = log_nat / params.ln_base
        moment = math.exp(log_nat) if log_nat < _MAX_EXP else math.inf
        mc_eh, mc_stderr = mc.get(n, (None, None))
        rows.append(
            BoundRow(
                n=n,
                exact_eh=eh,
                mc_eh=mc_eh,
                mc_stderr=mc_stderr,
                moment=moment,
                moment_log=mlog,
                moment_bound_log=cert.moment_bound_log,
                height_bound=cert.height_bound,
                membership_required=n in member,
                membership_ok=member.get(n, True),
                moment_ok=bool(mlog <= cert.moment_bound_log + PASS_TOL),
                height_ok=bool(eh <= cert.height_bound + PASS_TOL),
            )
        )
    return BoundReport(
        kernel=kernel.describe(),
        family=params.family,
        params=params.describe(),
        log_base=params.log_base,
        tail_tol=tail_tol,
        rows=tuple(rows),
        conditions_ok=params.conditions_ok,
    )


# --- presets -------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named kernel-plus-certificate pairing ready for verification."""

    name: str
    kernel: SplitKernel
    params: "UpperBoundedParams | WeaklyBalancedParams"
    default_grid: tuple[int, ...]
    empirical: bool
    note: str


PRESET_NAMES = ("bst-upper", "bst-wbal", "uni-wbal", "bin-wbal", "bin-upper")

_BIN_SCAN_MAX = 2048
_UNI_SCAN_MAX = 1024


def _dense_grid(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1))


def _geometric_grid(lo: int, hi: int, points: int = 24) -> tuple[int, ...]:
    g = np.unique(np.rint(np.geomspace(lo, hi, points)).astype(int))
    return tuple(int(x) for x in g)


_TAIL_MARGIN = 1e-9
"""Relative margin by which a closed-form bound must clear a fit's condition.

A fit walks split rows only up to the last size in 3..scan_max that its
bound leaves open (_walk_end): a balance size is closed once
_balance_floor >= phi(n) * (1 + margin), an envelope size once
_envelope_ceiling * n^alpha * (1 + margin) <= 2 * 2^alpha, which row 2 = [1]
contributes to c for every kernel.  The fits compare float rows, so the
margin must cover how far a float row's balance or envelope can lie from
the exact one, plus the rounding of the bound itself.

A Pascal step adds at most 3 * 2^-53 to the relative error of an entry (see
kernels), so a binomial row at n <= 2048 is within 2046 * 3 * 2^-53 < 7e-13
relative entrywise, and the entries flushed below 2^-1064 move a sum by
less than 2^-1052.  A uniform entry c_k c_(n-k) / (4 c_n) carries the
2(m - 1) roundings of each c_m's running product and two of its own,
under 4n * 2^-53 < 5e-13 relative at n <= 1024.  A window sum of at most n
nonnegative entries adds n * 2^-53 < 2.3e-13 relative, an envelope sum one
rounding.  Each bound takes a few correctly rounded steps (sqrt, division,
exp, n^alpha) and at most N * 2^-53 < 2.3e-13 relative for p^N or q^N, as
q = 1 - p rounds.  The mode is the floor of a rounded (N + 1) p.  Where
that rounding crosses an integer I <= N, (N + 1) p lies within an ulp of I,
so q >= 1/(N + 1) up to an ulp, and the bound is taken at a neighbour of
the true mode whose pmf is the mode's within a factor 1 + (N + 1) * 2^-52.
At an inner k Robbins' bound has a slack of at least 1/(6N + 1) besides.
Each effect is below 1e-12, far below the margin, so a closed size never
shows a balance below phi(n) in the float comparison, and never raises c.
"""


def _walk_end(proven: np.ndarray) -> int:
    """The last size that proven, over sizes 3, 4, ..., leaves open; 2 if it closes them all."""
    open_sizes = np.flatnonzero(~proven)
    return int(open_sizes[-1]) + 3 if open_sizes.size else 2


def _balance_floor(kernel: SplitKernel, gamma: float, n: np.ndarray) -> np.ndarray:
    """A proven lower bound on phi_balance at each size n >= 3; 0 where none is known.

    binomial(p): the middle mass is P(lo - 1 <= X <= N + 1 - lo) for
    X ~ Bin(N, p), N = n - 2 and lo = ceil(gamma*n).  By Hoeffding (1963),
    P(X <= Np - t) and P(X >= Np + t) are each at most exp(-2t^2/N) for
    t > 0, so the mass is at least 1 - exp(-2 t1^2/N) - exp(-2 t2^2/N) with
    t1 = Np - (lo - 2) and t2 = (N + 2 - lo) - Np; a tail whose t is not
    positive counts as 1.

    uniform: sigma(k, n-k) = T_k T_(n-k) / T_n with T_m = C(2m-2, m-1) / m.
    From 4^j / sqrt(pi (j + 1/2)) <= C(2j, j) <= 4^j / sqrt(pi (j + 1/4)),
    k (n-k) <= n^2/4 and (k - 1/2)(n - k - 1/2) <= (n-1)^2/4, each of the
    n - 2 lo + 1 middle splits is at least 2 sqrt(n - 3/4) / (sqrt(pi) n (n-1)).
    """
    lo = np.ceil(gamma * n)
    if isinstance(kernel, BinomialKernel):
        N = n - 2.0
        t = np.array([N * kernel.p - (lo - 2.0), (N + 2.0 - lo) - N * kernel.p])
        tails = np.where(t > 0.0, np.exp(-2.0 * t * t / N), 1.0)
        return 1.0 - tails[0] - tails[1]
    if isinstance(kernel, UniformKernel):
        return (n - 2.0 * lo + 1.0) * 2.0 * np.sqrt(n - 0.75) / (math.sqrt(math.pi) * n * (n - 1.0))
    return np.zeros(n.shape)


def _envelope_ceiling(kernel: SplitKernel, n: np.ndarray) -> np.ndarray:
    """A proven upper bound on psi_envelope at each size n >= 3; inf where none is known.

    The envelope is at most twice the largest split, the pmf of Bin(N, p),
    N = n - 2, at its mode k = floor((N + 1) p).  By Robbins (1955),
    sqrt(2 pi m) (m/e)^m < m! < sqrt(2 pi m) (m/e)^m e^(1/(12m)), so for
    0 < k < N, C(N, k) < sqrt(N / (2 pi k (N-k))) (N/k)^k (N/(N-k))^(N-k)
    e^(1/(12N)), and p^k q^(N-k) (N/k)^k (N/(N-k))^(N-k) <= 1 as relative
    entropy is nonnegative.  A mode at 0 or N has pmf q^N or p^N.
    """
    if not isinstance(kernel, BinomialKernel):
        return np.full(n.shape, math.inf)
    N = n - 2.0
    k = np.minimum(np.floor((N + 1.0) * kernel.p), N)
    with np.errstate(divide="ignore"):
        inner = np.sqrt(N / (2.0 * math.pi * k * (N - k))) * np.exp(1.0 / (12.0 * N))
    edge = np.where(k == 0.0, kernel._q**N, kernel.p**N)
    return 2.0 * np.where((k > 0.0) & (k < N), inner, edge)


def _fit_balance_n_min(
    kernel: SplitKernel, phi: PhiFunction, gamma: float, scan_max: int
) -> tuple[int, int]:
    """Smallest N with phi_balance >= phi(n) for every n in [N, scan_max], and the walk's end.

    Rows are walked only up to the last size that _balance_floor does not
    close (see _TAIL_MARGIN).  Raises ValueError when balance fails at
    scan_max itself, since then no start size lies in the scanned range.
    """
    n = np.arange(3.0, scan_max + 1)
    phis = np.fromiter(map(phi, range(3, scan_max + 1)), float, n.size)
    end = _walk_end(_balance_floor(kernel, gamma, n) >= phis * (1.0 + _TAIL_MARGIN))
    sizes = range(2, end + 1)
    last_violation = 1
    for m, row in zip(sizes, kernel._ascending_rows(sizes)):
        if _balance(row, gamma) < phi(m):
            last_violation = m
    if last_violation == scan_max:
        raise ValueError(
            f"{kernel.describe()}: balance at cut {gamma:g} is below phi(n)={phi.describe()} "
            f"at n={scan_max}, so the scanned range 2..{scan_max} holds no start size"
        )
    return last_violation + 1, end


def _fit_envelope_coeff(kernel: SplitKernel, alpha: float, scan_max: int) -> tuple[float, int]:
    """Smallest c with psi_envelope <= c*n^(-alpha) on [2, scan_max], and the walk's end.

    Rows are walked only up to the last size that _envelope_ceiling does not
    close (see _TAIL_MARGIN).
    """
    n = np.arange(3.0, scan_max + 1)
    ceiling = _envelope_ceiling(kernel, n) * n**alpha * (1.0 + _TAIL_MARGIN)
    end = _walk_end(ceiling <= 2.0 * 2.0**alpha)
    sizes = range(2, end + 1)
    c = max(_envelope(row) * m**alpha for m, row in zip(sizes, kernel._ascending_rows(sizes)))
    return c, end


def _fit_note(fitted: str, end: int, scan_max: int, proof: str) -> str:
    note = f"{fitted} fitted on 2..{end}"
    return note if end == scan_max else f"{note}; {proof} on {end + 1}..{scan_max}"


def make_preset(name: str, p: float = 0.5) -> Preset:
    """Build a named preset; p applies to the binomial presets only.

    The two bst presets are backed by exact envelope and balance values.
    The others fit n_min (or the envelope coefficient) on a scan range,
    2..1024 for uni-wbal and 2..2048 for the binomial presets, so their
    guarantees are range-verified: nothing is checked beyond it.  Inside
    it, split rows are walked only as far as no closed-form bound closes
    the class condition (_balance_floor, _envelope_ceiling); the note names
    the walked range and the proof beyond it.  At the default p, bin-wbal
    walks 2..589 (Hoeffding from 590), bin-upper 2..2 (Robbins from 3) and
    uni-wbal 2..5 (central binomial bounds from 6).  A balance fit whose
    range holds no start size raises ValueError.
    """
    if name == "bst-upper":
        return Preset(
            name=name,
            kernel=BstKernel(),
            params=UpperBoundedParams(c=2.0, alpha=1.0, n_min=2, shift=1.0),
            default_grid=_dense_grid(2, 500),
            empirical=False,
            note="envelope 2/(n-1) is exact for every n",
        )
    if name == "bst-wbal":
        return Preset(
            name=name,
            kernel=BstKernel(),
            params=WeaklyBalancedParams(phi=PhiFunction.constant(0.5), gamma=0.25, n_min=2),
            default_grid=_dense_grid(2, 500),
            empirical=False,
            note="middle-half mass of the flat row is 1/2 up to integer rounding",
        )
    if name == "uni-wbal":
        gamma = 0.25
        coeff = (1.0 - 2.0 * gamma) / (1.05 * math.sqrt(math.pi * gamma))
        kernel = UniformKernel()
        phi = PhiFunction.inv_sqrt(coeff)
        n_min, end = _fit_balance_n_min(kernel, phi, gamma, _UNI_SCAN_MAX)
        proof = "central binomial bounds prove balance >= phi(n)"
        return Preset(
            name=name,
            kernel=kernel,
            params=WeaklyBalancedParams(phi=phi, gamma=gamma, n_min=n_min),
            default_grid=_geometric_grid(max(2, n_min), _UNI_SCAN_MAX),
            empirical=True,
            note=_fit_note("n_min", end, _UNI_SCAN_MAX, proof),
        )
    if name == "bin-wbal":
        kernel = BinomialKernel(p)
        gamma = 0.9 * min(p, 1.0 - p)
        phi = PhiFunction.constant(0.9)
        n_min, end = _fit_balance_n_min(kernel, phi, gamma, _BIN_SCAN_MAX)
        return Preset(
            name=name,
            kernel=kernel,
            params=WeaklyBalancedParams(phi=phi, gamma=gamma, n_min=n_min),
            default_grid=_geometric_grid(max(2, n_min), _BIN_SCAN_MAX),
            empirical=True,
            note=_fit_note("n_min", end, _BIN_SCAN_MAX, "Hoeffding proves balance >= 0.9"),
        )
    if name == "bin-upper":
        kernel = BinomialKernel(p)
        alpha = 0.5
        c, end = _fit_envelope_coeff(kernel, alpha, _BIN_SCAN_MAX)
        proof = "Robbins' Stirling bounds prove envelope <= c/sqrt(n)"
        return Preset(
            name=name,
            kernel=kernel,
            params=UpperBoundedParams(c=c, alpha=alpha, n_min=2),
            default_grid=_geometric_grid(2, _BIN_SCAN_MAX),
            empirical=True,
            note=_fit_note("envelope coefficient", end, _BIN_SCAN_MAX, proof),
        )
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
