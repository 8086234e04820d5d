"""Command-line front end: reproducible experiments over kernels and bounds.

Subcommands:

  validate   row-normalization audit of a kernel
  sample     emit sampled heights or tree shapes, one line per replicate
  exact      expected height (scalar or grid) or a full height CDF
  mc         Monte Carlo height estimates over a grid
  bounds     certificate values only, no DP
  verify     full certificate verification (exact DP vs bounds)
  report     verify plus Monte Carlo columns

Exit codes: 0 success (and verification passed), 1 usage or input error,
2 verification failure.  Every run is determined by its arguments; when
--out is given, the resolved arguments are written next to the output as
<out>.manifest.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from .bounds import (
    PRESET_NAMES,
    PhiFunction,
    UpperBoundedParams,
    WeaklyBalancedParams,
    make_preset,
    verify_certificates,
)
from .heights import (
    DEFAULT_TAIL_TOL,
    ScanBudgetError,
    expected_height,
    expected_heights,
    height_cdf,
)
from .kernels import (
    KernelFormatError,
    SplitKernel,
    load_kernel_spec,
    make_kernel,
    render_kernel_spec,
    validate_kernel,
)
from .sampling import mc_expected_height_grid, replicate_seed, sample_preorder

__all__ = ["main", "RunManifest"]


class _Parser(argparse.ArgumentParser):
    # usage problems are exit 1; argparse's default of 2 is reserved for
    # verification failures
    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one invocation, written beside outputs."""

    subcommand: str
    kernel: "str | None" = None
    preset: "str | None" = None
    p: "float | None" = None
    params: "str | None" = None
    n: "int | None" = None
    grid: "tuple[int, ...] | None" = None
    n_max: "int | None" = None
    seed: "int | None" = None
    replicates: "int | None" = None
    what: "str | None" = None
    tail_tol: "float | None" = None
    tol: "float | None" = None
    format: "str | None" = None
    out: "str | None" = None

    def to_json(self) -> str:
        fields = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(fields, indent=2)


def _emit(text: str, manifest: RunManifest) -> None:
    if manifest.out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    with open(manifest.out, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    with open(manifest.out + ".manifest.json", "w") as fh:
        fh.write(manifest.to_json() + "\n")


def parse_grid(text: str) -> tuple[int, ...]:
    """Sizes from comma-separated entries, each an integer or a:b[:step] (inclusive)."""
    sizes = set()
    for part in text.split(","):
        part = part.strip()
        try:
            if ":" in part:
                pieces = [int(x) for x in part.split(":")]
                if len(pieces) == 2:
                    a, b, step = pieces[0], pieces[1], 1
                elif len(pieces) == 3:
                    a, b, step = pieces
                else:
                    raise ValueError
                if step < 1 or b < a:
                    raise ValueError
                sizes.update(range(a, b + 1, step))
            else:
                sizes.add(int(part))
        except ValueError:
            raise ValueError(f"bad grid entry {part!r}; use integers or a:b[:step]") from None
    if not sizes or min(sizes) < 1:
        raise ValueError("grid must contain sizes >= 1")
    return tuple(sorted(sizes))


def _add_kernel_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kernel", choices=("bst", "uniform", "binomial"), help="built-in kernel")
    sub.add_argument("--kernel-file", help="path to a kernel description (JSON)")
    sub.add_argument("--kernel-json", help="inline kernel description (JSON)")
    sub.add_argument("--p", type=float, help="parameter for the binomial kernel")


def _resolve_kernel(args: argparse.Namespace) -> SplitKernel:
    picked = [
        x for x in (args.kernel, args.kernel_file, args.kernel_json) if x is not None
    ]
    if len(picked) != 1:
        raise ValueError("pick exactly one of --kernel, --kernel-file, --kernel-json")
    if args.kernel is not None:
        if args.kernel == "binomial" and args.p is None:
            raise ValueError("--kernel binomial needs --p")
        return make_kernel(args.kernel, args.p)
    if args.kernel_file is not None:
        with open(args.kernel_file) as fh:
            return load_kernel_spec(fh.read())
    return load_kernel_spec(args.kernel_json)


def _add_params_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=PRESET_NAMES, help="named kernel+certificate pairing")
    sub.add_argument(
        "--family", choices=("upper", "wbal"), help="certificate family for explicit params"
    )
    sub.add_argument("--c", type=float, help="envelope coefficient (upper family)")
    sub.add_argument("--alpha", type=float, help="envelope exponent (upper family)")
    sub.add_argument("--shift", type=float, default=0.0, help="envelope shift (upper family)")
    sub.add_argument("--n-min", type=int, default=2, help="membership start size")
    sub.add_argument("--gamma", type=float, help="balance cut (wbal family)")
    sub.add_argument("--phi-const", type=float, help="constant balance profile (wbal family)")
    sub.add_argument(
        "--phi-sqrt", type=float, help="coefficient of a 1/sqrt(n) balance profile (wbal family)"
    )


def _resolve_params(args: argparse.Namespace):
    """Kernel and certificate params from a preset or from explicit flags."""
    if args.preset is not None:
        preset = make_preset(args.preset, p=args.p if args.p is not None else 0.5)
        return preset.kernel, preset.params, preset
    if args.family is None:
        raise ValueError("either --preset or --family with explicit parameters is required")
    kernel = _resolve_kernel(args)
    if args.family == "upper":
        if args.c is None or args.alpha is None:
            raise ValueError("--family upper needs --c and --alpha")
        return kernel, UpperBoundedParams(args.c, args.alpha, args.n_min, args.shift), None
    if args.gamma is None or (args.phi_const is None) == (args.phi_sqrt is None):
        raise ValueError("--family wbal needs --gamma and exactly one of --phi-const, --phi-sqrt")
    phi = (
        PhiFunction.constant(args.phi_const)
        if args.phi_const is not None
        else PhiFunction.inv_sqrt(args.phi_sqrt)
    )
    return kernel, WeaklyBalancedParams(phi, args.gamma, args.n_min), None


def _fmt(x: float) -> str:
    return f"{x:.15g}"


# --- subcommands ----------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args)
    report = validate_kernel(kernel, args.n_max, args.tol)
    manifest = RunManifest(
        subcommand="validate",
        kernel=render_kernel_spec(kernel),
        n_max=args.n_max,
        tol=args.tol,
        out=args.out,
    )
    _emit(report.summary(), manifest)
    return 0 if report.passed else 2


def _cmd_sample(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args)
    if args.replicates < 1:
        raise ValueError(f"need replicates >= 1, got {args.replicates}")
    heights = args.what == "heights"
    lines = ["replicate,height" if heights else "replicate,shape"]
    # a derived seed, as mc takes, so that every integer --seed is accepted
    trees = sample_preorder(kernel, args.n, args.replicates, replicate_seed(args.seed, 0))
    for r, (bits, height) in enumerate(trees):
        lines.append(f"{r},{height if heights else bits}")
    manifest = RunManifest(
        subcommand="sample",
        kernel=render_kernel_spec(kernel),
        n=args.n,
        seed=args.seed,
        replicates=args.replicates,
        what=args.what,
        out=args.out,
    )
    _emit("\n".join(lines), manifest)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args)
    if (args.n is None) == (args.grid is None):
        raise ValueError("pick exactly one of --n, --grid")
    manifest = RunManifest(
        subcommand="exact",
        kernel=render_kernel_spec(kernel),
        n=args.n,
        grid=parse_grid(args.grid) if args.grid else None,
        tail_tol=args.tail_tol,
        what="cdf" if args.cdf else "expected-height",
        out=args.out,
    )
    if args.cdf:
        if args.n is None:
            raise ValueError("--cdf needs a single --n")
        table = height_cdf(kernel, args.n, args.tail_tol)
        lines = ["h,cdf,survival"]
        for h in range(table.h_cut + 1):
            lines.append(f"{h},{_fmt(table.values[h])},{_fmt(table.survivals[h])}")
        _emit("\n".join(lines), manifest)
        return 0
    if args.n is not None:
        _emit(f"{expected_height(kernel, args.n, args.tail_tol):.16g}", manifest)
        return 0
    grid = manifest.grid
    values = expected_heights(kernel, grid, args.tail_tol)
    lines = ["n,expected_height"]
    for n, value in zip(grid, values):
        lines.append(f"{n},{_fmt(value)}")
    _emit("\n".join(lines), manifest)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    kernel = _resolve_kernel(args)
    if (args.n is None) == (args.grid is None):
        raise ValueError("pick exactly one of --n, --grid")
    grid = (args.n,) if args.n is not None else parse_grid(args.grid)
    estimates = mc_expected_height_grid(kernel, grid, args.replicates, args.seed)
    lines = ["n,mc_EH,mc_stderr"]
    for n in grid:
        mean, stderr = estimates[n]
        lines.append(f"{n},{_fmt(mean)},{_fmt(stderr)}")
    manifest = RunManifest(
        subcommand="mc",
        kernel=render_kernel_spec(kernel),
        n=args.n,
        grid=None if args.n is not None else grid,
        seed=args.seed,
        replicates=args.replicates,
        out=args.out,
    )
    _emit("\n".join(lines), manifest)
    return 0


def _certificate_rows(kernel, params, grid):
    lines = [
        f"# kernel={kernel.describe()} params=[{params.describe()}] "
        f"moment_log_base={params.log_base}",
        "n,moment_bound_log,height_bound",
    ]
    for n in grid:
        cert = params.certificate(n)
        lines.append(f"{n},{_fmt(cert.moment_bound_log)},{_fmt(cert.height_bound)}")
    return "\n".join(lines)


def _cmd_bounds(args: argparse.Namespace) -> int:
    kernel, params, preset = _resolve_params(args)
    grid = parse_grid(args.grid) if args.grid else (preset.default_grid if preset else None)
    if grid is None:
        raise ValueError("--grid is required without a preset")
    manifest = RunManifest(
        subcommand="bounds",
        kernel=render_kernel_spec(kernel),
        preset=preset.name if preset else None,
        p=args.p,
        params=params.describe(),
        grid=grid,
        out=args.out,
    )
    _emit(_certificate_rows(kernel, params, grid), manifest)
    return 0


def _run_verification(args: argparse.Namespace, subcommand: str, replicates: int) -> int:
    kernel, params, preset = _resolve_params(args)
    grid = parse_grid(args.grid) if args.grid else (preset.default_grid if preset else None)
    if grid is None:
        raise ValueError("--grid is required without a preset")
    report = verify_certificates(
        kernel,
        params,
        grid,
        tail_tol=args.tail_tol,
        mc_replicates=replicates,
        seed=args.seed,
    )
    manifest = RunManifest(
        subcommand=subcommand,
        kernel=render_kernel_spec(kernel),
        preset=preset.name if preset else None,
        p=args.p,
        params=params.describe(),
        grid=grid,
        seed=args.seed if replicates else None,
        replicates=replicates or None,
        tail_tol=args.tail_tol,
        format=args.format,
        out=args.out,
    )
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), manifest)
    print(report.summary(), file=sys.stderr)
    return 0 if report.all_pass else 2


def _cmd_verify(args: argparse.Namespace) -> int:
    return _run_verification(args, "verify", 0)


def _cmd_report(args: argparse.Namespace) -> int:
    return _run_verification(args, "report", args.replicates)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treesource", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--out", help="write output here plus <out>.manifest.json")

    sub = subs.add_parser("validate", help="check kernel row normalization")
    _add_kernel_args(sub)
    sub.add_argument("--n-max", type=int, default=256)
    sub.add_argument("--tol", type=float, default=None, help="row-sum tolerance override")
    common(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subs.add_parser("sample", help="emit sampled heights or tree shapes")
    _add_kernel_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--replicates", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--what", choices=("heights", "trees"), default="heights")
    common(sub)
    sub.set_defaults(func=_cmd_sample)

    sub = subs.add_parser("exact", help="exact expected height or height CDF")
    _add_kernel_args(sub)
    sub.add_argument("--n", type=int)
    sub.add_argument("--grid", help="sizes, e.g. 2:500 or 100,300,1000")
    sub.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    sub.add_argument("--cdf", action="store_true", help="emit the full CDF at --n")
    common(sub)
    sub.set_defaults(func=_cmd_exact)

    sub = subs.add_parser("mc", help="Monte Carlo expected-height estimates")
    _add_kernel_args(sub)
    sub.add_argument("--n", type=int)
    sub.add_argument("--grid")
    sub.add_argument("--replicates", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=0)
    common(sub)
    sub.set_defaults(func=_cmd_mc)

    sub = subs.add_parser("bounds", help="certificate values only")
    _add_kernel_args(sub)
    _add_params_args(sub)
    sub.add_argument("--grid")
    common(sub)
    sub.set_defaults(func=_cmd_bounds)

    for name, fn in (("verify", _cmd_verify), ("report", _cmd_report)):
        sub = subs.add_parser(
            name,
            help="verify certificates against the exact DP"
            + (" plus Monte Carlo" if name == "report" else ""),
        )
        _add_kernel_args(sub)
        _add_params_args(sub)
        sub.add_argument("--grid")
        sub.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
        sub.add_argument("--seed", type=int, default=0)
        if name == "report":
            sub.add_argument("--replicates", type=int, default=10_000)
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        common(sub)
        sub.set_defaults(func=fn)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KernelFormatError, ScanBudgetError, ValueError, OSError) as exc:
        print(f"treesource: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
