import json
import math
import subprocess
import sys

import pytest

from treesource.cli import main, parse_grid
from treesource.kernels import (
    BinomialKernel,
    BstKernel,
    TableKernel,
    UniformKernel,
    render_kernel_spec,
)
from treesource.sampling import replicate_seed, sample_preorder, sample_tree
from treesource.trees import shape_bits, tree_from_shape_bits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseGrid:
    def test_single_and_list(self):
        assert parse_grid("7") == (7,)
        assert parse_grid("3,1,2") == (1, 2, 3)
        assert parse_grid("2,2,2") == (2,)

    def test_ranges(self):
        assert parse_grid("2:5") == (2, 3, 4, 5)
        assert parse_grid("2:10:4") == (2, 6, 10)
        assert parse_grid("1,4:6") == (1, 4, 5, 6)

    def test_inclusive_endpoint_with_step(self):
        assert parse_grid("2:11:3") == (2, 5, 8, 11)

    @pytest.mark.parametrize(
        "text", ["", "x", "5:2", "2:5:0", "2:5:1:1", "0,4", "1.5", "2:,3"]
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)


class TestExact:
    def test_scalar_output(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--kernel", "bst", "--n", "4")
        assert code == 0
        assert out.strip() == "2.666666666666667"

    def test_grid_output(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--kernel", "uniform", "--grid", "2:5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,expected_height"
        assert len(lines) == 5
        values = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert values[2] == 1.0
        assert values[4] == pytest.approx(14 / 5, rel=1e-13)

    def test_cdf_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--kernel", "bst", "--n", "4", "--cdf", "--tail-tol", "0"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "h,cdf,survival"
        rows = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert float(rows[2][1]) == pytest.approx(1 / 3, rel=1e-14)
        assert float(rows[3][2]) == 0.0

    def test_needs_exactly_one_target(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--kernel", "bst")
        assert code == 1 and "exactly one" in err
        code, _, err = run_cli(
            capsys, "exact", "--kernel", "bst", "--n", "4", "--grid", "2:5"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "target, want",
        [(["--n", "12"], "4\n"), (["--grid", "6,12"], "n,expected_height\n6,3\n12,4\n")],
        ids=["n", "grid"],
    )
    def test_pass_ends_with_the_asked_sizes(self, capsys, comb_kernel, scan_layers, target, want):
        # size 10 would run 10 layers; the asked sizes retire after 5
        spec = render_kernel_spec(comb_kernel)
        code, out, _ = run_cli(capsys, "exact", "--kernel-json", spec, *target)
        assert (code, out) == (0, want)
        assert scan_layers == [5]

    def test_cdf_needs_single_size(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--kernel", "bst", "--grid", "2:5", "--cdf")
        assert code == 1 and "--cdf" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "1.0", "-1e-9"])
    @pytest.mark.parametrize("target", [["--n", "100"], ["--n", "100", "--cdf"], ["--grid", "2:50"]])
    def test_rejects_tail_tol_outside_unit_interval(self, capsys, tol, target):
        code, out, err = run_cli(capsys, "exact", "--kernel", "bst", *target, f"--tail-tol={tol}")
        assert code == 1 and out == ""
        assert "tail_tol must lie in [0, 1)" in err


class TestValidate:
    def test_builtin_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--kernel", "uniform", "--n-max", "64")
        assert code == 0
        assert "normalized" in out

    def test_bad_table_file_names_size(self, capsys, tmp_path):
        bad = tmp_path / "bad_table.json"
        bad.write_text(
            '{"kind": "table", "rows": {"4": [0.5, 0.25, 0.3]}, "fallback": "bst"}'
        )
        code, _, err = run_cli(capsys, "validate", "--kernel-file", str(bad))
        assert code == 1
        assert "n=4" in err

    def test_tolerance_override_can_fail(self, capsys, tmp_path):
        # row sum off by 5e-10: inside the construction tolerance, outside
        # the audit tolerance requested here
        skew = tmp_path / "skew.json"
        skew.write_text(
            json.dumps(
                {
                    "kind": "table",
                    "rows": {"4": [0.25, 0.5, 0.2500000005]},
                    "fallback": "bst",
                }
            )
        )
        code, out, _ = run_cli(
            capsys, "validate", "--kernel-file", str(skew), "--n-max", "8", "--tol", "1e-12"
        )
        assert code == 2
        assert "FAILED" in out

    def test_inline_kernel_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--kernel-json", '{"kind": "binomial", "p": 0.3}',
            "--n-max", "32",
        )
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--kernel-file", "/no/such/file.json")
        assert code == 1
        assert "error" in err


class TestKernelSelection:
    def test_binomial_needs_p(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--kernel", "binomial", "--n", "4")
        assert code == 1 and "--p" in err

    def test_exactly_one_source(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--n", "4", "--kernel", "bst", "--kernel-json", '{"kind": "bst"}'
        )
        assert code == 1 and "exactly one" in err
        code, _, err = run_cli(capsys, "exact", "--n", "4")
        assert code == 1

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--kernel", "zipf", "--n", "4"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1


SAMPLE_KERNELS = [
    BstKernel(),
    UniformKernel(),
    BinomialKernel(0.3),
    TableKernel({3: [0.2, 0.8], 7: [0.1, 0.1, 0.3, 0.3, 0.1, 0.1]}, BinomialKernel(0.3)),
]


class TestSample:
    def test_heights_deterministic(self, capsys):
        args = ("sample", "--kernel", "bst", "--n", "6", "--replicates", "5", "--seed", "1")
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0] == "replicate,height"
        assert len(lines) == 6
        for i, line in enumerate(lines[1:]):
            r, h = line.split(",")
            assert int(r) == i
            assert 3 <= int(h) <= 5

    def test_tree_shapes_decode(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--kernel", "uniform", "--n", "9", "--replicates", "4",
            "--what", "trees", "--seed", "2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "replicate,shape"
        for line in lines[1:]:
            assert tree_from_shape_bits(line.split(",")[1]).size == 9

    @pytest.mark.parametrize("kernel", SAMPLE_KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("path", ["auto", "cdf"])
    def test_tree_shapes_match_sample_tree(self, capsys, kernel, path):
        # "cdf": a table of the kernel's law listing its rows 2..40 draws
        # every share by inverse CDF over a listed row
        if path == "cdf":
            rows = dict(zip(range(2, 41), kernel._ascending_rows(range(2, 41))))
            kernel = TableKernel(rows, getattr(kernel, "fallback", kernel))
        spec = render_kernel_spec(kernel)
        # the replicates are one sample_preorder call from the derived seed
        code, out, _ = run_cli(
            capsys, "sample", "--kernel-json", spec, "--n", "40", "--replicates", "6",
            "--what", "trees", "--seed", "11",
        )
        assert code == 0
        trees = sample_preorder(kernel, 40, 6, replicate_seed(11, 0))
        want = [f"{r},{bits}" for r, (bits, _) in enumerate(trees)]
        assert out.strip().split("\n")[1:] == want
        # and one replicate is sample_tree's tree
        code, out, _ = run_cli(
            capsys, "sample", "--kernel-json", spec, "--n", "40", "--replicates", "1",
            "--what", "trees", "--seed", "11",
        )
        assert code == 0
        tree = sample_tree(kernel, 40, replicate_seed(11, 0))
        assert out.strip().split("\n")[1:] == [f"0,{shape_bits(tree)}"]

    @pytest.mark.parametrize("kernel", SAMPLE_KERNELS, ids=lambda k: k.kind)
    def test_heights_are_those_of_the_trees(self, capsys, kernel):
        args = ("sample", "--kernel-json", render_kernel_spec(kernel), "--n", "300",
                "--replicates", "40", "--seed", "5")
        code, trees, _ = run_cli(capsys, *args, "--what", "trees")
        assert code == 0
        code, heights, _ = run_cli(capsys, *args, "--what", "heights")
        assert code == 0
        decoded = [
            f"{r},{tree_from_shape_bits(bits).height}"
            for r, bits in (line.split(",") for line in trees.strip().split("\n")[1:])
        ]
        assert heights.strip().split("\n") == ["replicate,height"] + decoded
        assert len(set(decoded)) > 1

    @pytest.mark.parametrize("what", ["trees", "heights"])
    def test_one_invocation_builds_one_table(self, capsys, draw_builds, what):
        # one invocation builds one draw function: a table over uniform its
        # listed cumulative rows and uniform's prefix sums, uniform alone the
        # prefix sums
        spec = render_kernel_spec(TableKernel({2: [1.0]}, UniformKernel()))
        runs = [(["--kernel-json", spec], [("table", 60), ("product", 60)]),
                (["--kernel", "uniform"], [("product", 60)])]
        for kernel, want in runs:
            draw_builds.clear()
            code, out, _ = run_cli(
                capsys, "sample", *kernel, "--n", "60", "--replicates", "25", "--what", what,
            )
            assert code == 0
            assert len(out.strip().split("\n")) == 26
            assert draw_builds == want

    def test_every_integer_seed_is_accepted(self, capsys):
        # the trees grow from replicate_seed(seed, 0), as mc's sizes do
        for seed in ("-3", str(2**70)):
            code, out, _ = run_cli(capsys, "sample", "--kernel", "bst", "--n", "30",
                                   "--replicates", "3", "--seed", seed)
            assert code == 0
            assert len(out.strip().split("\n")) == 4

    def test_seed_changes_stream(self, capsys):
        _, a, _ = run_cli(capsys, "sample", "--kernel", "bst", "--n", "30",
                          "--replicates", "3", "--seed", "0")
        _, b, _ = run_cli(capsys, "sample", "--kernel", "bst", "--n", "30",
                          "--replicates", "3", "--seed", "1")
        assert a != b

    def test_rejects_bad_config(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--kernel", "bst", "--n", "0", "--replicates", "5"
        )
        assert code == 1
        assert err == "treesource: error: need n >= 1, got 0\n"

    def test_rejects_zero_replicates(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--kernel", "bst", "--n", "5", "--replicates", "0"
        )
        assert code == 1
        assert out == ""
        assert err == "treesource: error: need replicates >= 1, got 0\n"

    @pytest.mark.parametrize("sub", ["sample", "mc"])
    def test_strategy_is_not_an_option(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--kernel", "bst", "--n", "5", "--strategy", "cdf"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --strategy cdf" in capsys.readouterr().err

    def test_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "heights.csv"
        code, _, _ = run_cli(
            capsys, "sample", "--kernel", "uniform", "--n", "9", "--replicates", "3",
            "--seed", "4", "--out", str(out_path),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "heights.csv.manifest.json").read_text())
        assert manifest == {
            "subcommand": "sample", "kernel": '{"kind": "uniform"}', "n": 9, "seed": 4,
            "replicates": 3, "what": "heights", "out": str(out_path),
        }


class TestMonteCarlo:
    def test_grid_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--kernel", "binomial", "--p", "0.5", "--grid", "4,8",
            "--replicates", "60", "--seed", "0",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,mc_EH,mc_stderr"
        assert len(lines) == 3
        n, mean, stderr = lines[1].split(",")
        assert n == "4"
        assert 1.9 < float(mean) < 3.1
        assert float(stderr) > 0


class TestBounds:
    def test_preset_grid(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--preset", "bst-wbal", "--grid", "4,16")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# kernel=bst")
        assert "moment_log_base=2" in lines[0]
        assert lines[1] == "n,moment_bound_log,height_bound"
        assert len(lines) == 4

    def test_explicit_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--kernel", "bst", "--family", "upper",
            "--c", "2", "--alpha", "1", "--grid", "2:4",
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[2:]]
        got = {int(r[0]): float(r[2]) for r in rows}
        for n in (2, 3, 4):
            want = math.log(2) + 1 + (2 * math.e - 1) * math.log(n) + 2
            assert got[n] == pytest.approx(want, rel=1e-12)

    def test_needs_grid_without_preset(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--kernel", "bst", "--family", "upper", "--c", "2",
            "--alpha", "1",
        )
        assert code == 1 and "--grid" in err

    def test_default_grid_from_preset(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--preset", "bst-upper")
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 499

    def test_family_needs_its_parameters(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--kernel", "bst", "--family", "upper", "--grid", "2:4"
        )
        assert code == 1 and "--c" in err
        code, _, err = run_cli(
            capsys, "bounds", "--kernel", "bst", "--family", "wbal", "--grid", "2:4",
            "--gamma", "0.25",
        )
        assert code == 1 and "phi" in err


class TestVerify:
    def test_preset_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--preset", "bst-wbal", "--grid", "2:50")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[1].split(",")
        pass_col = header.index("pass")
        assert all(l.split(",")[pass_col] == "true" for l in lines[2:])
        assert "all pass" in err

    def test_preset_fit_without_start_size_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--preset", "bin-wbal", "--p", "0.05")
        assert code == 1
        assert out == ""
        assert "binomial(p=0.05)" in err and "2..2048" in err

    def test_bad_params_fail_with_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--kernel", "bst", "--family", "wbal",
            "--gamma", "0.45", "--phi-const", "0.99", "--grid", "2:40",
        )
        assert code == 2
        assert "false" in out
        assert "FAILURES" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "1.0", "-1e-9"])
    def test_rejects_tail_tol_outside_unit_interval(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "verify", "--preset", "bst-upper", "--grid", "10,100", f"--tail-tol={tol}"
        )
        assert code == 1 and out == ""
        assert "tail_tol must lie in [0, 1)" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--preset", "bst-upper", "--grid", "2:20",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["all_pass"] is True
        assert len(obj["rows"]) == 19

    def test_explicit_binomial_params(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--kernel", "binomial", "--p", "0.5", "--family", "wbal",
            "--gamma", "0.45", "--phi-const", "0.9", "--n-min", "279", "--grid", "300,400",
        )
        assert code == 0


class TestReport:
    def test_monte_carlo_columns_filled(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--preset", "bst-wbal", "--grid", "5,10",
            "--replicates", "80", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        for line in lines[2:]:
            fields = line.split(",")
            assert fields[2] != "" and fields[3] != ""
            assert float(fields[3]) > 0


class TestOutFiles:
    def test_writes_output_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "heights.csv"
        code, stdout, _ = run_cli(
            capsys, "exact", "--kernel", "bst", "--grid", "2:6",
            "--out", str(out_path),
        )
        assert code == 0
        assert stdout == ""
        text = out_path.read_text()
        assert text.startswith("n,expected_height\n")
        manifest = json.loads((tmp_path / "heights.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "exact"
        assert manifest["grid"] == [2, 3, 4, 5, 6]
        assert json.loads(manifest["kernel"]) == {"kind": "bst"}

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "sample", "--kernel", "binomial", "--p", "0.3", "--n", "12",
                "--replicates", "20", "--seed", "9", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_manifest_records_preset(self, capsys, tmp_path):
        out_path = tmp_path / "verify.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--preset", "bst-upper", "--grid", "2:10",
            "--out", str(out_path),
        )
        assert code == 0
        manifest = json.loads((out_path.parent / "verify.csv.manifest.json").read_text())
        assert manifest["preset"] == "bst-upper"
        assert manifest["format"] == "csv"
        assert "tail_tol" in manifest


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treesource.cli", "exact", "--kernel", "bst", "--n", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2.666666666666667"


def test_runtime_imports_no_scipy():
    code = (
        "import sys\n"
        "import treesource\n"
        "from treesource import cli\n"
        "assert cli.main(['exact', '--kernel', 'binomial', '--p', '0.3', '--n', '50']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
