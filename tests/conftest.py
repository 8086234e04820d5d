from contextlib import contextmanager

import pytest

from treesource import heights, sampling
from treesource.kernels import BinomialKernel, BstKernel, TableKernel


def pytest_configure(config):
    config._criterion_lines = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", {})
    if lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])


@pytest.fixture
def criterion(request):
    """Record one pass/fail line per acceptance criterion for the run summary."""

    @contextmanager
    def _criterion(num: int, desc: str):
        store = request.config._criterion_lines
        try:
            yield
        except BaseException:
            store[num] = f"[criterion {num:2d}] FAIL - {desc}"
            raise
        store[num] = f"[criterion {num:2d}] PASS - {desc}"

    return _criterion


@pytest.fixture
def scan_layers(monkeypatch):
    """Layers yielded by each scan, counted where every exact entry point calls it."""
    counts = []
    scan = heights.survival_layers

    def counting_scan(*args, **kwargs):
        counts.append(0)
        for item in scan(*args, **kwargs):
            counts[-1] += 1
            yield item

    monkeypatch.setattr(heights, "survival_layers", counting_scan)
    return counts


@pytest.fixture
def draw_builds(monkeypatch):
    """("table", n) per table drawer and ("product", n) per rejection drawer built, in order."""
    built = []
    table_drawer = sampling._table_drawer

    def recording_table_drawer(kernel, n):
        built.append(("table", n))
        return table_drawer(kernel, n)

    class RecordingProductDraw(sampling._ProductDraw):
        def __init__(self, kernel, n):
            built.append(("product", n))
            super().__init__(kernel, n)

    monkeypatch.setattr(sampling, "_table_drawer", recording_table_drawer)
    monkeypatch.setattr(sampling, "_ProductDraw", RecordingProductDraw)
    return built


@pytest.fixture
def kernel_state():
    """What a kernel and its table fallback hold, minus uniform's scaled-Catalan table.

    Kernels keep no rows, so a consumer leaves this as it found it; a dict is
    copied, so an entry added to one in place shows too.
    """

    def state(kernel):
        owners = [kernel] + ([kernel.fallback] if isinstance(kernel, TableKernel) else [])
        return [
            {
                name: dict(value) if isinstance(value, dict) else value
                for name, value in vars(k).items()
                if name != "_catalan"
            }
            for k in owners
        ]

    return state


@pytest.fixture
def comb_kernel():
    """Size 12 splits 6 | 6 and size 6 splits 3 | 3, so H_12 is always 4,
    while size 10 always splits 1 | 9 and its height reaches 9."""
    return TableKernel(
        {12: [0.0] * 5 + [1.0] + [0.0] * 5, 6: [0.0, 0.0, 1.0, 0.0, 0.0], 10: [1.0] + [0.0] * 8},
        BstKernel(),
    )


def _counting(base, *args):
    """A kernel of class base that records the size of every split row it builds, and that record."""
    pulled = []

    class Counting(base):
        def _ascending_rows(self, sizes):
            for m, row in zip(sizes, super()._ascending_rows(sizes)):
                pulled.append(m)
                yield row

    return Counting(*args), pulled


@pytest.fixture
def counting_bst():
    """A bst kernel that records the size of every split row it builds, and that record."""
    return _counting(BstKernel)


@pytest.fixture
def counting_binomial():
    """A binomial(0.3) kernel that records the size of every split row it builds, and that record."""
    return _counting(BinomialKernel, 0.3)


class _MirroredBinomial(BinomialKernel):
    """The binomial kernel with every split row reversed: sigma(k, m-k) -> sigma(m-k, k)."""

    def _ascending_rows(self, sizes):
        for row in super()._ascending_rows(sizes):
            yield row[::-1]


@pytest.fixture
def mirrored_binomial():
    """Builds the mirror image of BinomialKernel(p) for a given p."""
    return _MirroredBinomial
