"""Unit tests for the benchmark helper library and the experiment
driver (``benchmarks/run_experiments.py``), run without any workload."""

import inspect
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from benchlib import (  # noqa: E402
    Series,
    growth_ratios,
    is_subquadratic,
    is_superlinear,
    render_table,
    timed,
)


class TestTimed:
    def test_returns_result_and_positive_time(self):
        seconds, value = timed(lambda: sum(range(1000)))
        assert value == sum(range(1000))
        assert seconds >= 0


class TestGrowth:
    def test_growth_ratios(self):
        assert growth_ratios([1, 2, 8]) == [2.0, 4.0]

    def test_zero_denominator(self):
        assert growth_ratios([0, 5]) == [0.0]

    def test_superlinear_exponential(self):
        xs = [2, 4, 8, 16]
        ys = [4, 16, 256, 65536]
        assert is_superlinear(xs, ys)

    def test_not_superlinear_when_linear(self):
        xs = [2, 4, 8, 16]
        ys = [20, 40, 80, 160]
        assert not is_superlinear(xs, ys)

    def test_subquadratic_linear(self):
        xs = [1, 2, 4, 8]
        ys = [3, 6, 12, 24]
        assert is_subquadratic(xs, ys)

    def test_not_subquadratic_cubic(self):
        xs = [1, 2, 4, 8]
        ys = [1, 8, 64, 512]
        assert not is_subquadratic(xs, ys)

    def test_degenerate_zero_start(self):
        assert is_superlinear([0, 1], [0, 1])
        assert is_subquadratic([0, 1], [0, 1])

    def test_series_wrapper(self):
        series = Series("demo", [1, 2], [3.0, 9.0])
        assert series.ratios() == [3.0]


class TestRenderTable:
    def test_alignment_and_headers(self):
        text = render_table("Title", ["a", "bb"], [[1, 2.5], [30, 4]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2].strip()) <= {"-", " "}
        assert "30" in text and "2.5" in text

    def test_float_formatting(self):
        text = render_table("t", ["x"], [[0.000123456]])
        assert "0.0001235" in text or "0.0001234" in text


class TestDriver:
    @pytest.fixture(scope="class")
    def driver(self):
        import run_experiments

        return run_experiments

    def test_sections_resolve_to_bench_table_functions(self, driver):
        seen = set()
        for title, tables in driver.SECTIONS:
            assert tables, title
            for table in tables:
                path = Path(inspect.getsourcefile(table))
                assert path.parent == BENCHMARKS, (title, table)
                assert path.name.startswith("bench_"), (title, table)
                assert table.__module__ == path.stem
                assert not table.__name__.startswith("test_")
                assert table not in seen, f"{table.__name__} listed twice"
                seen.add(table)

    def test_only_without_a_matching_section_exits_2(self, driver, capsys):
        with pytest.raises(SystemExit) as exit_info:
            driver.main(["--only", "no-such-section"])
        assert exit_info.value.code == 2
        assert "no section title starts with 'no-such-section'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("keyword, expected", [
        ("Section 4.4", ["Section 4.4 (hierarchies)"]),
        ("expansion", ["Expansion pipeline"]),
        ("theorem 4.1", ["Theorem 4.1"]),
        ("THEOREM 4.", [f"Theorem 4.{i}" for i in range(1, 7)]),
    ])
    def test_only_matches_the_start_of_a_title(self, driver, monkeypatch,
                                               capsys, keyword, expected):
        """``expected`` lists the starts of the selected titles."""
        ran = []
        monkeypatch.setattr(driver, "SECTIONS", [
            (title, (lambda title=title: ran.append(title)
                     or ("t", ["h"], []),))
            for title, _ in driver.SECTIONS])
        driver.main(["--only", keyword])
        capsys.readouterr()
        assert len(ran) == len(expected), ran
        assert all(title.startswith(start)
                   for title, start in zip(ran, expected)), ran
