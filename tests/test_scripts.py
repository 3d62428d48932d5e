"""Tests of the comparison scripts under scripts/, loaded by path."""

import ast
import importlib.util
import os
import subprocess
import sys

import pytest

from psaddle import cli

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def drift():
    return load("output_drift")


@pytest.fixture(scope="module")
def lines():
    return load("code_lines")


def write_pair(tmp_path, parent, change):
    paths = []
    for side, text in (("parent", parent), ("change", change)):
        path = tmp_path / f"{side}.csv"
        path.write_text(text)
        paths.append(str(path))
    return paths


class TestCompareCsv:
    def test_equal(self, drift, tmp_path):
        text = "level,kappa\n1,1.5\n2,2.25\n"
        ok, _, worst = drift.compare_csv(*write_pair(tmp_path, text, text))
        assert ok
        assert worst[0] == 0.0

    def test_float_drift_is_reported_not_judged(self, drift, tmp_path):
        ok, report, (value, column) = drift.compare_csv(*write_pair(
            tmp_path, "level,kappa\n1,2\n2,4.0\n", "level,kappa\n1,2\n2,4.4\n"
        ))
        assert ok
        assert column == "kappa"
        assert abs(value - 0.4 / 4.4) <= 1e-15
        assert "  level: integer/string equal" in report

    def test_integer_column_differs(self, drift, tmp_path):
        ok, report, _ = drift.compare_csv(*write_pair(
            tmp_path, "level,kappa\n1,1.5\n2,2.5\n", "level,kappa\n1,1.5\n3,2.5\n"
        ))
        assert not ok
        assert "  level: integer/string DIFFERS" in report

    def test_row_count_differs(self, drift, tmp_path):
        ok, report, _ = drift.compare_csv(*write_pair(
            tmp_path, "level,kappa\n1,1.5\n", "level,kappa\n1,1.5\n2,2.5\n"
        ))
        assert not ok
        assert report == ["  header or row count differs: 1 vs 2 rows"]


def test_drift_runs_every_subcommand_on_existing_configs(drift):
    # a subcommand missing here would escape the byte-identity comparison
    assert set(drift.SUBCOMMANDS) == set(cli.SUBCOMMANDS)
    configs = os.path.join(SCRIPTS, "..", "configs")
    for name in drift.CONFIGS:
        assert os.path.isfile(os.path.join(configs, f"{name}.cfg"))


def test_run_child_reads_the_child_peak_rss(tmp_path):
    # run from a small interpreter, as the script runs: Linux counts the
    # launching process's resident pages into a child's peak at exec, so
    # under pytest the floor would be pytest's own size.  The first child
    # touches 64 MiB; each returns its exit code and stdout with its peak.
    script = os.path.join(SCRIPTS, "output_drift.py")
    launcher = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('d', {script!r})\n"
        "d = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(d)\n"
        "big = 'import sys; a = bytearray(64 << 20); a[::4096] = bytes(len(a[::4096])); "
        "print(1); sys.exit(3)'\n"
        "print([d.run_child([sys.executable, '-c', c], '.', {}) for c in (big, 'pass')])\n"
    )
    proc = subprocess.run([sys.executable, "-c", launcher], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    (code, out, rss), (small_code, _, small_rss) = ast.literal_eval(proc.stdout)
    assert (code, out) == (3, "1\n") and small_code == 0
    assert 64 <= rss < 128
    assert 0 < small_rss < 32


def test_code_lines_skips_docstrings_comments_and_blanks(lines):
    source = '''"""Module docstring
on two lines."""

# a comment
x = 1  # trailing comment
text = """a string
that is not a docstring"""


def f():
    """Function docstring."""
    return x
'''
    # x = 1, the two lines of text, def f(): and return x
    assert lines.code_lines(source) == 5
