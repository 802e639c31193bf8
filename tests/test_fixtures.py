"""`tools/make_fixtures.py` rebuilds every shipped fixture byte for byte."""

import shutil
import subprocess
import sys

from conftest import FIXTURES, REPO


def _files(root):
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_make_fixtures_reproduces_fixtures(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tools", "fixtures"):
        shutil.copytree(REPO / name, tmp_path / name, ignore=skip)
    result = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "make_fixtures.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    expected, produced = _files(FIXTURES), _files(tmp_path / "fixtures")
    assert sorted(produced) == sorted(expected)
    assert sorted(str(name) for name in expected if produced[name] != expected[name]) == []
