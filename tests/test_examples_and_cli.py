"""Keep the examples and the CLI green: they are part of the product."""

from __future__ import annotations

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(path):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(path), run_name="__main__")
    output = buffer.getvalue()
    assert "OK" in output or "ok" in output


class TestCli:
    def _run(self, *argv: str) -> tuple[int, str]:
        from repro.__main__ import main

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(list(argv))
        return code, buffer.getvalue()

    def test_demo(self):
        code, output = self._run("demo")
        assert code == 0
        assert "demo OK" in output

    def test_stats(self):
        code, output = self._run("stats")
        assert code == 0
        assert '"records": 500' in output

    def test_unknown_command(self):
        code, output = self._run("nope")
        assert code == 1
        assert "Commands" in output
