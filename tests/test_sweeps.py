import os
import re
import subprocess
import sys
from pathlib import Path

import sweeps

WORKFLOW = (Path(__file__).resolve().parent.parent / ".github/workflows/tests.yml").read_text(encoding="utf-8")


class TestWorkflowCallsTheTasks:
    def test_every_called_name_is_a_task_and_every_task_is_called(self):
        called = [name for names in re.findall(r"python tests/sweeps\.py((?: [\w-]+)+)", WORKFLOW)
                  for name in names.split()]
        assert set(called) <= set(sweeps.TASKS), set(called) - set(sweeps.TASKS)
        assert set(sweeps.TASKS) <= set(called), set(sweeps.TASKS) - set(called)

    def test_no_multi_line_inline_program(self):
        programs = re.findall(r"python3? -c\s+(['\"])(.*?)\1", WORKFLOW, re.DOTALL)
        assert [text for _, text in programs if "\n" in text] == []


class TestMain:
    def test_unknown_name_runs_nothing(self, capsys):
        assert sweeps.main(["size", "nope"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("unknown task 'nope'; expected any of size, unused-imports, ")

    def test_size_and_lint(self, capsys):
        assert sweeps.main(["size", "unused-imports"]) == 0
        match = re.fullmatch(r"src/xpq: (\d+) lines, (\d+) code lines \(not blank, comment or docstring\)\n"
                             r"((?:\w+: \d+ lines, \d+ code lines\n)+)README\.md: \d+ lines\n", capsys.readouterr().out)
        assert match
        # one line per module of src/xpq, in name order, summing to the first
        modules = re.findall(r"(\w+): (\d+) lines, (\d+) code lines", match[3])
        assert [name for name, _, _ in modules] == sorted(path.stem for path in (sweeps.ROOT / "src/xpq").glob("*.py"))
        assert [sum(int(row[i]) for row in modules) for i in (1, 2)] == [int(match[1]), int(match[2])]

    def test_code_lines_skip_docstrings_comments_and_blanks(self):
        text = 'def f():\n    """one\n    two"""\n\n    # note\n    return 1\n'
        assert sweeps.code_lines(text) == 2

    def test_reader_that_quits_first_ends_in_one_line(self):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first line is written
        try:
            proc = subprocess.run(
                [sys.executable, str(sweeps.ROOT / "tests/sweeps.py"), "size"], stdout=write, stderr=subprocess.PIPE,
                text=True, env={**os.environ, "PYTHONPATH": str(sweeps.ROOT / "src")}, timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write output: ") and proc.stderr.count("\n") == 1
