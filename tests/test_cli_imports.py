"""Each subcommand imports only the front-end it runs.

Every check starts a fresh interpreter, so modules other tests imported do
not count.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports the CLI, runs it on argv, and prints the package modules loaded
# before and after the run as the last line of output.
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
argv = json.loads(sys.argv[2])

def loaded():
    return sorted(n for n in sys.modules if n.split(".")[0] == "deltadebug")

from deltadebug import cli
before = loaded()
code = cli.run(argv) if argv else 0
print(json.dumps([code, before, loaded()]))
"""

CLI_MODULES = ["deltadebug", "deltadebug.cli", "deltadebug.core", "deltadebug.report"]


def modules_loaded(argv, cwd):
    """The exit code and the modules loaded before and after ``cli.run(argv)``."""
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), json.dumps(argv)],
        cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
    )
    code, before, after = json.loads(done.stdout.splitlines()[-1])
    return code, before, sorted(set(after) - set(before))


def test_importing_the_cli_loads_only_the_engine_and_the_report(tmp_path):
    assert modules_loaded([], tmp_path) == (0, CLI_MODULES, [])


def test_bench_adds_only_bench_and_the_oracles(tmp_path):
    argv = ["bench", "--oracle", "single", "--sizes", "4", "--csv", "out.csv"]
    assert modules_loaded(argv, tmp_path) == (
        0, CLI_MODULES, ["deltadebug.bench", "deltadebug.oracles"]
    )


def test_reduce_trace_adds_only_the_toy_language_and_the_reducer(tmp_path):
    (tmp_path / "p.toy").write_text('x = 1;\ny = 2;\nprint("x=", x, "\\n");\n')
    argv = ["reduce-trace", "--program", "p.toy", "--expect", "x=1\\n"]
    assert modules_loaded(argv, tmp_path) == (
        0, CLI_MODULES, ["deltadebug.toylang", "deltadebug.tracered"]
    )
