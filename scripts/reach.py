"""Statements of src/mlds that the CLI and the benchmark workloads never reach.

    python3 scripts/reach.py

Under ``sys.settrace``, in this process, it imports mlds from ./src and runs:

* the CLI commands, through ``mlds.cli.main`` in a temporary directory:
  keygen with and without --seed, sign, verify, kat under both policies and
  with --out, measure under both policies, estimate, estimate --json,
  estimate --eta 1528 and info;
* each workload of perfbench/run.py, through its ``run(workload, seed, 1.0,
  False, setup_runs=1)``: a one-second untraced-metrics run, whose set-up
  children run untraced in their own interpreters.

It then prints each statement of src/mlds that none of them reached, grouped
by file and enclosing function, and their count. A statement is a node of
``ast.stmt``; its own lines are all of a simple statement's lines and the
header lines of a compound one, and it counts only when one of them compiles
to code (a docstring does not). It is reached when one of its own lines
raised a line event. Uses the standard library only, and only reads
perfbench/.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib.util
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("hot-key", "cold-keys", "estimate")
SEED = "1f" * 32


class LineTracer:
    """Records (file, line) of every line event in code whose file lies under ``root``;
    frames of other files get no local tracer, so they cost one call event each."""

    def __init__(self, root: Path):
        self.root = str(root.resolve())
        self.hits: set[tuple[str, int]] = set()
        self._real = functools.lru_cache(maxsize=None)(os.path.realpath)

    def _call(self, frame, event, arg):
        return self._line if self._real(frame.f_code.co_filename).startswith(self.root) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((self._real(frame.f_code.co_filename), frame.f_lineno))
        return self._line

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


def code_lines(code: types.CodeType) -> set[int]:
    """Every line that an instruction of ``code``, or of a code object nested in it, carries."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[str, int, set[int]]]:
    """(enclosing function or "<module>", first line, own lines) of each statement of a
    source file that compiles to code, in source order."""
    source = path.read_text()
    executable = code_lines(compile(source, str(path), "exec"))
    found = []

    def start(node):  # a decorated definition starts at its first decorator
        return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])

    def visit(body, scope):
        for node in body:
            inner = getattr(node, "body", None)
            end = max(start(inner[0]) - 1, node.lineno) if inner else node.end_lineno
            own = set(range(start(node), end + 1))
            if own & executable:
                found.append((".".join(scope) or "<module>", node.lineno, own))
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            nested = scope + (node.name,) if named else scope
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, None) or [], nested)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, nested)

    visit(ast.parse(source, str(path)).body, ())
    return found


def unreached(path: Path, hits: set[tuple[str, int]]) -> list[tuple[str, int]]:
    """(enclosing function, first line) of each statement of ``path`` with no line in ``hits``."""
    name = os.path.realpath(path)
    return [(scope, line) for scope, line, own in statements(path)
            if not any((name, n) in hits for n in own)]


def run_cli(main) -> list[tuple[list[str], int]]:
    """Each CLI command of the module doc and its exit code, run in a temporary directory."""
    commands = [
        ["keygen", "--out-pk", "pk", "--out-sk", "sk"],
        ["keygen", "--out-pk", "pk", "--out-sk", "sk", "--seed", SEED],
        ["sign", "--sk", "sk", "--pk", "pk", "--msg", "msg", "--out-sig", "sig"],
        ["verify", "--pk", "pk", "--msg", "msg", "--sig", "sig"],
        ["kat", "--count", "2", "--seed", SEED, "--policy", "z2"],
        ["kat", "--count", "2", "--seed", SEED, "--policy", "literal"],
        ["kat", "--count", "2", "--seed", SEED, "--out", "kat.txt"],
        ["measure", "--trials", "8", "--seed", SEED, "--policy", "z2"],
        ["measure", "--trials", "8", "--seed", SEED, "--policy", "literal"],
        ["estimate"], ["estimate", "--json"], ["estimate", "--eta", "1528"], ["info"],
    ]
    codes, here = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("msg").write_bytes(b"a message to sign")
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append((argv, main(argv)))
        finally:
            os.chdir(here)
    return codes


def load_runner():
    """perfbench/run.py as a module, with perfbench/ importable for its own imports."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    sys.path.insert(0, str(SRC))
    with LineTracer(SRC / "mlds") as tracer:
        runner = load_runner()  # pins BLAS to one thread before numpy loads
        import mlds.cli
        for argv, code in run_cli(mlds.cli.main):
            print(f"mlds {' '.join(argv)}: exit {code}")
        for workload in WORKLOADS:
            result, _ = runner.run(workload, 1, 1.0, False, setup_runs=1)
            print(f"workload {workload}: failed {result['failed']} of {result['attempted']}")
    total = 0
    for path in sorted((SRC / "mlds").glob("*.py")):
        by_scope: dict[str, list[int]] = {}
        for scope, line in unreached(path, tracer.hits):
            by_scope.setdefault(scope, []).append(line)
        if by_scope:
            print(f"\n{path.relative_to(ROOT)}")
        for scope, lines in by_scope.items():
            print(f"  {scope}: {', '.join(map(str, lines))}")
            total += len(lines)
    print(f"\n{total} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
