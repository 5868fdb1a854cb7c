"""scripts/reach.py's tracer and statement table, on a toy module."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parents[1] / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

TOY = '''"""A toy module."""


def pick(flag):
    """A docstring compiles to no code."""
    if flag:
        return "yes"
    return (
        "no"
    )


class Box:
    @staticmethod
    def open():
        try:
            return 1
        except ValueError:
            return 2
'''


def load(path: Path):
    spec = importlib.util.spec_from_file_location("toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_statement_is_its_code_lines_and_a_docstring_is_none(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    table = [(scope, line, sorted(own)) for scope, line, own in reach.statements(path)]
    assert table == [
        ("<module>", 1, [1]), ("<module>", 4, [4]), ("pick", 6, [6]), ("pick", 7, [7]),
        ("pick", 8, [8, 9, 10]), ("<module>", 13, [13]), ("Box", 15, [14, 15]),
        ("Box.open", 16, [16]), ("Box.open", 17, [17]), ("Box.open", 19, [19])]


def test_the_tracer_reports_each_statement_that_no_call_reached(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    with reach.LineTracer(tmp_path) as tracer:
        load(path).pick(True)
    assert reach.unreached(path, tracer.hits) == [
        ("pick", 8), ("Box.open", 16), ("Box.open", 17), ("Box.open", 19)]
    with reach.LineTracer(tmp_path) as tracer:
        toy = load(path)
        toy.pick(False)
        toy.Box.open()
    # an except clause is not a statement, and its body runs only on a raise
    assert reach.unreached(path, tracer.hits) == [("pick", 7), ("Box.open", 19)]
