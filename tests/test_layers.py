"""The package's modules form one import order, with no cycle, keep no
module state that a function rebinds, and never rebind a ring value's fields.

``import mlds.codec`` cannot show a cycle, because ``mlds/__init__`` loads
every module first; so the imports are read from the source, including the
ones inside functions. Cached values live in ``lru_cache`` functions, so no
module needs a ``global`` statement or a ``globals()`` call.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import mlds
from mlds.ring import COEFF, RqArray

LAYERS = ("params", "ring", "sampling", "codec", "scheme", "estimator", "cli")
SRC = Path(mlds.__file__).resolve().parent


def imported_modules(tree: ast.AST):
    """(line, module name) for every mlds module a parsed file imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import codec
                yield from ((node.lineno, alias.name) for alias in node.names)
            elif node.level == 1:
                yield node.lineno, node.module.split(".")[0]
            elif node.level == 0 and (node.module or "").startswith("mlds."):
                yield node.lineno, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mlds."):
                    yield node.lineno, alias.name.split(".")[1]


def absolute_imports(tree: ast.AST):
    """(line, top-level package) for every absolute import in a parsed file, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def module_state_writes(tree: ast.AST):
    """(line, what) for every ``global`` statement and ``globals()`` call, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, "global " + ", ".join(node.names)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "globals"):
            yield node.lineno, "globals()"


def names_used(tree: ast.AST, wanted: set):
    """(line, name) for every name, attribute or imported name in ``wanted``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in wanted:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in wanted:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names if alias.name in wanted)


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == set(LAYERS) | {"__init__"}


def test_imports_point_to_earlier_layers_only():
    backward = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        rank = LAYERS.index(path.stem)
        for line, target in imported_modules(ast.parse(path.read_text(), str(path))):
            if target not in LAYERS[:rank]:
                backward.append(f"{path.name}:{line} imports {target}")
    assert backward == []


def test_the_estimator_imports_no_other_mlds_module():
    path = SRC / "estimator.py"
    assert list(imported_modules(ast.parse(path.read_text(), str(path)))) == []


def test_params_imports_only_the_stdlib():
    path = SRC / "params.py"
    tree = ast.parse(path.read_text(), str(path))
    assert list(imported_modules(tree)) == []
    assert [(line, name) for line, name in absolute_imports(tree)
            if name not in sys.stdlib_module_names] == []


def test_the_check_sees_imports_inside_functions():
    source = "def parse():\n    from .scheme import Signature\n"
    assert list(imported_modules(ast.parse(source))) == [(2, "scheme")]


def test_no_module_rebinds_its_own_state():
    found = [f"{path.name}:{line} {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in module_state_writes(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_check_sees_global_statements_and_globals_calls():
    source = "def grow():\n    global _T\n    globals()['_T'] = 1\n"
    assert list(module_state_writes(ast.parse(source))) == [(2, "global _T"), (3, "globals()")]


def field_rebinds(tree: ast.AST, fields: set):
    """(line, what) for every assignment to an attribute in ``fields`` (plain, augmented,
    annotated or unpacked) and every ``setattr``/``x.__setattr__`` call that names one,
    at any depth. A write into the array, ``x.data[i] = v``, rebinds nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr in fields:
                yield node.lineno, f".{node.attr} ="
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in fields
              and ((isinstance(node.func, ast.Name) and node.func.id == "setattr")
                   or (isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"))):
            yield node.lineno, f"sets {node.args[1].value!r}"


def test_no_module_rebinds_a_ring_value():
    # RqArray is not frozen, since a frozen build costs over twice as much; no module
    # rebinds the array or the domain of a value once it is built
    found = [f"{path.name}:{line} {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in field_rebinds(ast.parse(path.read_text(), str(path)),
                                             {"data", "domain"})]
    assert found == []


def test_the_check_sees_assignments_and_setattr_calls():
    source = ("x.data = a\nx.domain += b\ny.data: int = 1\nx.data, y = a, b\n"
              "setattr(x, 'domain', c)\nobject.__setattr__(x, 'data', c)\n"
              "object.__setattr__(self, 'param_id', 1)\nz = x.data\nx.data[0] = 1\n")
    assert sorted(field_rebinds(ast.parse(source), {"data", "domain"})) == [
        (1, ".data ="), (2, ".domain ="), (3, ".data ="), (4, ".data ="),
        (5, "sets 'domain'"), (6, "sets 'data'")]


def test_a_ring_value_has_only_its_two_slots():
    # the slots keep a build cheap; without a __dict__ no other attribute can be set
    value = RqArray(np.zeros((1, 4), np.int32), COEFF)
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.cache = None


def test_only_sampling_draws_noise():
    # sampling owns which nonce feeds which noise polynomial; the other layers ask it
    # for s, e or e1..e4 (the package __init__ only re-exports gen_se, and is no layer)
    found = [f"{name}.py:{line} names {what}"
             for name in LAYERS if name != "sampling"
             for line, what in names_used(ast.parse((SRC / f"{name}.py").read_text()),
                                          {"gen_se", "_binomial"})]
    assert found == []


def test_the_check_sees_names_attributes_and_imports():
    source = "from .sampling import gen_se\nsampling._binomial(gen_se)\n"
    assert sorted(names_used(ast.parse(source), {"gen_se", "_binomial"})) == [
        (1, "gen_se"), (2, "_binomial"), (2, "gen_se")]


def test_one_ring_value_type():
    # every ring value is one RqArray, a (..., rows, n) array tagged with its
    # domain; no module defines or names a per-shape or per-domain value class
    old = {"Poly", "NttPoly", "PolyVec", "NttMatrix"}
    found = [f"{path.name}:{line} names {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in names_used(ast.parse(path.read_text(), str(path)), old)]
    found += [f"{path.name}:{node.lineno} defines {node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.ClassDef) and node.name in old]
    assert found == []


def test_one_function_per_operation():
    # keygen, sign and verify each take one trial or a batch; no private batch twin
    # of keygen or sign exists beside them, in the package or in its tests
    twins = {"_keygen_steps", "_sign_steps"}
    tests = Path(__file__).resolve().parent
    found = [f"{path.parent.name}/{path.name}:{line} names {what}"
             for path in sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py"))
             for line, what in names_used(ast.parse(path.read_text(), str(path)), twins)]
    found += [f"{path.parent.name}/{path.name}:{node.lineno} defines {node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.FunctionDef) and node.name in twins]
    assert found == []


def batch_tests(tree: ast.AST):
    """(line, types) for every ``isinstance(x, (list, tuple))`` or ``isinstance(x, (bytes,
    bytearray))`` call, at any depth: the tests that decide one trial or a batch."""
    rules = ({"list", "tuple"}, {"bytes", "bytearray"})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and isinstance(node.args[1], ast.Tuple)):
            types = {elt.id for elt in node.args[1].elts if isinstance(elt, ast.Name)}
            if types in rules:
                yield node.lineno, ", ".join(sorted(types))


def test_one_batch_rule():
    # sampling's _batch and _each decide whether a value is one trial or a batch,
    # for every layer; no other module tests the type of a batch by its own rule
    found = [f"{path.name}:{line} isinstance(..., ({types}))"
             for path in sorted(SRC.glob("*.py")) if path.stem != "sampling"
             for line, types in batch_tests(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_check_sees_both_batch_tests():
    source = ("def f(x):\n    if isinstance(x, (list, tuple)):\n"
              "        return isinstance(x[0], (bytes, bytearray))\n    return isinstance(x, bytes)\n")
    assert list(batch_tests(ast.parse(source))) == [(2, "list, tuple"), (3, "bytearray, bytes")]


def test_one_known_answer_loop():
    # scheme.run_cases runs the known-answer cases of measure_agreement and mlds kat;
    # no module but sampling, which derives a case's seeds, and scheme names them
    found = [f"{name}.py:{line} names {what}"
             for name in LAYERS if name not in ("sampling", "scheme")
             for line, what in names_used(ast.parse((SRC / f"{name}.py").read_text()),
                                          {"derive_case_seeds"})]
    assert found == []
