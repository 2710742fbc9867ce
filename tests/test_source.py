"""The package carries no code that only its tests reach, and no parameter
that no call sets."""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Kept as API although nothing in the package calls it: the paper's lift of a
# 1D adjoint to the 2D time-advanced system.
_API_ONLY = {"lift_2d_from_1d"}

# Methods kept as API although nothing in the package calls them: gamma's
# definition, which a test compares with its jump-sum forms, the analytic
# gradient check for user models, and a Gaussian-mark jump measure.
_API_METHODS = {
    "AffineJumpCoefficient.evaluate",
    "CallableJumpCoefficient.evaluate",
    "CoefficientModel.check_gradients",
    "JumpSpec.gaussian",
}

# A defaulted parameter kept although no call passes it: a test sets it
# through an alias of the function.
_ALIASED_PARAMETERS = {"solve_foc.max_iter"}

_MODULES = sorted((REPO / "src" / "noisy_control").glob("*.py"))
_USERS = _MODULES + sorted((REPO / "perfbench").glob("*.py"))
# the modules whose parameters are the library's; the scenarios' factory
# parameters are config keys, and the criteria's come through ALL_CRITERIA
_LIBRARY = ("paths", "dynamics", "malliavin", "adjoint", "maxprinciple")


def test_every_top_level_name_is_used_outside_tests():
    """Each module-level function and class of src/noisy_control is named in
    src/ or perfbench/ somewhere besides its own definition."""
    words = Counter()
    for path in _USERS:
        words.update(re.findall(r"\w+", path.read_text()))
    unused = [node.name for path in _MODULES for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and words[node.name] < 2]
    assert sorted(unused) == sorted(_API_ONLY)


def test_every_public_method_is_read_outside_tests():
    """Each public method of a src/noisy_control class is read as an attribute
    (obj.name) in src/ or perfbench/; names in strings and docstrings do not
    count."""
    read = {node.attr for path in _USERS for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unused = ["%s.%s" % (cls.name, fn.name)
              for path in _MODULES for cls in ast.parse(path.read_text()).body
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and fn.name not in read]
    assert sorted(unused) == sorted(_API_METHODS)


def _defaulted(fn, method):
    """(name, position) of fn's defaulted parameters; position counts the
    call's positional arguments (after self or cls) and is None for a
    keyword-only one."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _passes(call, name, position):
    """Whether call passes the parameter: by keyword, by position, or by
    *args or **kwargs, which may hold it."""
    return (any(k.arg in (None, name) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def _own_cls_calls(cls):
    """The cls(...) calls inside the classmethods of class node `cls`: calls
    of its constructor."""
    return [call for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and any(getattr(d, "id", None) == "classmethod" for d in fn.decorator_list)
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"]


def test_every_defaulted_parameter_is_passed_somewhere():
    """Each defaulted parameter of a library function, method or constructor
    is passed by some call in src/, perfbench/ or tests/ to a callee of its
    name; one that no call passes is a constant.  A constructor's callers
    are the calls of its class by name and the cls(...) calls inside the
    class's classmethods."""
    calls = {}
    for path in _USERS + sorted((REPO / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    functions = []  # (qualified name, definition, whether a method, its calls)
    for module in _LIBRARY:
        for node in ast.parse((REPO / "src" / "noisy_control" / (module + ".py")).read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node.name, node, False, calls.get(node.name, [])))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    qualified = "%s.%s" % (node.name, fn.name)
                    if qualified in _API_METHODS:
                        continue
                    method = not any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list)
                    callers = (calls.get(node.name, []) + _own_cls_calls(node)
                               if fn.name == "__init__" else calls.get(fn.name, []))
                    functions.append((qualified, fn, method, callers))
    unset = ["%s.%s" % (qualified, name)
             for qualified, fn, method, callers in functions
             for name, position in _defaulted(fn, method)
             if not any(_passes(call, name, position) for call in callers)]
    assert sorted(unset) == sorted(_ALIASED_PARAMETERS)
