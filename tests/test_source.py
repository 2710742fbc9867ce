"""The package carries no code that only its tests reach."""

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

_MODULES = sorted((REPO / "src" / "noisy_control").glob("*.py"))
_USERS = _MODULES + sorted((REPO / "perfbench").glob("*.py"))


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
