"""The package carries no code that only its tests reach."""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Kept as API although nothing in the package calls it: the paper's lift of a
# 1D adjoint to the 2D time-advanced system.
_API_ONLY = {"lift_2d_from_1d"}


def test_every_top_level_name_is_used_outside_tests():
    """Each module-level function and class of src/noisy_control is named in
    src/ or perfbench/ somewhere besides its own definition."""
    modules = sorted((REPO / "src" / "noisy_control").glob("*.py"))
    words = Counter()
    for path in modules + sorted((REPO / "perfbench").glob("*.py")):
        words.update(re.findall(r"\w+", path.read_text()))
    unused = [node.name for path in modules for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and words[node.name] < 2]
    assert sorted(unused) == sorted(_API_ONLY)
