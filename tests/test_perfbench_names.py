"""The names the benchmark takes from dimergeom still exist.

perfbench imports its dimergeom functions by name and its traced run
rebinds the functions listed in ``traced.SPANNED`` and the methods in
``traced.COUNTED``.  A change that deletes or renames one of them fails
here, not only in ``perfbench/run.py --trace 1``.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs, traced  # noqa: E402,F401  (importing them resolves every imported name)


def test_spanned_functions_and_counted_methods_exist():
    missing = [
        f"{mod.__name__}.{name}"
        for mod, names in traced.SPANNED.items()
        for name in names
        if not callable(getattr(mod, name, None))
    ]
    missing += [
        f"{cls.__name__}.{attr}" for cls, attrs in traced.COUNTED.values() for attr in attrs if attr not in cls.__dict__
    ]
    assert missing == []
