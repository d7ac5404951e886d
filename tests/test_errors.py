from __future__ import annotations

import ast
import importlib
import pickle
from pathlib import Path

import pytest

import genquot as gq


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _example(cls):
    if issubclass(cls, gq.ConditionFailed):
        return cls("el2", "sigma_min 0.1 < 0.25", {"sigma_min": 0.1, "k": 3})
    if issubclass(cls, gq.IoError):
        return cls("f.json", "bad")
    return cls("something went wrong")


@pytest.mark.parametrize("cls", [gq.GenquotError, *_subclasses(gq.GenquotError)],
                         ids=lambda c: c.__name__)
def test_errors_survive_pickling(cls):
    exc = _example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    for field in ("tag", "measured", "path"):
        assert getattr(back, field, None) == getattr(exc, field, None)


_MODULES = ("errors", "linalg", "sampler", "linprog", "body", "snumbers", "constructions",
            "experiments")


@pytest.mark.parametrize("module", _MODULES)
def test_package_exports_every_module_public_name(module):
    names = importlib.import_module(f"genquot.{module}").__all__
    assert [name for name in names if not hasattr(gq, name)] == []


def test_errors_all_lists_every_error_class():
    assert set(gq.errors.__all__) == {cls.__name__ for cls in
                                      [gq.GenquotError, *_subclasses(gq.GenquotError)]}


def _numpy_svd_uses(source: str) -> list[int]:
    """Lines of a module that name numpy's SVD: np.linalg.svd (or numpy.linalg.svd)
    as an attribute, or an import of svd from numpy.linalg."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "svd"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
              and any(alias.name == "svd" for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_only_linalg_calls_numpy_svd():
    # linalg.svd and linalg.singular_values turn LAPACK's LinAlgError into NumericError;
    # a direct np.linalg.svd elsewhere would let it escape as a traceback
    package = Path(gq.__file__).parent
    uses = {path.name: _numpy_svd_uses(path.read_text()) for path in sorted(package.glob("*.py"))
            if path.name != "linalg.py"}
    assert "body.py" in uses and "experiments.py" in uses
    assert {name: lines for name, lines in uses.items() if lines} == {}
    assert _numpy_svd_uses("import numpy as np\nnp.linalg.svd(a)\n") == [2]
    assert _numpy_svd_uses((package / "linalg.py").read_text())
