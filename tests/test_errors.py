from __future__ import annotations

import importlib
import pickle

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
