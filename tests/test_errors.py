from __future__ import annotations

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
