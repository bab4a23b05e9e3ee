import pathlib

import pytest

from leibnizx import io
from leibnizx.scalars import Q

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"


def corpus_path(name):
    return str(CORPUS / name)


def is_normal(x):
    """x is a nonzero scalar in the normal form of stored coefficients: an
    ``int`` when it is integral, a ``Q`` otherwise."""
    if type(x) is int:
        return x != 0
    return type(x) is Q and x.denominator != 1


def is_normal_vec(v):
    return all(is_normal(x) for x in v.values())


def fraction_reduce(v, rows, keyf):
    """Subtract the row (pivot coefficient 1) at v's minimal pivot until no
    coordinate of v is a pivot; returns v, the exact residue.  The oracle of
    the integer elimination: its arithmetic is on ``Q`` values only."""
    while True:
        hit = None
        for c in v:
            if c in rows and (hit is None or keyf(c) < keyf(hit)):
                hit = c
        if hit is None:
            return v
        m = Q(v[hit])
        for k, x in rows[hit].items():
            y = Q(v.get(k, 0)) - m * Q(x)
            if y:
                v[k] = y
            else:
                v.pop(k, None)


@pytest.fixture(scope="session")
def load():
    cache = {}

    def _load(name):
        if name not in cache:
            cache[name] = io.load_path(corpus_path(name))
        return cache[name]

    return _load


@pytest.fixture(scope="session")
def a1(load):
    return load("a1.json")


@pytest.fixture(scope="session")
def l2(load):
    return load("l2.json")


@pytest.fixture(scope="session")
def r2(load):
    return load("r2.json")


@pytest.fixture(scope="session")
def xmods(load):
    names = ("xmod-zero-a1.json", "xmod-id-a1.json", "xmod-id-l2.json",
             "xmod-id-r2.json", "xmod-incl-l2.json")
    return {n: load(n) for n in names}
