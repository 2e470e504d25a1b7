"""The package's one memo mechanism, `finite_field.shared`, and the memos
built on it: bounded, and every array they hand out is read-only."""

import importlib

import numpy as np
import pytest

from wprm import weighted_space
from wprm.finite_field import CACHE_ENTRIES, GF, shared


def test_array_results_come_back_read_only():
    @shared
    def ramp(n):
        return np.arange(n)

    out = ramp(4)
    assert ramp(4) is out
    with pytest.raises(ValueError):
        out[0] = 9


def test_arrays_in_a_tuple_result_come_back_read_only():
    @shared
    def pair(n):
        return np.arange(n), np.ones(n), n

    a, b, n = pair(3)
    assert n == 3
    assert not a.flags.writeable and not b.flags.writeable


def test_a_result_that_is_no_array_is_untouched():
    @shared
    def boxed(n):
        return [np.zeros(n)]

    out = boxed(2)
    assert boxed(2) is out
    out[0][0] = 1  # only arrays at the top level are frozen
    assert out[0].flags.writeable


def test_an_exception_is_not_cached():
    calls = []

    @shared
    def refuse(n):
        calls.append(n)
        raise ValueError(n)

    for _ in range(2):
        with pytest.raises(ValueError):
            refuse(1)
    assert calls == [1, 1]
    for _ in range(2):
        with pytest.raises(ValueError, match="integers"):
            weighted_space.projective_space((1.5, 2), GF(3))


def test_the_cache_is_bounded():
    @shared
    def ident(n):
        return n

    for n in range(CACHE_ENTRIES + 10):
        ident(n)
    info = ident.cache_info()
    assert info.maxsize == CACHE_ENTRIES == info.currsize


# -- the library's memos ------------------------------------------------------------

# One call of each memo whose result holds arrays, by module.name.
ARRAY_CALLS = {
    "finite_field._radix": (3, 2),
    "finite_field._digits": (3, 2),
    "weighted_space._coset_minima": (GF(7), 3),
    "weighted_space.stabiliser_chain": (((1, 2), (0, 3)), GF(7)),
    "weighted_space._canonical_points": (
        GF(7), weighted_space._width_table((1, 2, 3), GF(7))),
    "zero_sets._cached_monomial_matrix": ((1, 2, 3), GF(7), 6),
    "zero_sets._torus_histogram": ((2, 3), GF(5)),
}


def _arrays(value):
    # the arrays of a result, through tuples and named tuples
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", sorted(ARRAY_CALLS))
def test_memos_hand_out_read_only_arrays(name):
    module, memo = name.split(".")
    memo = getattr(importlib.import_module(f"wprm.{module}"), memo)
    arrays = list(_arrays(memo(*ARRAY_CALLS[name])))
    assert arrays and not any(a.flags.writeable for a in arrays)
