import os
from unittest import mock

from bglb.util import mask_of, parallel_map, subsets, thread_count, verts_of, weak_compositions


def test_mask_roundtrip():
    assert mask_of((1, 3, 4)) == 0b1101
    assert verts_of(0b1101) == (1, 3, 4)
    assert mask_of(()) == 0
    assert verts_of(0) == ()


def test_subsets_order_and_count():
    out = list(subsets((2, 1, 3)))
    assert out[0] == ()
    assert out[-1] == (1, 2, 3)
    assert len(out) == 8
    sizes = [len(s) for s in out]
    assert sizes == sorted(sizes)


def test_weak_compositions():
    got = sorted(weak_compositions(2, 2))
    assert got == [(0, 2), (1, 1), (2, 0)]
    assert list(weak_compositions(0, 0)) == [()]
    assert len(list(weak_compositions(3, 3))) == 10


def test_thread_count_env_override():
    with mock.patch.dict(os.environ, {"BGLB_THREADS": "3"}):
        assert thread_count() == 3
    with mock.patch.dict(os.environ, {"BGLB_THREADS": "0"}):
        assert thread_count() == 1


def test_parallel_map_preserves_order():
    items = list(range(40))
    assert parallel_map(lambda x: x * x, items) == [x * x for x in items]
    with mock.patch.dict(os.environ, {"BGLB_THREADS": "1"}):
        assert parallel_map(lambda x: -x, items) == [-x for x in items]
