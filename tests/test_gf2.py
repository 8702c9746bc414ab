import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2 import BitSpan
from naive import rank_gf2


@given(st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1),
                max_size=24))
@settings(max_examples=200)
def test_bitspan_matches_matrix_rank(masks):
    span = BitSpan(masks)
    rows = np.array([[(m >> j) & 1 for j in range(12)] for m in masks],
                    dtype=np.uint8).reshape(len(masks), 12)
    assert span.dim == rank_gf2(rows)
    for m in masks:
        assert span.contains(m)
    combo = 0
    for m in masks:
        combo ^= m
    assert span.contains(combo)


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=12),
       st.integers(min_value=0, max_value=255))
def test_bitspan_reduce_idempotent(masks, probe):
    span = BitSpan(masks)
    reduced = span.reduce(probe)
    assert span.reduce(reduced) == reduced
    assert span.contains(probe ^ reduced)
