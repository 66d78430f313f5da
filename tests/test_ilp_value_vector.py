"""Tests for the array-backed LP result values (:class:`ValueVector`).

LP backends return their solution as a read-only mapping over the
solver's own vector instead of a per-node ``{idx: float}`` dict; these
pin its mapping protocol, its equality rules, and the round trip back
to a plain dict.
"""

import numpy as np
import pytest

from repro.ilp.solution import LPResult, SolveStatus, ValueVector, plain_values


class TestValueVector:
    def test_mapping_protocol(self):
        vec = ValueVector(np.array([1.0, 0.0, 2.5]))
        assert len(vec) == 3
        assert vec[0] == 1.0
        assert vec[2] == 2.5
        assert list(vec) == [0, 1, 2]
        assert dict(vec) == {0: 1.0, 1: 0.0, 2: 2.5}
        assert sorted(vec.items()) == [(0, 1.0), (1, 0.0), (2, 2.5)]
        assert 2 in vec and 3 not in vec

    def test_out_of_range_and_negative_keys_raise(self):
        vec = ValueVector(np.array([1.0]))
        with pytest.raises(KeyError):
            vec[1]
        with pytest.raises(KeyError):
            vec[-1]

    def test_equality_with_dict_and_unhashable(self):
        vec = ValueVector(np.array([1.0, 2.0]))
        assert vec == {0: 1.0, 1: 2.0}
        assert vec == ValueVector(np.array([1.0, 2.0]))
        assert vec != ValueVector(np.array([1.0, 3.0]))
        with pytest.raises(TypeError):
            hash(vec)

    def test_plain_values_round_trip(self):
        vec = ValueVector(np.array([0.0, 1.0]))
        plain = plain_values(vec)
        assert plain == {0: 0.0, 1: 1.0}
        assert isinstance(plain, dict)
        assert plain_values(None) is None
        assert plain_values({3: 1.5}) == {3: 1.5}

    def test_lpresult_with_vector_values_compares(self):
        a = LPResult(
            status=SolveStatus.OPTIMAL, objective=1.0,
            values=ValueVector(np.array([1.0])),
        )
        b = LPResult(
            status=SolveStatus.OPTIMAL, objective=1.0,
            values=ValueVector(np.array([1.0])),
            reduced_costs=np.array([0.5]),  # excluded from equality
        )
        assert a == b
