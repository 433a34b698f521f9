import pytest

from ramstruct.bitset import ElementSet, iter_bits, mask_of
from ramstruct.groups import AbelianGroup


def test_mask_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(iter_bits(0b101001)) == [0, 3, 5]


def test_element_set_basics():
    s = ElementSet.from_indices([0, 2, 7], 8)
    assert len(s) == s.cardinality == 3
    assert 2 in s and 3 not in s and 9 not in s
    assert s.indices() == [0, 2, 7]
    assert s == ElementSet(0b10000101, 8)
    assert hash(s) == hash(ElementSet(0b10000101, 8))


def test_element_set_algebra():
    a = ElementSet.from_indices([0, 1, 2], 6)
    b = ElementSet.from_indices([0, 2, 4], 6)
    assert (a & b).indices() == [0, 2]
    assert (a | b).indices() == [0, 1, 2, 4]
    assert (a - b).indices() == [1]
    assert (ElementSet((1 << 6) - 1, 6) - a).indices() == [3, 4, 5]
    assert ElementSet.from_indices([0, 2], 6).issubset(b)
    assert ElementSet((1 << 4) - 1, 4).cardinality == 4
    assert ElementSet(0, 4).cardinality == 0


def test_index_validation():
    G = AbelianGroup([4, 2])
    with pytest.raises(IndexError):
        G.check_index(8)
    with pytest.raises(IndexError):
        G.check_index(-1)
    with pytest.raises(IndexError):
        G.order_of(11)
