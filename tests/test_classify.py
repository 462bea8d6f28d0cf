import pytest

from pgarcs.classify import enumerate_cyclic_classes, run_exclusion


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_class_count_is_p2_p_2_exactly_when_3_divides_p_minus_1(p):
    # conjugacy classes of PGL(3,p), the trivial class included; p = 13
    # (184 classes) is left out only for its running time
    classes = enumerate_cyclic_classes(p)
    assert len(classes) == p * p + p + (2 if (p - 1) % 3 == 0 else 0)
    assert [c.is_trivial for c in classes].count(True) == 1
    assert classes[0].is_trivial


def test_a_sweep_accepts_only_one_thread():
    with pytest.raises(ValueError):
        run_exclusion(3, 2, 5, threads=2)
