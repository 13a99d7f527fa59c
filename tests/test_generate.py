import pytest

from bqp01 import (
    SplitMix64,
    detect_additive,
    detect_nonnegative,
    generate_instance,
    min_negative_eliminator,
    rank_factorize,
)


def test_stream_is_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_randint_stays_in_range():
    rng = SplitMix64(7)
    values = [rng.randint(-3, 3) for _ in range(500)]
    assert set(values) == set(range(-3, 4))
    with pytest.raises(ValueError):
        rng.randint(2, 1)


def test_same_seed_same_instance():
    one = generate_instance("general", 4, 5, 99)
    two = generate_instance("general", 4, 5, 99)
    assert one == two
    assert one != generate_instance("general", 4, 5, 100)


def test_rank_kind_has_exact_rank():
    for seed in range(8):
        inst = generate_instance("rank1", 5, 7, seed)
        assert rank_factorize(inst.q).p == 1
        inst = generate_instance("rank2", 4, 5, seed)
        assert rank_factorize(inst.q).p == 2
        inst = generate_instance("rank3", 5, 4, seed)
        assert rank_factorize(inst.q).p == 3
    assert generate_instance("rank0", 3, 4, 5).q == ((0,) * 4,) * 3


def test_rank_kind_rejects_impossible_rank():
    with pytest.raises(ValueError, match="impossible"):
        generate_instance("rank4", 3, 5, 0)


def test_additive_kind_detected():
    for seed in range(8):
        inst = generate_instance("additive", 4, 6, seed)
        assert detect_additive(inst.q) is not None


def test_nonnegative_kind():
    for seed in range(8):
        inst = generate_instance("nonnegative", 4, 6, seed)
        assert detect_nonnegative(inst.q)


def test_sparse_negative_kind_bounds_eliminator():
    for seed in range(10):
        inst = generate_instance("sparse-negative3", 5, 6, seed)
        negatives = sum(1 for row in inst.q for v in row if v < 0)
        assert negatives == 3
        assert min_negative_eliminator(inst.q).size <= 3
    tiny = generate_instance("sparse-negative5", 1, 2, 0)
    assert sum(1 for row in tiny.q for v in row if v < 0) == 2  # capped at m*n


def test_sparse_negative_default_count():
    inst = generate_instance("sparse-negative", 4, 4, 3)
    assert sum(1 for row in inst.q for v in row if v < 0) == 3


def test_value_range_respected():
    inst = generate_instance("general", 6, 6, 5, value_range=2)
    values = [v for row in inst.q for v in row] + list(inst.c) + list(inst.d)
    assert all(-2 <= v <= 2 for v in values)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown kind"):
        generate_instance("mystery", 2, 2, 0)


def test_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        generate_instance("general", 0, 2, 0)
