import random
from fractions import Fraction

import pytest

from helpers import naive_mbb, naive_movement
from rct import Reference, build_reference


def random_symbols(rng, n, speed=3):
    return [(rng.randint(-speed, speed), rng.randint(-speed, speed)) for _ in range(n)]


def test_unary_bitmaps_single_positive_step():
    ref = Reference([(2, 0)])
    assert ref.x_pos.to01() == "001"
    assert ref.x_neg.to01() == "1"
    assert ref.movement(0, 1) == (2, 0)


def test_unary_bitmaps_negative_step():
    ref = Reference([(-3, 1)])
    assert ref.x_pos.to01() == "1"
    assert ref.x_neg.to01() == "0001"
    assert ref.y_pos.to01() == "01"
    assert ref.y_neg.to01() == "1"
    assert ref.movement(0, 1) == (-3, 1)


def test_bitmaps_have_one_terminator_per_step():
    rng = random.Random(0)
    symbols = random_symbols(rng, 200)
    ref = Reference(symbols)
    for bm in (ref.x_pos, ref.x_neg, ref.y_pos, ref.y_neg):
        assert bm.ones == len(symbols)
    # zeros difference equals the total displacement
    total_dx = sum(dx for dx, _ in symbols)
    total_dy = sum(dy for _, dy in symbols)
    assert ref.x_pos.rank0(len(ref.x_pos)) - ref.x_neg.rank0(len(ref.x_neg)) == total_dx
    assert ref.y_pos.rank0(len(ref.y_pos)) - ref.y_neg.rank0(len(ref.y_neg)) == total_dy


def test_movement_empty_range_and_errors():
    ref = Reference([(1, 1), (0, -2)])
    assert ref.movement(0, 0) == (0, 0)
    assert ref.movement(2, 2) == (0, 0)
    with pytest.raises(ValueError):
        ref.movement(2, 1)
    with pytest.raises(ValueError):
        ref.movement(0, 3)
    with pytest.raises(ValueError):
        ref.movement(-1, 1)


def test_movement_against_prefix_sums():
    rng = random.Random(12)
    symbols = random_symbols(rng, 400)
    ref = Reference(symbols)
    m = len(symbols)
    for _ in range(3000):
        i = rng.randint(0, m)
        j = rng.randint(i, m)
        assert ref.movement(i, j) == naive_movement(symbols, i, j)


def test_movement_additivity():
    rng = random.Random(13)
    symbols = random_symbols(rng, 150)
    ref = Reference(symbols)
    m = len(symbols)
    for _ in range(800):
        i = rng.randint(0, m)
        j = rng.randint(i, m)
        k = rng.randint(j, m)
        a = ref.movement(i, j)
        b = ref.movement(j, k)
        c = ref.movement(i, k)
        assert (a[0] + b[0], a[1] + b[1]) == c


def test_mbb_worked_index_arithmetic():
    # Constructed so the y-axis valleys sit at steps 3, 7 and 10 with the
    # first two tied deepest: steps i..j are rows i..j of the cumulative
    # arrays, positions i+1..j+1 of their extremum indexes, minus row i-1.
    dys = [-1, -1, -1, 1, 1, -1, -1, 1, 1, -1, 1]
    symbols = [(1, dy) for dy in dys]
    ref = Reference(symbols)
    assert list(ref.cum_y) == [0, -1, -2, -3, -2, -1, -2, -3, -2, -1, -2, -1]
    assert tuple(ref.mbb(5, 11)) == (1, -1, 7, 1)
    assert tuple(ref.mbb(1, 11)) == (1, -3, 11, -1)
    assert tuple(ref.mbb(4, 6)) == (1, 1, 3, 2)
    assert naive_mbb(symbols, 5, 11)[1] == -1
    for i in range(1, 12):
        for j in range(i, 12):
            assert tuple(ref.mbb(i, j)) == naive_mbb(symbols, i, j)


def test_mbb_examples():
    symbols = [(1, 1), (1, -1), (1, -1), (1, 1)]
    ref = Reference(symbols)
    assert tuple(ref.mbb(1, 4)) == (1, -1, 4, 1)
    for i in range(1, 5):
        dx, dy = ref.movement(i - 1, i)
        assert tuple(ref.mbb(i, i)) == (dx, dy, dx, dy)


def test_mbb_against_brute_force():
    rng = random.Random(21)
    symbols = random_symbols(rng, 300)
    ref = Reference(symbols)
    m = len(symbols)
    for _ in range(2500):
        i = rng.randint(1, m)
        j = rng.randint(i, m)
        assert tuple(ref.mbb(i, j)) == naive_mbb(symbols, i, j)


def test_mbb_containment_tightness_monotone():
    rng = random.Random(22)
    symbols = random_symbols(rng, 200)
    ref = Reference(symbols)
    m = len(symbols)
    for _ in range(400):
        i = rng.randint(1, m)
        j = rng.randint(i, m)
        box = ref.mbb(i, j)
        xs, ys = [], []
        for t in range(i, j + 1):
            dx, dy = ref.movement(i - 1, t)
            assert box.x_min <= dx <= box.x_max
            assert box.y_min <= dy <= box.y_max
            xs.append(dx)
            ys.append(dy)
        assert box.x_min in xs and box.x_max in xs
        assert box.y_min in ys and box.y_max in ys
        if j < m:
            grown = ref.mbb(i, j + 1)
            assert grown.x_min <= box.x_min and grown.y_min <= box.y_min
            assert grown.x_max >= box.x_max and grown.y_max >= box.y_max


def test_mbb_invalid_ranges():
    ref = Reference([(1, 0), (0, 1)])
    for i, j in [(0, 1), (2, 1), (1, 3)]:
        with pytest.raises(ValueError):
            ref.mbb(i, j)


def test_build_reference_contains_repeated_sequence_verbatim():
    rng = random.Random(31)
    seq = random_symbols(rng, 100)
    dataset = [list(seq) for _ in range(50)]
    ref = build_reference(dataset, Fraction(1, 10), 8)
    assert len(ref) >= 100
    ref_symbols = [ref.alphabet[i] for i in ref.ids]
    flat = "|".join(map(str, ref_symbols))
    needle = "|".join(map(str, seq))
    assert needle in flat


def test_build_reference_alphabet_closure():
    rng = random.Random(32)
    dataset = [random_symbols(rng, rng.randint(1, 40)) for _ in range(12)]
    ref = build_reference(dataset, Fraction(1, 100), 8)
    distinct = {s for seq in dataset for s in seq}
    present = {ref.alphabet[i] for i in ref.ids}
    assert distinct <= present


def test_build_reference_single_symbol():
    ref = build_reference([[(0, 0)]])
    assert (0, 0) in {ref.alphabet[i] for i in ref.ids}


def test_build_reference_empty_dataset_rejected():
    with pytest.raises(ValueError):
        build_reference([])
    with pytest.raises(ValueError):
        build_reference(iter([]))


def test_build_reference_reads_a_generator_once():
    rng = random.Random(33)
    dataset = [random_symbols(rng, rng.randint(0, 60)) for _ in range(20)]
    for frac, block in [(Fraction(1, 10), 8), (Fraction(1, 3), 4), (Fraction(1), 100)]:
        expected = build_reference(dataset, frac, block)
        got = build_reference((list(seq) for seq in dataset), frac, block)
        assert got.alphabet == expected.alphabet
        assert list(got.ids) == list(expected.ids)


def test_extrema_index_no_marks_on_monotone_axis():
    # a monotone axis has no interior extremum: every bound sits at a range end
    symbols = [(1, 0)] * 10
    ref = Reference(symbols)
    assert ref.mbb(2, 9) == (1, 0, 8, 0)
    assert ref.mbb(1, 10) == (1, 0, 10, 0)
    for i in range(1, 11):
        for j in range(i, 11):
            assert tuple(ref.mbb(i, j)) == naive_mbb(symbols, i, j)


def test_extrema_marks_mean_monotone_between():
    rng = random.Random(41)
    symbols = random_symbols(rng, 120)
    ref = Reference(symbols)
    cum = [0]
    for _, dy in symbols:
        cum.append(cum[-1] + dy)
    steps = len(symbols)
    valleys = [t for t in range(2, steps) if cum[t] < cum[t - 1] and cum[t] <= cum[t + 1]]
    peaks = [t for t in range(2, steps) if cum[t] > cum[t - 1] and cum[t] >= cum[t + 1]]
    # between consecutive valleys the curve cannot dip below both ends,
    # nor rise above both ends between consecutive peaks
    for a, b in zip(valleys, valleys[1:]):
        assert ref.mbb(a, b).y_min + cum[a - 1] == min(cum[a], cum[b])
    for a, b in zip(peaks, peaks[1:]):
        assert ref.mbb(a, b).y_max + cum[a - 1] == max(cum[a], cum[b])
    for i in range(1, steps + 1):
        for j in range(i, steps + 1):
            assert tuple(ref.mbb(i, j)) == naive_mbb(symbols, i, j)


@pytest.mark.parametrize("jump_rate", [1.0, 0.05])
def test_movement_and_mbb_with_steps_up_to_a_thousand(jump_rate):
    # jump_rate 0.05 is glitch-shaped: unit steps with rare jumps of up to 1000
    rng = random.Random(1000)
    symbols = [
        random_symbols(rng, 1, 1000)[0] if rng.random() < jump_rate else random_symbols(rng, 1, 1)[0]
        for _ in range(400)
    ]
    ref = Reference(symbols)
    m = len(symbols)
    for _ in range(3000):
        i = rng.randint(0, m)
        j = rng.randint(i, m)
        assert ref.movement(i, j) == naive_movement(symbols, i, j)
        if i:
            assert tuple(ref.mbb(i, j)) == naive_mbb(symbols, i, j)
