import random
from fractions import Fraction

import pytest

from rct import Phrase, Reference, ReferenceMatcher, build_log, decompress
from rct.reference import build_reference
from rct.rlz import PhraseTable, suffix_array


REF_DNA = "tggcacttgat"


def test_parse_worked_example():
    matcher = ReferenceMatcher(REF_DNA)
    phrases = matcher.parse("tgacacacttg")
    assert [(p.start, p.length) for p in phrases] == [(8, 3), (4, 3), (5, 5)]


def test_parse_self_match_single_phrase():
    matcher = ReferenceMatcher(REF_DNA)
    assert matcher.parse(REF_DNA) == [Phrase(1, len(REF_DNA))]


def test_parse_unknown_symbol_rejected():
    matcher = ReferenceMatcher("abc")
    with pytest.raises(ValueError):
        matcher.parse("abz")


def test_decompress_worked_example():
    phrases = [Phrase(8, 3), Phrase(4, 3), Phrase(5, 5)]
    assert "".join(decompress(phrases, REF_DNA)) == "tgacacacttg"


def test_decompress_empty_and_bounds():
    assert decompress([], REF_DNA) == []
    with pytest.raises(ValueError):
        decompress([Phrase(9, 4)], REF_DNA)
    with pytest.raises(ValueError):
        decompress([Phrase(0, 1)], REF_DNA)


def test_suffix_array_matches_sorted_suffixes():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(0, 40)
        seq = [rng.randint(0, 3) for _ in range(n)]
        expected = sorted(range(n), key=lambda i: seq[i:])
        assert suffix_array(seq) == expected


def test_parse_roundtrip_random():
    rng = random.Random(2)
    for _ in range(150):
        ref_seq = [rng.randint(0, 4) for _ in range(rng.randint(1, 60))]
        matcher = ReferenceMatcher(ref_seq)
        alphabet = sorted(set(ref_seq))
        source = [rng.choice(alphabet) for _ in range(rng.randint(0, 80))]
        phrases = matcher.parse(source)
        assert decompress(phrases, ref_seq) == source
        assert all(p.length >= 1 for p in phrases)
        assert sum(p.length for p in phrases) == len(source)


def occurs(ref_seq, fragment):
    n, k = len(ref_seq), len(fragment)
    return any(ref_seq[i : i + k] == fragment for i in range(n - k + 1))


def test_parse_greedy_maximality_and_tie_break():
    rng = random.Random(3)
    for _ in range(80):
        ref_seq = [rng.randint(0, 2) for _ in range(rng.randint(1, 30))]
        matcher = ReferenceMatcher(ref_seq)
        alphabet = sorted(set(ref_seq))
        source = [rng.choice(alphabet) for _ in range(rng.randint(1, 40))]
        at = 0
        for ph in matcher.parse(source):
            covered = source[at : at + ph.length]
            assert ref_seq[ph.start - 1 : ph.start - 1 + ph.length] == covered
            # cannot be extended by one more source symbol
            if at + ph.length < len(source):
                assert not occurs(ref_seq, source[at : at + ph.length + 1])
            # smallest start among equal-length occurrences
            starts = [
                i + 1
                for i in range(len(ref_seq) - ph.length + 1)
                if ref_seq[i : i + ph.length] == covered
            ]
            assert ph.start == starts[0]
            at += ph.length


def test_phrase_count_bound():
    rng = random.Random(4)
    for _ in range(40):
        ref_seq = [rng.randint(0, 2) for _ in range(rng.randint(2, 25))]
        matcher = ReferenceMatcher(ref_seq)
        alphabet = sorted(set(ref_seq))
        source = [rng.choice(alphabet) for _ in range(rng.randint(1, 30))]
        phrases = matcher.parse(source)
        assert len(phrases) <= len(source)
        if len(phrases) == len(source) and len(source) > 1:
            for a, b in zip(source, source[1:]):
                assert not occurs(ref_seq, [a, b])


def build_simple_log(positions, t_s=0, oid=1):
    moves = [
        (x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(positions, positions[1:])
    ]
    ref = Reference(moves if moves else [(0, 0)])
    return build_log(oid, t_s, positions, ref), ref


def test_build_log_stationary():
    positions = [(5, 5)] * 10
    log, ref = build_simple_log(positions)
    assert log.phrase_count >= 1
    assert all(p == (5, 5) for p in log.prev_positions)
    assert list(log.x_mins) == [5] * log.phrase_count
    assert list(log.x_maxs) == [5] * log.phrase_count
    assert list(log.y_mins) == [5] * log.phrase_count
    assert list(log.y_maxs) == [5] * log.phrase_count


def test_build_log_single_step():
    log, ref = build_simple_log([(0, 0), (1, 2)])
    assert log.phrase_count == 1
    assert log.move_count == 1
    assert log.position_at(ref, 1) == (1, 2)


def test_build_log_invariants_random():
    rng = random.Random(6)
    for _ in range(60):
        steps = rng.randint(0, 120)
        x, y = rng.randint(0, 50), rng.randint(0, 50)
        positions = [(x, y)]
        for _ in range(steps):
            x += rng.randint(-3, 3)
            y += rng.randint(-3, 3)
            positions.append((x, y))
        t_s = rng.randint(0, 40)
        log, ref = build_simple_log(positions, t_s=t_s, oid=9)
        z = log.phrase_count
        assert log.phrase_count == z == len(log.phrase_starts)
        assert len(log.prev_positions) == z
        assert log.start_time == t_s and log.end_time == t_s + steps
        # prev chain consistency
        if z:
            assert log.prev_positions[0] == log.start_pos
        for j in range(1, z + 1):
            first, last = log.phrase_first(j), log.phrase_last(j)
            start = log.phrase_starts[j - 1]
            dx, dy = ref.movement(start - 1, start - 1 + (last - first + 1))
            px, py = log.prev_positions[j - 1]
            nxt = (px + dx, py + dy)
            if j < z:
                assert log.prev_positions[j] == nxt
            assert log.x_mins[j - 1] <= log.x_maxs[j - 1]
            assert log.y_mins[j - 1] <= log.y_maxs[j - 1]
            for off in range(first, last + 1):
                ax, ay = positions[off]
                assert log.x_mins[j - 1] <= ax <= log.x_maxs[j - 1]
                assert log.y_mins[j - 1] <= ay <= log.y_maxs[j - 1]
        # replay reproduces the raw positions
        for off in range(steps + 1):
            assert log.position_at(ref, off) == positions[off]


def test_build_log_rejects_empty():
    ref = Reference([(0, 0)])
    with pytest.raises(ValueError):
        build_log(1, 0, [], ref)


def test_logs_sharing_one_table_stay_within_their_rows():
    # several logs in one table put every log but the first at base > 0; the
    # single-position logs own no rows, so a bisect past its bounds would
    # read a neighbour's phrases
    rng = random.Random(7)
    walks = []
    for n in (1, 30, 1, 55, 2, 1, 40):
        x, y = rng.randint(0, 30), rng.randint(0, 30)
        positions = [(x, y)]
        for _ in range(n - 1):
            x += rng.randint(-2, 2)
            y += rng.randint(-2, 2)
            positions.append((x, y))
        walks.append(positions)
    ref = build_reference([[(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(w, w[1:])] for w in walks],
                          Fraction(1, 4), 4)
    matcher = ReferenceMatcher(ref.ids)
    table = PhraseTable()
    logs = [build_log(oid, 0, w, ref, matcher, table) for oid, w in enumerate(walks)]
    table.seal()
    assert [log.base for log in logs] == [sum(other.phrase_count for other in logs[:i]) for i in range(len(logs))]
    for log, walk in zip(logs, walks):
        ids = [ref.symbol_id((x1 - x0, y1 - y0)) for (x0, y0), (x1, y1) in zip(walk, walk[1:])]
        phrase_at = [0]  # naive scan: the phrase of every offset, from the parse
        for j, ph in enumerate(matcher.parse(ids), 1):
            phrase_at += [j] * ph.length
        assert log.move_count == len(walk) - 1 and log.phrase_count == phrase_at[-1]
        for j in range(1, log.phrase_count + 1):
            assert log.phrase_first(j) == phrase_at.index(j)
            assert log.phrase_last(j) == len(phrase_at) - 1 - phrase_at[::-1].index(j)
        for off in range(log.move_count + 1):
            assert log.phrase_of(off) == phrase_at[off]
            assert log.position_at(ref, off) == walk[off]
        for ws in range(1, log.phrase_count + 1):
            for we in range(ws, log.phrase_count + 1):
                reached = walk[log.phrase_first(ws) : log.phrase_last(we) + 1]
                xs, ys = [x for x, _ in reached], [y for _, y in reached]
                assert log.phrase_box(ws, we) == (min(xs), min(ys), max(xs), max(ys))
        rows = range(log.base, log.base + log.phrase_count)
        for lo in range(1, log.move_count + 1):
            for hi in range(lo, log.move_count + 1):
                positions, at = [], lo
                for row, first, last, step, dx, dy in log.walk(ref, lo, hi):
                    assert row in rows and first == at and first <= last <= hi
                    assert phrase_at[first] == phrase_at[last] == row - log.base + 1
                    steps = range(step, step + last - first + 1)
                    positions += [(dx + ref.cum_x[t], dy + ref.cum_y[t]) for t in steps]
                    at = last + 1
                assert at == hi + 1 and positions == walk[lo : hi + 1]
