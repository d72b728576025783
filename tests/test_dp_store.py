"""The DP table's per-key columns and their encoded free-key column, the
flat split layouts that every table in a process shares, and each table's
own split map.

Key i's five columns (cost, cw, perm, choice, free) are the table: they
hold the rows of [i, i], [i, i+1], ... in order, the row of [i, j] from
``off[j - i]``, so a left side's position in a layout indexes them."""
import inspect
import random
import struct
import tracemalloc

import pytest

from cstlab import model
from cstlab.bench import build_instance
from cstlab.falsify import random_instance
from cstlab.model import Interval
from test_dp_reference import SEEDS_PER_WMAX, TABLES, _assert_same_cells


def _rows(table):
    """Each [i, j] inside the table's root and its five rows, sliced from
    key i's columns."""
    off = table._off
    lo, hi = table.interval.i, table.interval.j
    return {
        (i, j): tuple(col[off[j - i] : off[j - i + 1]] for col in table._cols[i])
        for i in range(lo, hi + 1)
        for j in range(i, hi + 1)
    }


def _reference_seeds():
    """The instances and intervals of ``test_dp_reference``."""
    for wmax in (1, 3, 16, 1000):
        for seed in range(SEEDS_PER_WMAX):
            n = 1 + seed % 13
            inst = random_instance(n, wmax, 9100 + seed)
            yield inst, None
            rng = random.Random(seed)
            i = rng.randint(1, n)
            yield inst, Interval(i, rng.randint(i, n))
    yield random_instance(24, 1000, 9400), None
    for name in ("I9", "I15", "I31"):
        yield build_instance(name).instance, None


@pytest.mark.parametrize("name", sorted(TABLES))
def test_free_is_the_least_unplaced_rank(name):
    """free[h] is fk of the lowest rank of [i, j] minus the keys cell h
    places, w * (n + 1) + key, and fk of rank n, the sentinel
    (wmax + 1) * (n + 1), exactly when the cell places every key."""
    for inst, interval in _reference_seeds():
        table = TABLES[name][0](inst, interval)
        # Rank r is the r-th key by ascending (weight, index).
        by_weight = sorted(range(1, inst.n + 1), key=lambda k: (inst.weight(k), k))
        rank_of = {key: rank for rank, key in enumerate(by_weight)}
        scale = inst.n + 1
        fk = [inst.weight(k) * scale + k for k in by_weight]
        fk.append((max(inst.weights) + 1) * scale)
        for (i, j), (_, _, used_perm, _, free) in _rows(table).items():
            assert len(free) == len(used_perm)
            for h, placed in enumerate(used_perm):
                unplaced = [
                    rank_of[k] for k in range(i, j + 1) if not placed >> rank_of[k] & 1
                ]
                want = min(unplaced, default=inst.n)
                assert free[h] == fk[want], (name, inst.weights, (i, j, h))


def _candidates(length, min_queries, h):
    """The split candidates (size_l, h1, h2) of cell h of an interval of
    *length* keys, in the order the fill tries them: each side keeps
    ``min_queries`` keys and h1 + h2 = h + 1 - min_queries."""
    m = min_queries
    return [
        (size_l, h1, h + 1 - m - h1)
        for size_l in range(1, length)
        for h1 in range(size_l + 1 - m)
        if 0 <= h + 1 - m - h1 <= length - size_l - m
    ]


def _decode(length, min_queries, layout):
    """A flat layout read back as per-h lists of (size_l, h1, h2): bounds
    tile both position tuples in h order, and a left and a right position
    name rows of the same split.  Both sides' rows run by ascending size."""
    m = min_queries
    at_l, at_r, bounds = layout
    left = right = [(size, h) for size in range(1, length) for h in range(size + 1 - m)]
    ends = [0] + [b for _, b in bounds]
    assert [a for a, _ in bounds] == ends[:-1]
    assert len(at_l) == len(at_r) == ends[-1]
    per_h = []
    for a, b in bounds:
        cell = []
        for p, q in zip(at_l[a:b], at_r[a:b]):
            (size_l, h1), (size_r, h2) = left[p], right[q]
            assert size_l + size_r == length
            cell.append((size_l, h1, h2))
        per_h.append(cell)
    return per_h


@pytest.mark.parametrize("min_queries", [0, 1])
def test_flat_layout_lists_every_candidate_of_every_cell(min_queries):
    """Cell h's slice of the flat position tuples holds its split
    candidates, each once and in fill order, for every h of the interval."""
    for length in range(1, 16):
        layout = model._split_gathers(length, min_queries)
        want = [_candidates(length, min_queries, h) for h in range(length - min_queries)]
        assert _decode(length, min_queries, layout) == want, length


def test_shared_layouts_leave_every_cell_unchanged(monkeypatch):
    """Interleaved HW and Spuler fills of several lengths, with a cap low
    enough that some lengths are cached and others rebuilt per table, give
    the reference cells.  A cached flat layout is reused as the same object,
    equals a fresh build after the fills, and no layout above the cap is
    kept."""
    cap = 12
    monkeypatch.setattr(model, "_LAYOUTS", {})
    monkeypatch.setattr(model, "LAYOUT_CACHE_MAX_LENGTH", cap)
    i31 = build_instance("I31").instance
    sequence = [
        ("hw", random_instance(24, 1000, 9401)),
        ("spuler", random_instance(5, 16, 9402)),
        ("hw", i31),
        ("spuler", i31),
        ("hw", random_instance(1, 3, 9403)),
        ("spuler", random_instance(13, 3, 9404)),
        ("hw", random_instance(13, 16, 9405)),
        ("spuler", random_instance(24, 1000, 9406)),
    ]
    first = None
    for name, inst in sequence:
        _assert_same_cells(name, inst)
        if first is None:
            first = dict(model._LAYOUTS)
    assert max(length for length, _ in model._LAYOUTS) == cap
    assert {m for _, m in model._LAYOUTS} == {0, 1}
    for key, layout in first.items():
        assert model._LAYOUTS[key] is layout
        assert model._split_gathers(*key) is layout
    cached = dict(model._LAYOUTS)
    monkeypatch.setattr(model, "_LAYOUTS", {})
    monkeypatch.setattr(model, "LAYOUT_CACHE_MAX_LENGTH", 0)
    for key, layout in cached.items():
        assert model._split_gathers(*key) == layout
    assert model._LAYOUTS == {}


def test_cached_layouts_fit_the_memory_budget(monkeypatch):
    """The flat layouts up to the cap, for both DPs, take under 3 MB, and
    one length more would not: the cap is the most the budget allows."""
    cap = model.LAYOUT_CACHE_MAX_LENGTH
    monkeypatch.setattr(model, "_LAYOUTS", {})
    monkeypatch.setattr(model, "LAYOUT_CACHE_MAX_LENGTH", cap + 1)
    sizes = []
    tracemalloc.start()
    try:
        for length in range(1, cap + 2):
            for min_queries in (0, 1):
                model._split_gathers(length, min_queries)
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[-2] < 3_000_000 <= sizes[-1]


def test_gatherer_returns_a_tuple_for_any_count():
    """``itemgetter`` takes at least one position and returns a bare item
    for one; the fill's gatherer returns a tuple for 0, 1 and more."""
    row = [5, 6, 7]
    assert model._gatherer(())(row) == ()
    assert model._gatherer((1,))(row) == (6,)
    assert model._gatherer((2, 0, 2))(row) == (7, 5, 7)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_uncached_and_tiny_layouts_give_the_reference_cells(name, monkeypatch):
    """With no layout cached, every table builds its own, down to the ones
    with 0 or 1 candidates: HW's length 1 (the equality candidate alone)
    and Spuler's length 2 (one split).  Small instances, wmax 1 among them
    where ties are common, and roots of one and two keys match the
    reference cell for cell."""
    monkeypatch.setattr(model, "_LAYOUTS", {})
    monkeypatch.setattr(model, "LAYOUT_CACHE_MAX_LENGTH", 0)
    assert model._split_gathers(1, 0) == ((), (), ((0, 0),))
    assert model._split_gathers(2, 1) == ((0,), (0,), ((0, 1),))
    for wmax in (1, 2, 1000):
        for n in range(1, 9):
            for seed in range(3):
                inst = random_instance(n, wmax, 9500 + 10 * n + seed)
                _assert_same_cells(name, inst)
                _assert_same_cells(name, inst, Interval(n, n))
                _assert_same_cells(name, inst, Interval(1, min(2, n)))
    assert model._LAYOUTS == {}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_split_map_covers_a_table_longer_than_the_cap(name):
    """The root length is past the cap, so its layout is built per table;
    the winners read their (s, h1) from the table's one split map, and each
    root-interval cell's rebuilt tree is valid and has the cell's cost and
    the weight its cost + weight row stores, times n + 1."""
    inst = random_instance(model.LAYOUT_CACHE_MAX_LENGTH + 1, 1000, 9407)
    table = TABLES[name][0](inst)
    full = inst.full_interval()
    cost_row, cw_row = _rows(table)[(1, inst.n)][:2]
    for h in range(inst.n + 1 - table.min_queries):
        r = table.result(1, inst.n, h)
        assert model.validate(r.tree, full, r.holes_in(full), inst).ok, h
        got = (model.tree_cost(r.tree, inst), model.tree_weight(r.tree, inst))
        assert got == (r.cost, cw_row[h] // (inst.n + 1) - cost_row[h]), h


@pytest.mark.parametrize("name", sorted(TABLES))
def test_inner_root_past_the_cap_matches_the_full_table(name):
    """An inner root longer than the cap builds its layouts per table and
    starts its per-key columns past key 1; every interval inside it has
    the full-instance table's five row entries."""
    inst = random_instance(45, 1000, 9408)
    lo, hi = 4, 42
    assert hi - lo + 1 > model.LAYOUT_CACHE_MAX_LENGTH
    cls = TABLES[name][0]
    inner, full = _rows(cls(inst, Interval(lo, hi))), _rows(cls(inst))
    assert len(inner) == (hi - lo + 1) * (hi - lo + 2) // 2
    for (i, j), entry in inner.items():
        assert lo <= i <= j <= hi
        assert entry == full[(i, j)], (i, j)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_fill_drops_the_stores_it_has_read_for_the_last_time(name):
    """A fill's tracemalloc peak stays under 1.4 times the table it leaves
    (1.32-1.35 on these 36 keys): each key's end stores go once the longest
    interval to it is filled.  Kept to the end of the fill, they peak at
    1.42-1.45 times the table.  The cached layouts, up to 36 keys, are built
    before the measured fill."""
    cls = TABLES[name][0]
    inst = random_instance(36, 1000, 9409)
    cls(inst)
    tracemalloc.start()
    try:
        table = cls(inst)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table._cols[1]
    assert peak < 1.4 * retained, (peak, retained)


def _store_lines():
    """The lines of ``DpTable._fill`` that extend key j's end stores."""
    lines, first = inspect.getsourcelines(model.DpTable._fill)
    found = [
        first + k
        for k, line in enumerate(lines)
        if line.lstrip().startswith(("cw_to[j] +=", "free_to[j] +="))
    ]
    assert len(found) == 2
    return found


@pytest.mark.parametrize("name", sorted(TABLES))
def test_only_the_last_key_keeps_its_stores_at_the_root(name, monkeypatch):
    """When the fill reaches the root interval, every key but the last has
    had its end stores read for the last time and dropped.  The memory the
    two store-extending lines still hold is then key hi's two stores: two
    pointers per row entry of [2, hi], ..., [hi, hi], plus list
    over-allocation and the freed list headers (a freelist) that
    tracemalloc still charges to those lines.  On these 36 keys it reads
    15.9 KB (HW) and 10.8 KB (Spuler); with no store dropped, 150 KB and
    140 KB.  The bound is three times the pointers: 31.9 KB and 30.2 KB."""
    cls = TABLES[name][0]
    n = 36
    inst = random_instance(n, 1000, 7)
    m = cls.min_queries
    root_candidates = len(model._split_gathers(n, m)[0])
    lines = _store_lines()
    snapshots = []
    best_split = cls._best_split

    def first_root_call_snapshots(self, bases, *rest):
        if not snapshots and len(bases) == root_candidates:
            snapshots.append(tracemalloc.take_snapshot())
        return best_split(self, bases, *rest)

    monkeypatch.setattr(cls, "_best_split", first_root_call_snapshots)
    tracemalloc.start()
    try:
        table = cls(inst)
    finally:
        tracemalloc.stop()
    [snapshot] = snapshots
    live = sum(
        stat.size
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, model.__file__, line) for line in lines]
        ).statistics("lineno")
    )
    entries = table._off[n - 1]  # the rows of [i, hi] for i = 2..hi
    assert 0 < live < 3 * 2 * struct.calcsize("P") * entries, (live, entries)
