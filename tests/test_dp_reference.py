"""Differential tests: the HW and Spuler table fills must reproduce every
cell of the reference fills in ``reference_dps`` (cost, weight, used keys,
tree and backpointer), ties included."""
import random

import pytest

import reference_dps as ref
from cstlab.bench import build_instance
from cstlab.falsify import random_instance
from cstlab.hw import HwTable
from cstlab.model import Instance, Interval, mask_of, tree_weight
from cstlab.spuler import SpulerTable

TABLES = {"hw": (HwTable, ref.HwTable), "spuler": (SpulerTable, ref.SpulerTable)}
SEEDS_PER_WMAX = 60


def _assert_same_cells(name, inst, interval=None):
    """Every i <= j cell of the reference grid, and no other, is a cell of
    the table, with equal cost, weight, used keys, tree and backpointer."""
    table_cls, ref_cls = TABLES[name]
    table = table_cls(inst, interval)
    reference = ref_cls(inst, interval)
    where = (name, inst.weights, interval)
    expected = sorted(
        (i, j, h) for (i, j), row in reference._grid.items() if i <= j for h in range(len(row))
    )
    assert sorted(table.cells()) == expected, where
    for i, j, h in expected:
        cost, weight, used_mask, _, tree, choice = reference._grid[(i, j)][h]
        if name == "spuler" and choice is not None:  # ("eq", e) or ("lt", s, h1, h2)
            choice = (i, 0, h + 1, choice[1]) if choice[0] == "eq" else (*choice[1:], None)
        r = table.result(i, j, h)
        iv = Interval(i, j)
        used = iv.mask() & ~mask_of(r.holes_in(iv))
        weight_got = tree_weight(r.tree, inst)
        got = (table.cost(i, j, h), r.cost, weight_got, used, r.tree, table.choice(i, j, h))
        assert got == (cost, cost, weight, used_mask, tree, choice), (where, (i, j, h))


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("wmax", [1, 3, 16, 1000])
def test_random_instances_full_and_inner_intervals(name, wmax):
    """Low wmax and the zero-weight mass of random_instance make ties and
    zero weights frequent."""
    for seed in range(SEEDS_PER_WMAX):
        n = 1 + seed % 13
        inst = random_instance(n, wmax, 9100 + seed)
        _assert_same_cells(name, inst)
        rng = random.Random(seed)
        i = rng.randint(1, n)
        _assert_same_cells(name, inst, Interval(i, rng.randint(i, n)))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_long_random_instance(name):
    """24 keys with many distinct weights, unlike I31's few."""
    _assert_same_cells(name, random_instance(24, 1000, 9400))


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("instance", ["I9", "I15", "I31"])
def test_named_instances(name, instance):
    _assert_same_cells(name, build_instance(instance).instance)


def _instance(weights):
    return Instance(tuple(f"K{k:02d}" for k in range(1, len(weights) + 1)), tuple(weights))


# Weights times 2^70, so HW's encoded scores, cost * (n + 1) + key, pass
# 2^64; 20 equal weights, so every split of a cell ties on cost and the
# root key and then the split order decide; mostly zero weights, so most
# intervals' least key weighs 0 and HW's prune bound on a free key is the
# key alone.
EDGE_WEIGHTS = {
    "past_64_bits": _instance([w << 70 for w in random_instance(14, 1000, 9410).weights]),
    "equal": _instance([7] * 20),
    "mostly_zero": _instance([0, 4, 0, 0, 7, 0, 1, 0, 0, 3, 0, 0, 0, 2, 0, 0]),
}


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("instance", sorted(EDGE_WEIGHTS))
def test_edge_weights(name, instance):
    _assert_same_cells(name, EDGE_WEIGHTS[instance])
