"""The exhibit tree files: each parses to the tree built node by node in
``reference_exhibits``, and ``cstlab render`` reads each one."""
import pytest

import reference_exhibits as ref
from cstlab import bench
from cstlab.cli import main
from cstlab.model import format_instance
from cstlab.render import FORMATS

# exhibit name -> (instance it is checked against, reference constructor)
_CASES = {
    "fig1": (bench.build_instance("fig1").instance, ref.fig1_tree),
    "fig2_a": (bench.build_instance("I9").instance, ref.fig2_tree_a),
    "fig2_b": (bench.build_instance("I9").instance, ref.fig2_tree_b),
    "fig3": (bench.build_instance("I31").instance, ref.fig3_witness_tree),
    "fig4_a": (bench.build_instance("I8").instance, ref.fig4_tree_a),
    "fig4_b": (bench.build_instance("I8").instance, ref.fig4_tree_b),
    "fig4_c": (bench.build_instance("I8").instance, ref.fig4_tree_c),
    "fig5_a": (bench._prefix_instance(10), ref.fig5_tree_a),
    "fig5_b": (bench._prefix_instance(10), ref.fig5_tree_b),
    "fig6": (bench.build_instance("I15").instance, ref.fig6_witness_tree),
}


def test_every_exhibit_has_a_reference():
    assert sorted(bench.EXHIBITS) == sorted(_CASES)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_exhibit_equals_reference_tree(name):
    inst, build = _CASES[name]
    assert bench.exhibit(name, inst) == build()


def test_fig2_contexts_equal_reference():
    i9 = bench.build_instance("I9").instance
    t2a, t2b = bench.exhibit("fig2_a", i9), bench.exhibit("fig2_b", i9)
    assert bench.fig2_context(5, 3, t2a) == ref.fig2_context(5, 3, ref.fig2_tree_a())
    assert bench.fig2_context(8, 3, t2b) == ref.fig2_context(8, 3, ref.fig2_tree_b())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(_CASES))
def test_render_reads_exhibit_file(name, fmt, tmp_path, capsys):
    inst, _ = _CASES[name]
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(format_instance(inst))
    tree_file = tmp_path / f"{name}.tree"
    tree_file.write_text(bench.EXHIBITS[name])
    rc = main(
        ["render", "--instance", str(inst_file), "--tree", str(tree_file), "--format", fmt]
    )
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out
