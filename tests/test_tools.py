"""The fixed-seed output writer that two checkouts are compared by."""

import filecmp
import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "fixed_seed_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fixed_seed_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def same_tree(a: pathlib.Path, b: pathlib.Path) -> bool:
    """Whether ``a`` and ``b`` hold the same file names and bytes, recursively (``diff -r``)."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(same_tree(a / d, b / d) for d in cmp.common_dirs)


def test_fixed_seed_outputs_run_clean_and_repeat(tmp_path, capsys):
    tool = load_tool()
    names = [name for name, _ in tool.runs()]
    assert len(names) == len(set(names)) == 27
    for out in ("first", "second"):
        assert tool.main([str(tmp_path / out)]) == 0
    for name in names:
        lines = (tmp_path / "first" / name / "stdout.txt").read_text().splitlines()
        assert lines[-1] == "exit 0", (name, lines)
    assert capsys.readouterr().out.count(": exit 0\n") == 2 * 27
    hashes = (tmp_path / "first" / "state_hashes.txt").read_text().splitlines()
    assert [line.split()[0] for line in hashes] == [
        "table_8192_direct", "table_8192_direct_counts", "table_8192_direct_complex64",
        "table_8192_direct_float64", "table_8192_direct_float64_counts", "table_8192_direct_float32",
        "table_8192_controlled", "table_8192_controlled_counts", "table_8192_controlled_complex64",
        "table_8192_controlled_float64", "table_8192_controlled_float64_counts",
        "table_8192_controlled_float32",
        "ising_4x4_direct", "ising_4x4_direct_complex64", "ising_4x4_direct_float64",
        "ising_4x4_direct_float32",
        "ising_4x4_controlled", "ising_4x4_controlled_complex64", "ising_4x4_controlled_float64",
        "ising_4x4_controlled_float32"]
    assert all(len(line.split()[-1]) == 64 for line in hashes)
    assert same_tree(tmp_path / "first", tmp_path / "second")
