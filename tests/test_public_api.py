import ast
from pathlib import Path

import dpgb


def test_every_exported_name_resolves():
    # `import dpgb` succeeds even when __all__ names something that is gone
    missing = [name for name in dpgb.__all__ if not hasattr(dpgb, name)]
    assert missing == []
    assert len(set(dpgb.__all__)) == len(dpgb.__all__)


def test_the_columnar_path_replaces_the_dict_path():
    # records and per-user vectors are numpy columns; the per-record and
    # per-vector Python objects are gone from the package
    for name in ("UserCells", "user_cells", "l1_norms", "GroundTruth"):
        assert name in dpgb.__all__
    for name in ("TripRecord", "SparseHistogram", "user_histogram"):
        assert name not in dpgb.__all__
        assert not hasattr(dpgb, name) and not hasattr(dpgb.schema, name)
    assert not hasattr(dpgb.ScaleMatrix, "per_cell") and not hasattr(dpgb.ScaleMatrix, "factor")


def _top_level_imports(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_top_level_import_is_used_or_exported():
    # a deletion cannot leave an import behind that only it read
    dead = []
    for path in sorted(Path(dpgb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        dead += [f"{path.name}: {name}" for name in _top_level_imports(tree) if name not in used]
    assert dead == []


def test_what_no_output_reads_is_gone():
    # curve.dat repeated sweep_agg.csv; the rest had one caller or none
    from dpgb import aggregation, evaluation, schema
    assert not hasattr(evaluation, "write_curve_data")
    assert not hasattr(schema, "write_kv_file") and not hasattr(aggregation, "write_ledger")
    assert not hasattr(aggregation, "PrivacyLedger") and not hasattr(dpgb.ScaleMatrix, "is_ones")
    for cls, name in ((dpgb.WeekDataset, "week_id"), (evaluation.SweepRow, "seed"),
                      (dpgb.EvalReport, "plan")):
        assert name not in cls.__dataclass_fields__
