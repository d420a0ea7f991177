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
