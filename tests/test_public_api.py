import dpgb


def test_every_exported_name_resolves():
    # `import dpgb` succeeds even when __all__ names something that is gone
    missing = [name for name in dpgb.__all__ if not hasattr(dpgb, name)]
    assert missing == []
    assert len(set(dpgb.__all__)) == len(dpgb.__all__)
