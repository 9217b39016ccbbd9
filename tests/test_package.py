import fairwalks


def test_every_exported_name_is_bound():
    assert [name for name in fairwalks.__all__ if not hasattr(fairwalks, name)] == []
