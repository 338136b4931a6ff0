"""Attribute-wise offload schema (§4.1)."""


from repro.core import attributes


def test_total_floats_is_59():
    assert attributes.total_floats() == 59


def test_critical_floats_is_10():
    """Position (3) + scale (3) + rotation (4)."""
    assert attributes.critical_floats() == 10


def test_noncritical_floats_is_49():
    """SH (48) + opacity (1)."""
    assert attributes.noncritical_floats() == 49


def test_critical_under_20_percent():
    """§4.1: selection-critical attributes are <20% of the footprint."""
    assert attributes.critical_floats() / attributes.total_floats() < 0.20


def test_schema_names_match_model_parameters():
    from repro.gaussians.model import GaussianModel

    model = GaussianModel.random(2, seed=0)
    schema_names = {a.name for a in attributes.ATTRIBUTE_SCHEMA}
    assert schema_names == set(model.parameters().keys())


def test_critical_names():
    assert set(attributes.CRITICAL_NAMES) == {
        "positions", "log_scales", "quaternions"
    }
    assert set(attributes.NONCRITICAL_NAMES) == {"sh", "opacity_logits"}


def test_padded_row_is_cache_line_multiple():
    """§5.2: rows are cache-line aligned; 49 floats pad to 64."""
    assert attributes.padded_row_floats() == 64
    assert (attributes.padded_row_floats() * 4) % attributes.CACHE_LINE_BYTES == 0


def test_padded_row_custom_sizes():
    assert attributes.padded_row_floats(16) == 16
    assert attributes.padded_row_floats(17) == 32
    assert attributes.padded_row_floats(1) == 16


def test_byte_helpers():
    assert attributes.critical_bytes(10) == 10 * 10 * 4
    assert attributes.noncritical_bytes(10) == 10 * 49 * 4
