"""Tests for user-defined layer tables (``sweep --model-file``)."""

import json

import pytest

from repro.dnn.layers import ConvLayer, LinearLayer
from repro.dnn.models import (
    BUILTIN_MODELS,
    get_model,
    load_model_file,
    model_from_dict,
    register_model,
)
from repro.errors import WorkloadError

VALID = {
    "name": "TableNet",
    "activation_sparsity": 0.2,
    "prunability": 0.6,
    "layers": [
        {"type": "linear", "name": "fc1", "in_features": 64,
         "out_features": 128, "tokens": 32, "repeats": 2},
        {"type": "conv", "name": "c1", "in_channels": 8,
         "out_channels": 16, "kernel": 3, "input_size": 16,
         "stride": 1, "padding": 1},
    ],
    "prunable": ["fc1"],
}


def _copy():
    return json.loads(json.dumps(VALID))


class TestModelFromDict:
    def test_valid_table(self):
        model = model_from_dict(VALID)
        assert model.name == "TableNet"
        assert isinstance(model.layers[0], LinearLayer)
        assert isinstance(model.layers[1], ConvLayer)
        assert model.prunable == ("fc1",)
        assert model.activation_sparsity == pytest.approx(0.2)
        assert model.layers[0].repeats == 2

    def test_defaults_applied(self):
        data = _copy()
        del data["activation_sparsity"]
        del data["prunability"]
        del data["prunable"]
        model = model_from_dict(data)
        assert model.activation_sparsity == 0.0
        assert model.prunable == ("fc1", "c1")

    def test_missing_toplevel_field(self):
        data = _copy()
        del data["layers"]
        with pytest.raises(WorkloadError, match="missing field"):
            model_from_dict(data)

    def test_unknown_toplevel_field(self):
        data = _copy()
        data["optimizer"] = "sgd"
        with pytest.raises(WorkloadError, match="unknown field"):
            model_from_dict(data)

    def test_missing_layer_field_names_required_set(self):
        data = _copy()
        del data["layers"][0]["in_features"]
        with pytest.raises(WorkloadError) as info:
            model_from_dict(data)
        assert "in_features" in str(info.value)
        assert "required" in str(info.value)

    def test_unknown_layer_type(self):
        data = _copy()
        data["layers"][0]["type"] = "attention"
        with pytest.raises(WorkloadError, match="conv"):
            model_from_dict(data)

    def test_non_integer_shape_rejected(self):
        data = _copy()
        data["layers"][0]["in_features"] = "sixty-four"
        with pytest.raises(WorkloadError, match="integer"):
            model_from_dict(data)

    def test_duplicate_layer_names_rejected(self):
        data = _copy()
        data["layers"][1]["name"] = "fc1"
        with pytest.raises(WorkloadError, match="duplicate"):
            model_from_dict(data)

    def test_prunable_must_name_real_layers(self):
        data = _copy()
        data["prunable"] = ["fc1", "ghost"]
        with pytest.raises(WorkloadError, match="ghost"):
            model_from_dict(data)

    def test_layer_constraints_still_apply(self):
        data = _copy()
        data["layers"][1]["groups"] = 3  # 8 % 3 != 0
        with pytest.raises(WorkloadError, match="groups"):
            model_from_dict(data)


class TestPaddingValidation:
    def test_negative_padding_rejected(self):
        data = _copy()
        data["layers"][1]["padding"] = -1
        with pytest.raises(WorkloadError, match="padding"):
            model_from_dict(data)

    def test_fractional_padding_rejected(self):
        data = _copy()
        data["layers"][1]["padding"] = 1.5
        with pytest.raises(WorkloadError, match="must be an integer"):
            model_from_dict(data)


class TestLoadModelFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(VALID))
        assert load_model_file(path).name == "TableNet"

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "net.json"
        data = _copy()
        del data["name"]
        path.write_text(json.dumps(data))
        with pytest.raises(WorkloadError, match="net.json"):
            load_model_file(path)

    def test_invalid_json_is_loud(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{oops")
        with pytest.raises(WorkloadError, match="not valid JSON"):
            load_model_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot read"):
            load_model_file(tmp_path / "nope.json")


@pytest.mark.usefixtures("scratch_models")
class TestRegisterModel:
    """Runs on a scratch model registry, so nothing registered here
    leaks into other tests."""

    def test_registered_model_resolves_by_name(self):
        register_model(model_from_dict(VALID))
        assert get_model("tablenet").name == "TableNet"

    def test_shadowing_requires_replace(self):
        model = model_from_dict(VALID)
        register_model(model)
        with pytest.raises(WorkloadError, match="already registered"):
            register_model(model)
        register_model(model, replace=True)

    def test_collision_check_is_case_insensitive(self):
        """get_model resolves case-insensitively, so a case-variant
        that registered would be unreachable — the collision check
        must catch it."""
        data = _copy()
        register_model(model_from_dict(data))
        data["name"] = "tablenet"
        with pytest.raises(WorkloadError, match="already registered"):
            register_model(model_from_dict(data))

    def test_replace_drops_the_old_case_variant(self, scratch_models):
        """Replacing under a new spelling must not leave two
        case-variant keys behind (one would be unreachable)."""
        data = _copy()
        register_model(model_from_dict(data))
        data["name"] = "TABLENET"
        register_model(model_from_dict(data), replace=True)
        assert scratch_models.names() == BUILTIN_MODELS + ("TABLENET",)
        assert get_model("tablenet").name == "TABLENET"

    @pytest.mark.parametrize(
        "name", ["ResNet50", "resnet50", "DEIT-SMALL"]
    )
    def test_builtins_cannot_be_shadowed(self, name, scratch_models):
        """Builtins are refused outright — replace=True does not
        override, and every case variant is caught."""
        data = _copy()
        data["name"] = name
        model = model_from_dict(data)
        for replace in (False, True):
            with pytest.raises(WorkloadError, match="built-in"):
                register_model(model, replace=replace)
        assert scratch_models.names() == BUILTIN_MODELS
        assert get_model(name).name in BUILTIN_MODELS

    def test_builtin_inventory(self):
        from repro.dnn.models import BUILTIN_MODELS, is_builtin_model

        assert BUILTIN_MODELS == (
            "ResNet50", "DeiT-small", "Transformer-Big",
            "EfficientNet-B0",
        )
        assert is_builtin_model("efficientnet-b0")
        assert not is_builtin_model("TableNet")
