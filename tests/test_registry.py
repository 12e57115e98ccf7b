"""Tests for the registry layer: the contract every
:class:`~repro.registry.Registry` instance keeps, then the design
registry's own behaviour."""

import pytest

from repro.accelerators import (
    REGISTRY,
    AcceleratorDesign,
    DesignInfo,
    all_designs,
    main_design_names,
    register_design,
)
from repro.analysis import RULES, RuleInfo
from repro.dnn.models import MODELS, ModelInfo, resnet50
from repro.errors import EvaluationError, LintError, WorkloadError
from repro.eval.artifacts import ARTIFACTS, ArtifactInfo
from repro.registry import Registry, RegistryError


def _design(name):
    return DesignInfo(name, object)


def _artifact(name):
    return ArtifactInfo(
        name=name, compute=lambda ctx: None, result_type=object,
        render_text=str,
    )


def _rule(name):
    return RuleInfo(
        id=name, name=name.lower(), category="demo", severity="error",
        fixable=False, check=lambda ctx: [],
    )


def _model(name):
    return ModelInfo(name, resnet50)


#: (process-wide registry, item factory, its collision exception).
CONTRACT = [
    pytest.param(REGISTRY, _design, RegistryError, id="designs"),
    pytest.param(ARTIFACTS, _artifact, EvaluationError, id="artifacts"),
    pytest.param(RULES, _rule, LintError, id="rules"),
    pytest.param(MODELS, _model, WorkloadError, id="models"),
]


@pytest.mark.parametrize("registry, make, error", CONTRACT)
class TestRegistryContract:
    """Every registry is the same type with the same contract; each
    check runs on a clone so the process-wide registries stay as
    they are."""

    def test_duplicate_name_raises(self, registry, make, error):
        scratch = registry.clone()
        incumbent = registry.names()[0]
        with pytest.raises(error, match="already registered"):
            scratch.register(make(incumbent))
        assert scratch.infos() == registry.infos()

    def test_unknown_name_raises_keyerror_listing_names(
        self, registry, make, error
    ):
        with pytest.raises(KeyError) as caught:
            registry["NOSUCHNAME"]
        message = caught.value.args[0]
        assert "NOSUCHNAME" in message
        assert all(name in message for name in registry.names())
        assert registry.get("NOSUCHNAME") is None
        assert "NOSUCHNAME" not in registry

    def test_iteration_follows_registration_order(
        self, registry, make, error
    ):
        scratch = registry.clone()
        scratch.register(make("ZZB"))
        scratch.register(make("ZZA"))
        expected = list(registry.names()) + ["ZZB", "ZZA"]
        assert list(scratch) == expected
        assert list(scratch.names()) == expected
        assert [scratch.key(i) for i in scratch.infos()] == expected
        assert len(scratch) == len(registry) + 2
        assert "ZZB" not in registry

    def test_skip_keeps_incumbent_and_replace_keeps_newcomer(
        self, registry, make, error
    ):
        scratch = registry.clone()
        first, second, third = make("ZZA"), make("ZZA"), make("ZZA")
        assert scratch.register(first) is first
        assert scratch.register(second, on_collision="skip") is first
        assert scratch["ZZA"] is first
        assert scratch.register(second, on_collision="replace") is second
        assert scratch["ZZA"] is second
        with scratch.scanning("skip"):
            assert scratch.register(third) is second
        with pytest.raises(error, match="already registered"):
            scratch.register(third)
        assert scratch.names().count("ZZA") == 1

    def test_unknown_collision_mode_rejected(self, registry, make, error):
        scratch = registry.clone()
        with pytest.raises(error, match="collision mode"):
            scratch.register(make("ZZA"), on_collision="merge")
        with pytest.raises(error, match="collision mode"):
            with scratch.scanning("merge"):
                pass


class TestDefaultRegistry:
    def test_all_six_designs_registered(self):
        assert set(REGISTRY.names()) == {
            "TC", "STC", "S2TA", "DSTC", "HighLight", "DSSO",
        }

    def test_main_design_names_in_table4_order(self):
        assert main_design_names() == (
            "TC", "STC", "DSTC", "S2TA", "HighLight",
        )

    def test_all_designs_matches_registry(self):
        designs = all_designs()
        assert tuple(d.name for d in designs) == main_design_names()
        assert all(isinstance(d, AcceleratorDesign) for d in designs)

    def test_create_returns_fresh_instances(self):
        assert REGISTRY["TC"].create() is not REGISTRY["TC"].create()

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="NoSuchDesign"):
            REGISTRY["NoSuchDesign"]
        with pytest.raises(KeyError):
            REGISTRY["NoSuchDesign"].create()

    def test_get_returns_none_for_unknown(self):
        assert REGISTRY.get("NoSuchDesign") is None

    def test_metadata_filtering_dual_side(self):
        dual = {i.name for i in REGISTRY.filter(sparsity_side="dual")}
        assert dual == {"S2TA", "DSTC", "DSSO"}

    def test_metadata_filtering_conjunction(self):
        infos = REGISTRY.filter(sparsity_side="dual", category="hss")
        assert [i.name for i in infos] == ["DSSO"]

    def test_filter_on_missing_key_matches_nothing(self):
        assert REGISTRY.filter(nonexistent_key="x") == []

    def test_dsso_marked_as_study_design(self):
        info = REGISTRY["DSSO"]
        assert info.metadata["study"] == "sec7.5"
        assert info.metadata["main_evaluation"] is False
        assert "DSSO" not in main_design_names()

    def test_contains_and_len(self):
        assert "HighLight" in REGISTRY
        assert "NoSuchDesign" not in REGISTRY
        assert len(REGISTRY) == 6


class TestRegistryMechanics:
    def test_decorator_registration(self):
        registry = Registry("design")

        @register_design(registry, category="test", flag=1)
        class Dummy:
            name = "Dummy"

        assert "Dummy" in registry
        assert registry["Dummy"].metadata == {
            "category": "test", "flag": 1,
        }
        assert isinstance(registry["Dummy"].create(), Dummy)
