"""Catalog contract: every model, loss and transform entry builds from its
minimal parameters, and an unknown or missing parameter key is an
InvalidParams error that names the keys the entry takes."""

import pytest

from equichk import cli, models, transforms
from equichk.errors import InvalidParams
from equichk.models import LOSS_NAMES, MODEL_NAMES, ModelSpec, build_model, loss_family, make_loss
from equichk.transforms import TRANSFORM_NAMES, build_transform


def _model(name, params):
    return build_model(ModelSpec(name, params, seed=1))


def _loss(name, params):
    return make_loss(name, **params)


def _transform_on(spec):
    return lambda name, params: build_transform(name, params, build_model(spec))


_DL221 = ModelSpec("deep_linear", {"widths": [2, 2, 1]}, seed=1)  # d = 6
_FACTORED = ModelSpec("factored_last_layer", {"c": 2, "s": 2}, seed=2)

# kind, name, builder, minimal params (every key required), optional keys
CATALOG = [
    ("model", "homogeneous_relu_mlp", _model, {"widths": [2, 3, 1]}, ("input",)),
    ("model", "deep_linear", _model, {"widths": [2, 3, 1]}, ("input",)),
    ("model", "factored_last_layer", _model, {"c": 2, "s": 2}, ("hidden", "input", "n")),
    ("model", "linear_probe", _model, {"x": [1.0, 2.0]}, ()),
    ("loss", "square", _loss, {"target": 0.3}, ()),
    ("loss", "exponential", _loss, {"label": 1}, ()),
    ("loss", "logistic", _loss, {"label": -1}, ()),
    ("loss", "softmax_xent", _loss, {"n_classes": 3, "label": 1}, ()),
    ("transform", "homogeneity_scaling", _transform_on(_DL221), {}, ()),
    ("transform", "layer_rescaling", _transform_on(_DL221), {"blocks": ["W1", "W2"]}, ()),
    ("transform", "linear_reparam", _transform_on(_DL221),
     {"A": [[0.0, 1.0], [1.0, 0.0]], "blocks": ["W1", "W2"]}, ()),
    ("transform", "last_layer_left_action", _transform_on(_FACTORED), {}, ()),
    ("transform", "mirror", _transform_on(_DL221), {"columns": [[1.0, 0, 0, 0, 0, 0]]}, ()),
    ("transform", "sign_flip", _transform_on(_DL221), {"indices": [0, 3]}, ()),
    ("transform", "permutation", _transform_on(_DL221), {"perm": [1, 0, 3, 2, 4, 5]}, ()),
]
_IDS = [f"{kind}:{name}" for kind, name, *_ in CATALOG]


def _keys(listed: str) -> set:
    """The parameter names of a rendered signature "a, b=default"."""
    return set() if listed == "no parameters" else {p.split("=")[0] for p in listed.split(", ")}


def _named_keys(message: str) -> set:
    """The parameter names of an InvalidParams "<kind> '<name>' takes a,
    b=default: ..." message."""
    return _keys(message.split(" takes ", 1)[1].split(": ", 1)[0])


def test_table_covers_the_catalog():
    for kind, names in (("model", MODEL_NAMES), ("loss", LOSS_NAMES),
                        ("transform", TRANSFORM_NAMES)):
        assert sorted(n for k, n, *_ in CATALOG if k == kind) == sorted(names)


@pytest.mark.parametrize("kind, name, build, params, optional", CATALOG, ids=_IDS)
def test_entry_builds_from_minimal_params(kind, name, build, params, optional):
    assert build(name, dict(params)).name == name


@pytest.mark.parametrize("kind, name, build, params, optional", CATALOG, ids=_IDS)
def test_unknown_key_names_the_allowed_keys(kind, name, build, params, optional):
    with pytest.raises(InvalidParams, match=f"{kind} '{name}' takes .*'zz'") as err:
        build(name, dict(params, zz=1))
    assert _named_keys(str(err.value)) == set(params) | set(optional)


@pytest.mark.parametrize("kind, name, build, params, optional",
                         [c for c in CATALOG if c[3]], ids=[i for i, c in zip(_IDS, CATALOG) if c[3]])
def test_missing_required_key_raises(kind, name, build, params, optional):
    for key in params:
        with pytest.raises(InvalidParams, match=f"missing a required argument: '{key}'"):
            build(name, {k: v for k, v in params.items() if k != key})


@pytest.mark.parametrize("kind, name, build, params, optional", CATALOG, ids=_IDS)
def test_catalog_lists_the_same_keys(kind, name, build, params, optional):
    section = {"model": "models", "loss": "losses", "transform": "transforms"}[kind]
    assert _keys(cli.catalog_data()[section][name]) == set(params) | set(optional)


def test_public_catalog_sections_list_every_entry_in_order():
    sections = {**models.catalog(), **transforms.catalog()}
    assert list(sections) == ["models", "losses", "transforms"]
    for section, names in (("models", MODEL_NAMES), ("losses", LOSS_NAMES),
                           ("transforms", TRANSFORM_NAMES)):
        assert tuple(sections[section]) == names
        assert cli.catalog_data()[section] == sections[section]


@pytest.mark.parametrize("name, fixed, per_sample", [
    ("square", {}, "target"),
    ("exponential", {}, "label"),
    ("logistic", {}, "label"),
    ("softmax_xent", {"n_classes": 3}, "label"),
])
def test_loss_family_leaves_the_per_sample_key_open(name, fixed, per_sample):
    family = loss_family(name, **fixed)
    assert family.bind(1).name == name
    with pytest.raises(InvalidParams, match=f"takes {per_sample} from each sample"):
        loss_family(name, **fixed, **{per_sample: 1})
    with pytest.raises(InvalidParams, match="'zz'"):
        loss_family(name, **fixed, zz=1)
    if fixed:
        with pytest.raises(InvalidParams, match="missing a required argument: 'n_classes'"):
            loss_family(name)
