"""Model-file round trips and format guards."""
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hemanet.models import FAMILIES, build_model, output_width
from hemanet.pipeline import run_pipeline
from hemanet.preprocess import FULL9, PAPER7, Normalizer
from hemanet.serialize import (
    FORMAT_VERSION,
    ModelBundle,
    ModelFormatError,
    bundle_from_doc,
    bundle_to_doc,
    load_model,
    save_model,
)

from helpers import make_record


def _normalizer(width: int) -> Normalizer:
    return Normalizer(mins=np.full(width, -2.0), maxs=np.full(width, 3.0))


def _bundle(family: str, encoding: str = "binary1", spec=FULL9, **kwargs) -> ModelBundle:
    out = output_width(encoding)
    net = build_model(family, len(spec), 6, out, seed=21, **kwargs)
    return ModelBundle(
        family=family,
        net=net,
        feature_spec=spec,
        output_encoding=encoding,
        normalizer=_normalizer(len(spec)),
        train_meta={"seed": 21},
    )


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("ffnn", {}),
        ("elman", {"context_init": 0.5}),
        ("elman", {"context_init": 0.0}),
        ("narx", {"d_u": 2, "d_y": 2}),
        ("narx", {"d_u": 0, "d_y": 1}),
    ],
)
def test_round_trip_bit_identical_predictions(tmp_path, family, kwargs):
    bundle = _bundle(family, **kwargs)
    path = tmp_path / "model.json"
    save_model(bundle, path)
    loaded = load_model(path)
    assert loaded.family == family
    assert loaded.feature_spec.names == bundle.feature_spec.names
    assert loaded.output_encoding == bundle.output_encoding

    net = bundle.net
    X = np.random.default_rng(22).uniform(-1, 1, size=(100, net.feature_count))
    np.testing.assert_array_equal(net.predict_batch(X), loaded.net.predict_batch(X))
    np.testing.assert_array_equal(net.tap_weights, loaded.net.tap_weights)


def test_narx_document_keeps_the_tap_columns_it_holds():
    # A file's (hidden, F + taps) input matrix loads whatever its tap columns
    # hold: the feature columns become the kernel's wx, and the tap columns
    # are written back where they were.
    doc = bundle_to_doc(_bundle("narx", d_u=1, d_y=2))
    wx = np.random.default_rng(23).normal(size=(6, 9 + 9 + 2))
    doc["layers"][0]["weights"] = wx.tolist()
    loaded = bundle_from_doc(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(loaded.net.param_arrays()[0], wx[:, :9])
    np.testing.assert_array_equal(loaded.net.tap_weights, wx[:, 9:])
    assert bundle_to_doc(loaded)["layers"][0]["weights"] == wx.tolist()


def test_bundle_predict_survives_round_trip(tmp_path):
    bundle = _bundle("elman")
    path = tmp_path / "m.json"
    save_model(bundle, path)
    loaded = load_model(path)
    record = make_record()
    clf = _bundle("ffnn", encoding="onehot3")
    [before], [after] = (run_pipeline(b, clf, [record]) for b in (bundle, loaded))
    assert before.raw_diagnosis == after.raw_diagnosis
    assert loaded.source == str(path)


def test_document_shape(tmp_path):
    bundle = _bundle("narx", d_u=1, d_y=2)
    doc = bundle_to_doc(bundle)
    assert doc["version"] == FORMAT_VERSION
    assert set(doc) == {
        "version", "family", "feature_spec", "output_encoding",
        "normalizer", "layers", "recurrent", "delays", "train_meta",
    }
    assert doc["delays"] == {"exogenous": 1, "output": 2, "mode": "per-record"}
    assert len(doc["layers"]) == 2


def test_integer_context_init_loads_as_a_float(tmp_path):
    doc = bundle_to_doc(_bundle("elman"))
    doc["recurrent"]["context_init"] = 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    context_init = load_model(path).net.context_init
    assert context_init == 1.0 and type(context_init) is float


def test_truncated_file(tmp_path):
    bundle = _bundle("ffnn")
    path = tmp_path / "model.json"
    save_model(bundle, path)
    path.write_text(path.read_text()[: 200])
    with pytest.raises(ModelFormatError, match="not a valid model file"):
        load_model(path)


def test_newer_major_version_refused(tmp_path):
    bundle = _bundle("ffnn")
    path = tmp_path / "model.json"
    save_model(bundle, path)
    doc = json.loads(path.read_text())
    doc["version"] = "2.0"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="newer"):
        load_model(path)


def test_unknown_family(tmp_path):
    bundle = _bundle("ffnn")
    path = tmp_path / "model.json"
    save_model(bundle, path)
    doc = json.loads(path.read_text())
    doc["family"] = "gru"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="family"):
        load_model(path)


def test_missing_field(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"version": "1.0", "family": "ffnn"}))
    with pytest.raises(ModelFormatError, match="missing"):
        load_model(path)


def test_non_object_document(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_bundle_consistency_validation():
    with pytest.raises(ValueError, match="features"):
        ModelBundle(
            family="ffnn",
            net=build_model("ffnn", 5, 4, 1),
            feature_spec=FULL9,
            output_encoding="binary1",
            normalizer=_normalizer(9),
        )
    with pytest.raises(ValueError, match="outputs"):
        ModelBundle(
            family="ffnn",
            net=build_model("ffnn", 7, 4, 2),
            feature_spec=PAPER7,
            output_encoding="binary1",
            normalizer=_normalizer(7),
        )
    # save_model would write such a bundle to a file that load_model refuses.
    with pytest.raises(ValueError, match="bundle family 'ffnn' does not match"):
        ModelBundle("ffnn", build_model("elman", 9, 4, 1), FULL9, "binary1", _normalizer(9))


def test_paper7_spec_round_trip(tmp_path):
    bundle = _bundle("ffnn", spec=PAPER7)
    path = tmp_path / "model.json"
    save_model(bundle, path)
    assert load_model(path).feature_spec is PAPER7


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_tokens_refused(tmp_path, token):
    path = tmp_path / "model.json"
    save_model(_bundle("ffnn"), path)
    text = path.read_text().replace("-2.0", token, 1)
    path.write_text(text)
    with pytest.raises(ModelFormatError, match=f"non-finite number {token}"):
        load_model(path)


def _set_first(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    target = doc[keys[-1]]
    while isinstance(target[0], list):
        target = target[0]
    target[0] = value


@pytest.mark.parametrize(
    "family,keys",
    [
        ("elman", ("layers", 0, "weights")),
        ("elman", ("recurrent", "weights")),
        ("elman", ("layers", 0, "biases")),
        ("elman", ("layers", 1, "weights")),
        ("elman", ("layers", 1, "biases")),
        ("ffnn", ("layers", 0, "weights")),
        ("narx", ("layers", 1, "biases")),
        ("ffnn", ("normalizer", "mins")),
        ("ffnn", ("normalizer", "maxs")),
    ],
)
def test_non_finite_values_refused(tmp_path, family, keys):
    # 1e400 is valid JSON that parses to inf; NaN reaches bundle_from_doc
    # from documents built in memory.
    path = tmp_path / "model.json"
    for value in ("1e400", "-1e400"):
        doc = bundle_to_doc(_bundle(family))
        _set_first(doc, keys, "@")
        path.write_text(json.dumps(doc).replace('"@"', value))
        with pytest.raises(ModelFormatError, match="non-finite values"):
            load_model(path)
    doc = bundle_to_doc(_bundle(family))
    _set_first(doc, keys, float("nan"))
    with pytest.raises(ModelFormatError, match="non-finite values"):
        bundle_from_doc(doc)


def test_save_refuses_non_finite_parameters(tmp_path):
    bundle = _bundle("elman")
    bundle.net.param_arrays()[1][0, 0] = np.nan
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        save_model(bundle, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "field,value",
    [
        ("feature_spec", "x"),
        ("feature_spec", {"preset": ["full9"], "features": []}),
        ("feature_spec", {"preset": None, "features": 7}),
        ("normalizer", [1]),
        ("normalizer", {"mins": "abc", "maxs": [1.0]}),
        ("normalizer", {"mins": [[1.0], [2.0, 3.0]], "maxs": [1.0]}),
        ("layers", [1, 2]),
        ("layers", [{"weights": [[1.0]], "biases": [0.0]}, {}]),
        ("layers", "ab"),
        ("recurrent", [1]),
        ("delays", {"exogenous": 10 ** 400}),
        ("output_encoding", ["binary1"]),
    ],
)
def test_malformed_documents_raise_model_format_error(tmp_path, field, value):
    family = "elman" if field == "recurrent" else "narx" if field == "delays" else "ffnn"
    doc = bundle_to_doc(_bundle(family))
    doc[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_model(path)


def _drop_last_feature_bound(doc):
    doc["normalizer"] = {key: bounds[:-1] for key, bounds in doc["normalizer"].items()}


def _swap_bounds(doc):
    norm = doc["normalizer"]
    norm["mins"], norm["maxs"] = norm["maxs"], norm["mins"]


@pytest.mark.parametrize("family,edit,message", [
    ("ffnn", _drop_last_feature_bound, "normalizer length does not match the feature spec"),
    ("ffnn", lambda doc: doc["feature_spec"]["features"].reverse(),
     "feature list does not match preset 'full9'"),
    ("ffnn", lambda doc: doc["layers"].append(doc["layers"][1]), "expected 2 layers, found 3"),
    ("ffnn", lambda doc: doc["layers"][1].update(weights=doc["layers"][1]["weights"][0]),
     "output weights must be 2-d, got shape (6,)"),
    ("ffnn", _swap_bounds, "fitted max below min"),
    ("elman", lambda doc: doc["recurrent"].pop("weights"), "elman models need recurrent.weights"),
], ids=["short-normalizer", "feature-list", "three-layers", "1-d-output", "max-below-min",
        "no-recurrent-weights"])
def test_inconsistent_document_refused_with_its_path(tmp_path, family, edit, message):
    doc = bundle_to_doc(_bundle(family))
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert str(exc.value).endswith(message)


#: Where a model document holds each family's fixed entry (FAMILIES[...].fixed),
#: and values other than the one it must hold.
FIXED_ENTRIES = {"delay_mode": ("delays", "mode", ["stream", "per_record", None]),
                 "mode": ("recurrent", "mode", ["feature-sequence", "single_step", None])}
#: (family, fixed entry) of every family's fixed entries.
FIXED = [(family, name) for family, spec in FAMILIES.items() for name in spec.fixed]
#: Options other than the defaults, for a bundle whose every entry counts.
BUNDLE_OPTIONS = {"narx": {"d_u": 1, "d_y": 2}}


@pytest.mark.parametrize("family,name,value", [
    (family, name, value) for family, name in FIXED for value in FIXED_ENTRIES[name][2]])
def test_fixed_entry_other_than_its_value_refused(tmp_path, family, name, value):
    section, key, _ = FIXED_ENTRIES[name]
    doc = bundle_to_doc(_bundle(family, **BUNDLE_OPTIONS.get(family, {})))
    doc[section][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    fixed = FAMILIES[family].fixed[name]
    with pytest.raises(ModelFormatError, match=re.escape(
            f"{family.upper()} {section}.{key} must be {fixed!r}, got {value!r}")):
        load_model(path)


@pytest.mark.parametrize("family,name", FIXED)
def test_document_without_fixed_entry_loads_with_its_value(tmp_path, family, name):
    section, key, _ = FIXED_ENTRIES[name]
    options = BUNDLE_OPTIONS.get(family, {})
    bundle = _bundle(family, **options)
    doc = bundle_to_doc(bundle)
    assert doc[section][key] == FAMILIES[family].fixed[name]
    del doc[section][key]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    assert loaded.net.options == {**FAMILIES[family].options, **options}
    assert bundle_to_doc(loaded) == bundle_to_doc(bundle)


#: A value other than its default for every family option.
OTHER_OPTIONS = {"context_init": -0.25, "d_u": 2, "d_y": 3}
#: Where a model document holds each parameter array, in parameter order;
#: only a net with a context has recurrent weights.
SLOTS = [("layers", 0, "weights"), ("recurrent", "weights"), ("layers", 0, "biases"),
         ("layers", 1, "weights"), ("layers", 1, "biases")]


def _parent(doc, slot):
    for key in slot[:-1]:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("options", ["default", "other"])
@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_round_trips_and_refuses_wrong_shapes(tmp_path, family, options):
    defaults = FAMILIES[family].options
    options = {name: OTHER_OPTIONS[name] for name in defaults} if options == "other" else {}
    assert all(value != defaults[name] for name, value in options.items())
    bundle = ModelBundle(family, build_model(family, 9, 5, 3, seed=4, **options), FULL9,
                         "onehot3", _normalizer(9))
    doc = bundle_to_doc(bundle)
    loaded = bundle_from_doc(json.loads(json.dumps(doc)))
    assert loaded.net.options == {**defaults, **options}
    assert json.dumps(bundle_to_doc(loaded)) == json.dumps(doc)  # keys in the same order

    slots = [slot for slot in SLOTS if slot[-1] in _parent(doc, slot)]
    assert len(slots) == len(bundle.net.param_arrays())
    path = tmp_path / "model.json"
    for slot in slots:
        value = _parent(doc, slot)[slot[-1]]
        wider = ([row + row[:1] for row in value] if isinstance(value[0], list)
                 else value + value[:1])
        for wrong in (value[:-1], wider):
            broken = json.loads(json.dumps(doc))
            _parent(broken, slot)[slot[-1]] = wrong
            path.write_text(json.dumps(broken))
            with pytest.raises(ModelFormatError, match="must have shapes"):
                load_model(path)


@pytest.mark.parametrize("source,family", [("elman", "ffnn"), ("elman", "narx"),
                                           ("narx", "ffnn"), ("narx", "elman")])
def test_a_section_the_family_does_not_read_is_refused(tmp_path, source, family):
    # A file whose "family" was edited would otherwise load without the
    # entries only its true family reads, and predict with shifted outputs.
    doc = bundle_to_doc(_bundle(source, d_u=1) if source == "narx" else _bundle(source))
    doc["family"] = family
    section = "recurrent" if source == "elman" else "delays"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    entry = f"{section}.{next(iter(doc[section]))}"
    with pytest.raises(ModelFormatError, match=f"{family} models store no {re.escape(entry)}$"):
        load_model(path)


# ---------------------------------------------------------------------------
# hostile bytes: whatever the file holds, load_model raises ModelFormatError


def test_deeply_nested_file_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ModelFormatError, match=f"{path}: not a valid model file"):
        load_model(path)


def test_integer_beyond_the_digit_limit_refused(tmp_path):
    doc = bundle_to_doc(_bundle("ffnn"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc).replace('"seed": 21', '"seed": ' + "7" * 5000))
    with pytest.raises(ModelFormatError, match=f"{path}: not a valid model file"):
        load_model(path)


def test_nesting_just_inside_the_parser_limit_refused(tmp_path):
    # Depths around the recursion limit: the JSON parser refuses the deepest,
    # and the document reader must refuse the ones the parser still accepts.
    path = tmp_path / "model.json"
    doc = bundle_to_doc(_bundle("ffnn"))
    limit = sys.getrecursionlimit()
    for depth in range(limit - 150, limit + 10, 4):
        doc["version"] = "@"
        path.write_text(json.dumps(doc).replace('"@"', "[" * depth + "]" * depth))
        with pytest.raises(ModelFormatError):
            load_model(path)


def test_non_utf8_file_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"version": "1.0\xff"}')
    with pytest.raises(ModelFormatError, match="not a valid model file"):
        load_model(path)


# ---------------------------------------------------------------------------
# one-field mutations of a valid model document, through the CLI


@pytest.fixture(scope="module")
def mutation_setup(tmp_path_factory):
    """A 24-row labeled file, its unlabeled twin, and one document per family and stage."""
    from hemanet.cli import fit_stage
    from hemanet.dataio import save_csv, save_unlabeled_csv
    from hemanet.nncore import TrainConfig
    from hemanet.records import AnemiaLabel
    from hemanet.synth import synth_generate

    tmp_path = tmp_path_factory.mktemp("mutations")
    labeled = synth_generate(24, {AnemiaLabel.MICROCYTIC: 4, AnemiaLabel.NORMOCYTIC: 6,
                                  AnemiaLabel.MACROCYTIC: 6, AnemiaLabel.NON_ANEMIC: 8}, seed=23)
    data, unlabeled = tmp_path / "data.csv", tmp_path / "unlabeled.csv"
    save_csv(labeled, data)
    save_unlabeled_csv([item.record for item in labeled], unlabeled)
    config = TrainConfig(epochs=3, hidden_size=4, seed=23)
    docs = {}
    for family in ("ffnn", "elman", "narx"):
        for stage in ("diagnosis", "classify"):
            bundle, _ = fit_stage(labeled, family, stage, config)
            docs[family, stage] = bundle_to_doc(bundle)
    return data, unlabeled, docs


def _paths(node, prefix=()):
    """Key/index paths into a JSON document: every dict entry and layer, but
    only the first element of a number list, so weights do not crowd out
    the other fields."""
    out = [prefix] if prefix else []
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        children = enumerate(node)
    else:
        children = [(0, node[0])] if isinstance(node, list) and node else []
    for key, child in children:
        out += _paths(child, prefix + (key,))
    return out


def _mutate(doc, path, kind, value):
    """Apply one mutation at ``path`` in place; returns the document."""
    if kind == "family":
        doc["family"] = value
        return doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    if kind == "missing":
        del parent[key]
    elif kind == "type":
        parent[key] = value
    elif kind == "nan":
        parent[key] = float("nan")
    elif isinstance(old, list):  # shape
        parent[key] = {0: old[:-1], 1: old + old[:1], 2: [old]}[value % 3]
    else:
        parent[key] = [old]
    return doc


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


@st.composite
def doc_mutations(draw, docs):
    family, stage = draw(st.sampled_from(sorted(docs)))
    doc = json.loads(json.dumps(docs[family, stage]))
    kind = draw(st.sampled_from(["type", "nan", "shape", "missing", "family"]))
    path = draw(st.sampled_from(_paths(doc)))
    if kind == "family":
        value = draw(st.sampled_from(["gru", "", "FFNN", 3, None,
                                      *(f for f in ("ffnn", "elman", "narx") if f != family)]))
    elif kind == "type":
        value = draw(st.sampled_from(["x", "1.5", None, True, {}, [], 1.5, -3, [[1.0]]]))
    else:
        value = draw(st.integers(0, 2))
    return family, stage, _mutate(doc, path, kind, value)


class TestModelDocumentMutations:
    """A model file with one field of the wrong type, NaN, the wrong shape,
    missing, or an unknown family loads and gives finite outputs, or exits 3."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_predict_and_eval_exit_0_with_finite_outputs_or_3(self, tmp_path, mutation_setup,
                                                             capsys, data):
        from hemanet import cli

        labeled, unlabeled, docs = mutation_setup
        family, stage, doc = data.draw(doc_mutations(docs))
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc), encoding="utf-8")
        other = tmp_path / "other.json"
        other_stage = "classify" if stage == "diagnosis" else "diagnosis"
        other.write_text(json.dumps(docs[family, other_stage]), encoding="utf-8")
        diag, clf = (mutated, other) if stage == "diagnosis" else (other, mutated)

        out = tmp_path / "predict.json"
        out.unlink(missing_ok=True)
        code = cli.main(["predict", "--diagnosis", str(diag), "--classify", str(clf),
                         "--data", str(unlabeled), "--format", "json", "--deterministic",
                         "-o", str(out)])
        assert code in (0, 3), capsys.readouterr().err
        if code == 0:
            patients = json.loads(out.read_text())["patients"]
            assert len(patients) == 24 and all("error" not in p for p in patients)
            assert all(_all_finite(p["raw"]) for p in patients)

        out = tmp_path / "eval.json"
        out.unlink(missing_ok=True)
        code = cli.main(["eval", "-m", str(mutated), "--data", str(labeled),
                         "--format", "json", "-o", str(out)])
        assert code in (0, 3), capsys.readouterr().err
        if code == 0:
            assert _all_finite(json.loads(out.read_text()))
        capsys.readouterr()
