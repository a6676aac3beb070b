"""Versioned JSON persistence for trained model bundles.

A bundle is the self-describing unit the pipeline loads: the network, its
feature selection, its output encoding, and the normalizer fitted on the
training data.  Weights are stored as JSON numbers, whose decimal text
round-trips float64 exactly, so reloaded models predict bit-identically.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .models import ENCODINGS, FAMILIES, Network, output_width
from .preprocess import FEATURE_PRESETS, FeatureSpec, Normalizer

FORMAT_VERSION = "1.0"
_SUPPORTED_MAJOR = 1


class ModelFormatError(ValueError):
    """Unreadable or unsupported model file."""


@dataclass
class ModelBundle:
    """A trained network plus everything needed to apply it to raw records."""

    family: str
    net: Network
    feature_spec: FeatureSpec
    output_encoding: str
    normalizer: Normalizer
    train_meta: dict = field(default_factory=dict)
    source: str | None = None

    def __post_init__(self):
        if self.family != self.net.family:
            raise ValueError(f"bundle family {self.family!r} does not match its network's "
                             f"{self.net.family!r}")
        if self.output_encoding not in ENCODINGS:
            raise ValueError(f"unknown output encoding {self.output_encoding!r}")
        if self.net.feature_count != len(self.feature_spec):
            raise ValueError(
                f"network expects {self.net.feature_count} features but the feature spec "
                f"provides {len(self.feature_spec)}"
            )
        if self.net.out_dim != output_width(self.output_encoding):
            raise ValueError(
                f"network emits {self.net.out_dim} outputs but encoding "
                f"{self.output_encoding!r} needs {output_width(self.output_encoding)}"
            )
        if len(self.normalizer) != len(self.feature_spec):
            raise ValueError("normalizer length does not match the feature spec")

    @property
    def identity(self) -> str:
        return f"{self.family}:{self.source or '<memory>'}"


def _finite(value, what: str) -> np.ndarray:
    array = np.array(value, dtype=float)
    if not np.isfinite(array).all():
        raise ModelFormatError(f"non-finite values in {what}")
    return array


def bundle_to_doc(bundle: ModelBundle) -> dict:
    return {
        "version": FORMAT_VERSION,
        "family": bundle.family,
        "feature_spec": {
            "preset": bundle.feature_spec.preset,
            "features": list(bundle.feature_spec.names),
        },
        "output_encoding": bundle.output_encoding,
        "normalizer": {
            "mins": bundle.normalizer.mins.tolist(),
            "maxs": bundle.normalizer.maxs.tolist(),
        },
        **bundle.net.to_doc(),
        "train_meta": bundle.train_meta,
    }


def bundle_from_doc(doc: dict, source: str | None = None) -> ModelBundle:
    """Rebuild a bundle from a model document.

    Raises only ModelFormatError, whatever the document holds; every weight
    and normalizer bound must be finite.
    """
    try:
        version = str(doc["version"])
        family = doc["family"]
        spec_doc = doc["feature_spec"]
        encoding = doc["output_encoding"]
        norm_doc = doc["normalizer"]
        layer_docs = doc["layers"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"model file is missing required field: {exc}") from None

    try:
        major = int(version.split(".")[0])
    except ValueError:
        raise ModelFormatError(f"malformed format version {version!r}") from None
    if major > _SUPPORTED_MAJOR:
        raise ModelFormatError(
            f"model file format {version} is newer than supported major "
            f"{_SUPPORTED_MAJOR}; upgrade to read it"
        )

    try:
        preset = spec_doc.get("preset")
        if preset in FEATURE_PRESETS:
            spec = FEATURE_PRESETS[preset]
            if tuple(spec_doc["features"]) != spec.names:
                raise ModelFormatError(f"feature list does not match preset {preset!r}")
        else:
            spec = FeatureSpec(tuple(spec_doc["features"]), preset=preset)

        normalizer = Normalizer(
            mins=_finite(norm_doc["mins"], "normalizer mins"),
            maxs=_finite(norm_doc["maxs"], "normalizer maxs"),
        )
        if len(layer_docs) != 2:
            raise ModelFormatError(f"expected 2 layers, found {len(layer_docs)}")

        if family not in FAMILIES:
            raise ModelFormatError(f"unknown model family {family!r}")
        net = Network.from_doc(family, doc, len(spec), _finite)

        return ModelBundle(
            family=family,
            net=net,
            feature_spec=spec,
            output_encoding=encoding,
            normalizer=normalizer,
            train_meta=doc.get("train_meta") or {},
            source=source,
        )
    except ModelFormatError:
        raise
    except (AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError,
            ValueError) as exc:
        raise ModelFormatError(f"inconsistent model file: {exc}") from None


def _reject_constant(token: str):
    raise ModelFormatError(f"non-finite number {token} in model file")


def save_model(bundle: ModelBundle, path) -> None:
    """Write the bundle as JSON; raises ValueError, writing nothing, if any
    number in it is not finite."""
    text = json.dumps(bundle_to_doc(bundle), indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    bundle.source = str(path)


def load_model(path) -> ModelBundle:
    """The bundle of a model file; raises ModelFormatError, its message led by
    the path, on any content it cannot use, and OSError if the file cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
        if not isinstance(doc, dict):
            raise ModelFormatError("expected a JSON object")
        return bundle_from_doc(doc, source=str(path))
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    except (RecursionError, ValueError) as exc:  # deep nesting, huge ints, bad text
        raise ModelFormatError(f"{path}: not a valid model file ({exc})") from None
