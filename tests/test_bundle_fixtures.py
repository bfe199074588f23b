"""Bundles written by an earlier version load and answer bit for bit.

``tests/data/make_bundles.py`` wrote a 3-layer DHGNN bundle and a
gate-fusion DHGCN bundle with compactness edge weighting, both n=60 in
float64, together with their logits.  Loading each must reproduce those
logits exactly, and one feature update must then agree with the cold-k-NN
reference session of ``test_session_histories``.  A change to what a bundle
holds, or to how it is read, fails here first.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import FrozenModel, InferenceSession
from test_session_histories import reference_session

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("kind, n_layers", [("dhgnn", 3), ("dhgcn", 2)])
def test_fixture_bundle_answers_bit_for_bit(kind, n_layers):
    bundle = DATA / f"bundle_{kind}.npz"
    with np.load(DATA / "bundle_logits.npz") as data:
        expected = data[kind]
    frozen = FrozenModel.load(bundle)
    assert (frozen.plan.kind, frozen.plan.n_layers) == (kind, n_layers)
    assert frozen.precision_name == "float64"
    assert np.array_equal(frozen.logits(), expected)

    session = InferenceSession(frozen)
    assert np.array_equal(session.predict(None, output="logits"), expected)
    reference = reference_session(bundle)
    ids = np.array([7, 21, 44])
    noise = np.random.default_rng(1).normal(scale=0.1, size=(ids.size, frozen.features.shape[1]))
    values = frozen.features[ids] + noise
    for target in (session, reference):
        target.update_features(ids, values)
    updated = session.predict(None, output="logits")
    assert not np.array_equal(updated, expected)
    assert np.array_equal(updated, reference.predict(None, output="logits"))
