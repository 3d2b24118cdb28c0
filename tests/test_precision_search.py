"""Lockstep precision search: same profile as the full-forward reference.

``PrecisionSearch.profile(incremental=True)`` merges the row batches of
every (layer, weights|activations) scan into shared sweeps down the
network.  These tests gate its contract against the reference
``profile()``: identical profiles on random conv+FC networks, each
downstream weighted layer run once per sweep, and near-tie rows sent to a
standalone evaluation with the reference's exact shapes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import precision_search
from repro.nn.layers import Conv2D, Flatten, FullyConnected, MaxPool2D, ReLU
from repro.nn.network import Network
from repro.nn.precision_search import PrecisionSearch


def _conv_fc_network(
    seed: int,
    *,
    channels: int = 2,
    size: int = 8,
    filters: int = 4,
    pool: bool = True,
    hidden: int = 12,
    classes: int = 5,
) -> Network:
    rng = np.random.default_rng(seed)
    layers = [Conv2D(channels, filters, 3, padding=1, name="c1", rng=rng), ReLU(name="r1")]
    spatial = size
    if pool:
        layers.append(MaxPool2D(2, name="p1"))
        spatial //= 2
    layers += [
        Conv2D(filters, filters, 3, name="c2", rng=rng),
        ReLU(name="r2"),
        Flatten(name="flat"),
        FullyConnected(filters * (spatial - 2) ** 2, hidden, name="fc1", rng=rng),
        ReLU(name="r3"),
        FullyConnected(hidden, classes, name="fc2", rng=rng),
    ]
    return Network(layers, (channels, size, size))


def _searches(network, samples, labels=None, **kwargs):
    """A reference and a lockstep search over the same inputs."""
    return (
        PrecisionSearch(network, samples, labels=labels, **kwargs),
        PrecisionSearch(network, samples, labels=labels, **kwargs),
    )


class TestLockstepEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        count=st.sampled_from([1, 2, 3, PrecisionSearch._PROBE_CHUNK, 7, 13]),
        pool=st.booleans(),
        classes=st.integers(2, 6),
        labelled=st.booleans(),
        target=st.sampled_from([0.99, 0.8, 0.5]),
        candidates=st.lists(st.integers(1, 16), min_size=1, max_size=6, unique=True),
    )
    def test_profile_matches_reference(
        self, seed, count, pool, classes, labelled, target, candidates
    ):
        network = _conv_fc_network(seed, pool=pool, classes=classes)
        rng = np.random.default_rng(seed + 1)
        samples = rng.uniform(-1.0, 1.0, size=(count, *network.input_shape))
        labels = None
        if labelled:
            labels = rng.integers(0, classes, size=count)
            # At least one correct baseline prediction: relative accuracy
            # is undefined at zero baseline accuracy.
            labels[0] = network.predict(samples[:1])[0]
        reference, lockstep = _searches(
            network,
            samples,
            labels,
            relative_accuracy_target=target,
            candidate_bits=tuple(candidates),
        )
        assert lockstep.profile(incremental=True) == reference.profile()

    def test_zero_baseline_accuracy_raises_like_reference(self):
        network = _conv_fc_network(4, classes=3)
        samples = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, *network.input_shape))
        wrong = (network.predict(samples) + 1) % 3
        reference, lockstep = _searches(network, samples, wrong)
        with pytest.raises(ValueError, match="baseline accuracy is zero"):
            reference.profile()
        with pytest.raises(ValueError, match="baseline accuracy is zero"):
            lockstep.profile(incremental=True)


class TestSweeps:
    def test_each_weighted_layer_runs_once_per_sweep(self, monkeypatch):
        network = _conv_fc_network(11, size=9, pool=False)
        samples = np.random.default_rng(12).uniform(-1.0, 1.0, size=(10, *network.input_shape))
        candidates = (1, 2, 3, 4, 6, 8, 16)
        expected = PrecisionSearch(network, samples, candidate_bits=candidates).profile()
        search = PrecisionSearch(network, samples, candidate_bits=candidates)
        originals = {layer.name: layer.weights for layer in network.weighted_layers()}
        calls: dict[tuple[int, str, bool], int] = {}

        def counting(cls):
            forward = cls.forward_batch

            def wrapped(layer, inputs, config=None):
                quantized = layer.weights is not originals[layer.name]
                key = (search.sweeps, layer.name, quantized)
                calls[key] = calls.get(key, 0) + 1
                return forward(layer, inputs, config)

            monkeypatch.setattr(cls, "forward_batch", wrapped)

        counting(Conv2D)
        counting(FullyConnected)
        assert search.profile(incremental=True) == expected
        assert search.sweeps >= 2
        assert search.near_tie_fallbacks == 0
        # One unquantised call per weighted layer per sweep (sweep 0 is the
        # baseline prefix capture), plus at most one with a weight probe's
        # quantised weights.
        assert set(calls.values()) == {1}
        # Sweep 1 carries all 2 x 4 first-candidate probes, yet every layer
        # reads its unquantised weights once.
        for name in originals:
            assert calls[(1, name, False)] == 1
            assert calls[(1, name, True)] == 1
        for layer in network.weighted_layers():
            assert layer.weights is originals[layer.name]

    def test_quantized_weights_once_per_candidate(self, monkeypatch):
        network = _conv_fc_network(21)
        samples = np.random.default_rng(22).uniform(-1.0, 1.0, size=(12, *network.input_shape))
        search = PrecisionSearch(network, samples)
        originals = {id(layer.weights) for layer in network.weighted_layers()}
        quantized: list[tuple[int, int | None]] = []
        real_quantize = precision_search.quantize

        def spy(tensor, bits, **kwargs):
            if id(tensor) in originals:
                quantized.append((id(tensor), bits))
            return real_quantize(tensor, bits, **kwargs)

        monkeypatch.setattr(precision_search, "quantize", spy)
        search.profile(incremental=True)
        assert quantized
        assert len(quantized) == len(set(quantized))


class TestNearTieFallback:
    def _tied_network(self) -> Network:
        # fc2's rows 0 and 1 are identical (and dominant), so every sample
        # led by those classes has an exactly tied top-1/runner-up pair.
        network = _conv_fc_network(31, classes=4)
        fc2 = network.layers[-1]
        fc2.weights[0] = 3.0 * np.abs(fc2.weights[0])
        fc2.weights[1] = fc2.weights[0]
        return network

    @pytest.mark.parametrize("labelled", [False, True])
    def test_tied_logits_fall_back_to_reference(self, labelled):
        network = self._tied_network()
        rng = np.random.default_rng(32)
        samples = rng.uniform(-1.0, 1.0, size=(9, *network.input_shape))
        labels = network.predict(samples) if labelled else None
        if labelled:
            labels[-3:] = (labels[-3:] + 2) % 4
        reference, lockstep = _searches(network, samples, labels)
        assert lockstep.profile(incremental=True) == reference.profile()
        assert lockstep.near_tie_fallbacks > 0

    def test_every_candidate_standalone_matches_reference(self, monkeypatch):
        # |top - runner_up| <= 2 max(|top|, |runner_up|) always holds, so at
        # this margin every probe row is a near tie and each candidate's
        # decision comes from the standalone evaluation alone.
        monkeypatch.setattr(precision_search, "NEAR_TIE_MARGIN", 2.0)
        network = _conv_fc_network(41)
        samples = np.random.default_rng(42).uniform(-1.0, 1.0, size=(7, *network.input_shape))
        reference, lockstep = _searches(network, samples, candidate_bits=(1, 2, 4, 8, 16))
        assert lockstep.profile(incremental=True) == reference.profile()
        assert lockstep.near_tie_fallbacks >= 2 * len(network.weighted_layers())

    def test_near_tie_margin_is_relative(self):
        logits = np.array(
            [
                [1.0, 1.0 + 1e-12, -3.0],  # tie within the margin
                [1e6, 1e6 * (1 + 1e-6), 0.0],  # clearly apart at scale
                [0.0, 0.0, 0.0],  # exact zero tie
                [np.nan, 1.0, 0.0],  # undecidable
                [-2.0, -1.0, -5.0],
            ]
        )
        assert precision_search._near_ties(logits).tolist() == [True, False, True, True, False]
