"""Lockstep precision search: same profile as the full-forward reference.

``PrecisionSearch.profile(incremental=True)`` merges the row batches of
every (layer, weights|activations) scan into shared sweeps down the
network.  These tests gate its contract against the reference
``profile()``: identical profiles on random conv+FC networks, each
downstream weighted layer run once per sweep, and near-tie rows sent to a
standalone evaluation with the reference's exact shapes.
"""

from __future__ import annotations

import tracemalloc

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
        fc_names = {
            layer.name for layer in network.weighted_layers() if isinstance(layer, FullyConnected)
        }
        calls: dict[tuple[int, str, bool], int] = {}
        fc_weight_probes = 0

        def count(name: str, quantized: bool) -> None:
            key = (search.sweeps, name, quantized)
            calls[key] = calls.get(key, 0) + 1

        def counting(cls):
            forward = cls.forward_batch

            def wrapped(layer, inputs, config=None):
                count(layer.name, layer.weights is not originals[layer.name])
                return forward(layer, inputs, config)

            monkeypatch.setattr(cls, "forward_batch", wrapped)

        counting(Conv2D)
        counting(FullyConnected)
        kernel = PrecisionSearch._fc_weight_probe
        sweep = PrecisionSearch._sweep

        def counting_kernel(self, layer, rows, bits):
            count(layer.name, True)
            return kernel(self, layer, rows, bits)

        def counting_sweep(self, probes):
            nonlocal fc_weight_probes
            fc_weight_probes += sum(
                probe.layer in fc_names and probe.config.weight_bits is not None for probe in probes
            )
            return sweep(self, probes)

        monkeypatch.setattr(PrecisionSearch, "_fc_weight_probe", counting_kernel)
        monkeypatch.setattr(PrecisionSearch, "_sweep", counting_sweep)
        assert search.profile(incremental=True) == expected
        assert search.sweeps >= 2
        assert search.near_tie_fallbacks == 0
        # One unquantised call per weighted layer per sweep (sweep 0 is the
        # baseline prefix capture), plus at most one with a weight probe's
        # quantised weights: a forward_batch call on conv layers, a
        # row-blocked kernel call on FC layers (whose forward_batch never
        # sees quantised weights).
        assert set(calls.values()) == {1}
        # Sweep 1 carries all 2 x 4 first-candidate probes, yet every layer
        # reads its unquantised weights once.
        for name in originals:
            assert calls[(1, name, False)] == 1
            assert calls[(1, name, True)] == 1
        # Exactly one kernel call per FC weight probe.
        kernel_calls = sum(n for (_, name, quantized), n in calls.items() if quantized and name in fc_names)
        assert kernel_calls == fc_weight_probes
        for layer in network.weighted_layers():
            assert layer.weights is originals[layer.name]

    def test_quantized_weights_once_per_candidate(self, monkeypatch):
        # Conv kernels are quantised whole, once per candidate; FC matrices
        # in row blocks by the kernel, each block once per kernel call and
        # never the whole matrix.
        quantized: list[tuple[int, int | None]] = []
        blocks: list[tuple[str, int, int]] = []
        kernel_calls: list[tuple[str, int]] = []
        layers: dict[int, object] = {}
        real_quantize = precision_search.quantize
        kernel = PrecisionSearch._fc_weight_probe

        def spy(tensor, bits, **kwargs):
            if id(tensor) in layers:
                assert not isinstance(layers[id(tensor)], FullyConnected)
                quantized.append((id(tensor), bits))
            elif id(tensor.base) in layers:
                fc = layers[id(tensor.base)]
                offset = tensor.__array_interface__["data"][0] - fc.weights.__array_interface__["data"][0]
                blocks.append((fc.name, bits, offset // fc.weights.strides[0]))
            return real_quantize(tensor, bits, **kwargs)

        def counting_kernel(self, layer, rows, bits):
            kernel_calls.append((layer.name, bits))
            return kernel(self, layer, rows, bits)

        monkeypatch.setattr(precision_search, "quantize", spy)
        monkeypatch.setattr(PrecisionSearch, "_fc_weight_probe", counting_kernel)
        # fc1 (16 -> 12) runs as blocks of 5 rows: 0, 5, 10.
        monkeypatch.setattr(precision_search, "_FC_BLOCK_BYTES", 8 * 16 * 5)
        # Seed 21 settles every scan at 1 bit; seed 25 probes up to 7 bits.
        for seed in (21, 25):
            for record in (quantized, blocks, kernel_calls):
                record.clear()
            network = _conv_fc_network(seed)
            samples = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=(12, *network.input_shape))
            layers.clear()
            layers.update({id(layer.weights): layer for layer in network.weighted_layers()})
            PrecisionSearch(network, samples).profile(incremental=True)
            assert quantized
            assert len(quantized) == len(set(quantized))
            assert {name for name, _bits in kernel_calls} == {"fc1", "fc2"}
            expected = []
            for name, bits in kernel_calls:
                if bits == 1:  # the binary candidate's blocks never call quantize
                    continue
                fc = next(layer for layer in network.weighted_layers() if layer.name == name)
                step = precision_search._fc_block_rows(fc)
                expected += [(name, bits, start) for start in range(0, fc.out_features, step)]
            assert blocks == expected
        assert {start for name, _bits, start in blocks if name == "fc1"} == {0, 5, 10}


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


class TestFcWeightProbeKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 60),
        bits=st.integers(1, 16),
        in_features=st.integers(1, 24),
        block_rows=st.integers(1, 8),
        blocks=st.integers(1, 4),
        remainder=st.integers(0, 7),
    )
    def test_matches_full_matrix_quantisation(
        self, seed, rows, bits, in_features, block_rows, blocks, remainder
    ):
        out_features = block_rows * blocks + remainder % block_rows
        rng = np.random.default_rng(seed)
        layer = FullyConnected(in_features, out_features, name="fc", rng=rng)
        # Signed zeros: the binary candidate maps both to +s.
        layer.weights[rng.random(layer.weights.shape) < 0.1] = 0.0
        layer.weights[rng.random(layer.weights.shape) < 0.1] = -0.0
        inputs = rng.normal(size=(rows, in_features))
        quantized = precision_search.quantize(layer.weights, bits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(precision_search, "_FC_BLOCK_BYTES", 8 * in_features * block_rows)
            search = PrecisionSearch(Network([layer], (in_features,)), inputs)
            # One-hot rows with a zero bias read the quantised blocks back
            # exactly.
            identity = search._fc_weight_probe(layer, np.eye(in_features), bits)
            layer.bias = rng.normal(size=out_features)
            outputs = search._fc_weight_probe(layer, inputs, bits)
        assert np.array_equal(identity, quantized.T)
        assert np.allclose(outputs, inputs @ quantized.T + layer.bias, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("leaf", [128, 1000, 1 << 15])
    def test_mean_magnitude_is_numpys_mean(self, monkeypatch, leaf):
        monkeypatch.setattr(precision_search, "_PAIRWISE_LEAF", leaf)
        rng = np.random.default_rng(leaf)
        for shape in [(1, 1), (3, 7), (129,), (50, 12), (257, 3), (500, 401), (1024, 1030)]:
            weights = rng.normal(0.0, 0.05, size=shape)
            assert precision_search._mean_magnitude(weights) == float(np.mean(np.abs(weights)))

    def test_lockstep_search_never_allocates_a_weight_sized_array(self):
        rng = np.random.default_rng(51)
        wide = 1024
        network = Network(
            [
                FullyConnected(32, wide, name="fc1", rng=rng),
                ReLU(name="r1"),
                FullyConnected(wide, wide, name="fc2", rng=rng),
                ReLU(name="r2"),
                FullyConnected(wide, 6, name="fc3", rng=rng),
            ],
            (32,),
        )
        samples = rng.uniform(-1.0, 1.0, size=(10, 32))
        search = PrecisionSearch(network, samples, candidate_bits=(1, 2, 3, 4, 6, 8, 16))
        search._layer_prefix_inputs()
        tracemalloc.start()
        try:
            profile = search.profile(incremental=True)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert search.near_tie_fallbacks == 0
        assert profile == PrecisionSearch(network, samples, candidate_bits=search.candidate_bits).profile()
        assert peak < network.layers[2].weights.nbytes // 2
