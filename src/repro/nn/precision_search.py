"""Per-layer minimum-precision search (Fig. 6 of the paper).

Following the methodology of the paper's reference [22], the precision of
one layer at a time is reduced until the network's *relative accuracy* drops
below a target (99 % in the paper), while all other layers stay at full
precision.  The search is run separately for weights and for input feature
maps, producing the two per-layer bit profiles plotted in Fig. 6.

Relative accuracy is measured either against ground-truth labels (for
networks we can train, e.g. LeNet-5 on the synthetic digit task) or as
top-1 agreement with the floating-point model (for the AlexNet / VGG16
stand-ins whose original training data is unavailable offline).

Two evaluation strategies produce the same profile:

* ``profile()`` -- the full-forward reference: every candidate runs the
  whole network on the whole evaluation batch.  It is the golden path the
  equivalence tests gate against.
* ``profile(incremental=True)`` -- the lockstep search.  Each probe
  quantises exactly one layer while everything before it stays floating
  point, so the activations entering the probed layer are the *baseline*
  activations, captured once.  Every (layer, weights|activations) scan
  keeps the reference's candidate order and pass rule but certifies
  failing candidates early from a few samples, and instead of running its
  own row batches it yields them as probes.  All pending probes of all
  scans are merged into one *sweep* down the network: each probe enters at
  its own layer with its quantised weights or activations, and every later
  layer runs once on the concatenated rows.  The fully-connected weight
  matrices -- whose reads bound the search, not its row count -- are then
  streamed once per sweep instead of once per probe.

Weight probes on fully-connected layers skip ``FullyConnected.forward_batch``:
a row-blocked kernel quantises W one cache-resident block of output rows
at a time and multiplies each block straight into its output columns, so
no W-sized quantised copy is ever written (fc7 of the AlexNet stand-in is
134 MB).  Convolution probes swap a quantised kernel into the layer.

The lockstep contract is *identical argmax decisions*, not identical logit
bits: regrouping rows (or W's output rows, in the FC kernel) changes the
GEMM shapes, and BLAS results differ in the last bits between shapes (a
1-row batch runs as a GEMV, for example).
Every scan decision depends only on each sample's top-1 class, so a row
whose relative top-1/runner-up margin is below :data:`NEAR_TIE_MARGIN`
sends its candidate to a standalone full-batch evaluation with the
reference's exact shapes (counted in ``PrecisionSearch.near_tie_fallbacks``).
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from ..analysis.metrics import classification_accuracy, top1_agreement
from .layers import FullyConnected, Layer
from .network import Network
from .quantization import QuantizationConfig, quantization_scale, quantize, quantize_per_sample

#: Relative top-1/runner-up logit margin below which a lockstep probe row is
#: a near tie: ``top - runner_up <= NEAR_TIE_MARGIN * max(|top|, |runner_up|)``.
#: Regrouped GEMMs drift by ~1e-15 relative on this path (the smallest
#: margin the AlexNet stand-in's search meets is ~4e-4), so a tie this close
#: is the only way regrouping could flip an argmax.
NEAR_TIE_MARGIN = 1e-9

#: Bytes of W the FC weight-probe kernel quantises and multiplies per block:
#: small enough that the block stays in a core's L2 between its quantisation
#: passes and its GEMM.
_FC_BLOCK_BYTES = 1 << 19

#: Run length below which ``_mean_magnitude`` hands a run to numpy's own sum.
_PAIRWISE_LEAF = 1 << 15


@dataclass(frozen=True)
class _Probe:
    """Rows one scan needs evaluated: ``indices`` with ``layer`` quantised."""

    layer: str
    config: QuantizationConfig
    indices: np.ndarray


#: A probe's answer: (sample indices, their predicted classes).
_Answer = tuple[np.ndarray, np.ndarray]


@dataclass
class _WeightScratch:
    """One layer's weight statistics and quantisation buffer during a search.

    Conv layers quantise the whole kernel into ``buffer`` and remember the
    candidate it holds (``bits``); FC layers quantise one row block at a
    time into it.  ``mean_abs`` is the 1-bit candidate's scale, computed
    on first use.
    """

    max_abs: float
    buffer: np.ndarray
    bits: int | None = None
    mean_abs: float | None = None


def _fc_block_rows(layer: FullyConnected) -> int:
    """Output rows of W per block of the FC weight-probe kernel."""
    return max(1, min(_FC_BLOCK_BYTES // (8 * layer.in_features), layer.out_features))


def _mean_magnitude(tensor: np.ndarray) -> float:
    """``float(np.mean(np.abs(tensor)))`` bit for bit, without a ``|tensor|`` copy.

    numpy sums a contiguous float64 run pairwise: a run of ``n > 128``
    elements splits at ``h = n // 2 - (n // 2) % 8`` and the two halves'
    sums are added.  Following the same splits down to cache-sized runs
    and summing those with numpy itself reproduces that sum exactly.
    """
    if not tensor.flags.c_contiguous:
        return float(np.mean(np.abs(tensor)))
    flat = tensor.reshape(-1)

    def pairwise(start: int, count: int) -> np.float64:
        if count <= _PAIRWISE_LEAF:
            return np.add.reduce(np.abs(flat[start : start + count]))
        half = count // 2
        half -= half % 8
        return pairwise(start, half) + pairwise(start + half, count - half)

    return float(pairwise(0, flat.size) / flat.size)


def _stack(batches: list[np.ndarray]) -> np.ndarray:
    """Row-wise concatenation that does not copy a lone batch."""
    return batches[0] if len(batches) == 1 else np.concatenate(batches)


def _near_ties(logits: np.ndarray) -> np.ndarray:
    """Rows whose top-1 class a last-bit perturbation could change."""
    if logits.shape[1] < 2:
        return np.zeros(logits.shape[0], dtype=bool)
    runner_up, top = np.partition(logits, -2, axis=1)[:, -2:].T
    scale = np.maximum(np.abs(top), np.abs(runner_up))
    # Written as "not clearly apart" so NaN/inf margins count as ties.
    return ~(top - runner_up > NEAR_TIE_MARGIN * scale)


@dataclass(frozen=True)
class LayerPrecisionProfile:
    """Minimum bits found for one layer.

    Attributes
    ----------
    layer:
        Layer name.
    weight_bits:
        Minimum weight precision meeting the accuracy target.
    activation_bits:
        Minimum input-feature-map precision meeting the accuracy target.
    """

    layer: str
    weight_bits: int
    activation_bits: int

    @property
    def required_bits(self) -> int:
        """Datapath precision the layer needs (max of the two profiles)."""
        return max(self.weight_bits, self.activation_bits)


class PrecisionSearch:
    """Finds per-layer minimum precisions at a relative-accuracy target.

    Parameters
    ----------
    network:
        Network under test.
    samples:
        Evaluation inputs ``(n, *input_shape)``.
    labels:
        Ground-truth labels; if ``None`` the floating-point model's
        predictions are used as the reference (top-1 agreement).
    relative_accuracy_target:
        Minimum allowed accuracy relative to the floating-point baseline
        (0.99 in the paper).
    candidate_bits:
        Bit widths tried, from low to high.
    """

    def __init__(
        self,
        network: Network,
        samples: np.ndarray,
        *,
        labels: np.ndarray | None = None,
        relative_accuracy_target: float = 0.99,
        candidate_bits: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16),
    ):
        if not 0.0 < relative_accuracy_target <= 1.0:
            raise ValueError("relative_accuracy_target must be in (0, 1]")
        if not candidate_bits:
            raise ValueError("candidate_bits must not be empty")
        self.network = network
        self.samples = np.asarray(samples, dtype=np.float64)
        self.labels = None if labels is None else np.asarray(labels)
        self.relative_accuracy_target = relative_accuracy_target
        self.candidate_bits = tuple(sorted(candidate_bits))
        #: Baseline logits, computed on first use -- by a plain forward pass,
        #: or as a by-product of the lockstep search's prefix capture (both
        #: run the identical per-layer batch loop, so the logits are the
        #: same bits either way).
        self._baseline_logits_cache: np.ndarray | None = None
        #: Lazily captured baseline inputs of each weighted layer
        #: (layer name -> (position in network.layers, activation batch)).
        self._prefix_inputs: dict[str, tuple[int, np.ndarray]] | None = None
        #: Per-layer weight quantisation buffers of the running lockstep
        #: search (released when it returns).
        self._weight_scratch: dict[str, _WeightScratch] = {}
        #: Sweeps down the network run by lockstep searches so far.
        self.sweeps = 0
        #: Lockstep candidates re-evaluated standalone because a probe row
        #: was a near tie (see :data:`NEAR_TIE_MARGIN`).
        self.near_tie_fallbacks = 0

    # -- accuracy evaluation ---------------------------------------------------

    @property
    def _baseline_logits(self) -> np.ndarray:
        if self._baseline_logits_cache is None:
            self._baseline_logits_cache = self.network.forward_batch(self.samples)
        return self._baseline_logits_cache

    @property
    def _baseline_predictions(self) -> np.ndarray:
        return np.argmax(self._baseline_logits, axis=1)

    def baseline_accuracy(self) -> float:
        """Accuracy of the floating-point model (1.0 under the agreement proxy)."""
        if self.labels is None:
            return 1.0
        return classification_accuracy(self._baseline_logits, self.labels)

    def _score(self, logits: np.ndarray) -> float:
        if self.labels is None:
            return top1_agreement(self._baseline_logits, logits)
        baseline = self.baseline_accuracy()
        if baseline == 0:
            raise ValueError("baseline accuracy is zero; cannot compute relative accuracy")
        return classification_accuracy(logits, self.labels) / baseline

    def relative_accuracy(self, configs: dict[str, QuantizationConfig]) -> float:
        """Relative accuracy of the network under the given quantisation."""
        return self._score(self.network.forward_batch(self.samples, configs=configs))

    # -- lockstep evaluation ------------------------------------------------------

    def _layer_prefix_inputs(self) -> dict[str, tuple[int, np.ndarray]]:
        """Baseline activations entering each weighted layer (captured once).

        The capture is one unquantised batch pass -- the same per-layer loop
        ``Network.forward_batch`` runs -- so its final tensor doubles as the
        baseline logits (stored if not already computed: one pass serves
        both).
        """
        if self._prefix_inputs is None:
            weighted = {id(layer) for layer in self.network.weighted_layers()}
            inputs: dict[str, tuple[int, np.ndarray]] = {}
            tensors = self.samples
            for position, layer in enumerate(self.network.layers):
                if id(layer) in weighted:
                    inputs[layer.name] = (position, tensors)
                tensors = layer.forward_batch(tensors, None)
            self._prefix_inputs = inputs
            if self._baseline_logits_cache is None:
                self._baseline_logits_cache = tensors
        return self._prefix_inputs

    def _suffix_logits(self, layer_name: str, config: QuantizationConfig) -> np.ndarray:
        """Whole-batch logits with one layer quantised, from its cached input.

        All layers before ``layer_name`` run unquantised, so their outputs
        equal the cached baseline activations bit for bit, and from the
        probed layer on this runs the reference's exact calls and shapes:
        the result equals ``network.forward_batch(samples, configs={layer_name:
        config})`` byte for byte.
        """
        position, tensors = self._layer_prefix_inputs()[layer_name]
        configs = {layer_name: config}
        for layer in self.network.layers[position:]:
            tensors = layer.forward_batch(tensors, configs.get(layer.name))
        return tensors

    def relative_accuracy_incremental(self, layer_name: str, config: QuantizationConfig) -> float:
        """Relative accuracy with exactly one layer quantised, prefix reused.

        Equivalent to ``relative_accuracy({layer_name: config})`` byte for
        byte, at a fraction of the arithmetic.
        """
        return self._score(self._suffix_logits(layer_name, config))

    def _scratch(self, layer: Layer) -> _WeightScratch:
        """The layer's scratch, created on first use with ``max(|W|)`` reduced once."""
        scratch = self._weight_scratch.get(layer.name)
        if scratch is None:
            weights = np.asarray(layer.weights, dtype=np.float64)
            # Same value quantization_scale computes: max(|W|) via the two
            # reductions, no |W|-sized temporary.
            max_abs = max(float(np.max(weights)), -float(np.min(weights))) if weights.size else 0.0
            if type(layer) is FullyConnected:
                buffer = np.empty((_fc_block_rows(layer), layer.in_features))
            else:
                buffer = np.empty_like(weights)
            scratch = _WeightScratch(max_abs=max_abs, buffer=buffer)
            self._weight_scratch[layer.name] = scratch
        return scratch

    def _quantized_weights(self, layer: Layer, bits: int) -> np.ndarray:
        """``quantize(layer.weights, bits)``, computed once per candidate.

        A weight scan's candidate is probed in up to two sweeps (suspect
        rows, then the rest); the layer's scratch buffer keeps the last
        candidate, so the second stage reuses it.  All candidates share one
        buffer instead of faulting in a fresh kernel-sized array each.
        """
        scratch = self._scratch(layer)
        if scratch.bits != bits:
            # The 1-bit binary path scales by the mean magnitude and ignores
            # the max(|W|) hint.
            quantize(layer.weights, bits, max_abs=scratch.max_abs, out=scratch.buffer)
            scratch.bits = bits
        return scratch.buffer

    def _forward_quantized_weights(self, layer: Layer, rows: np.ndarray, bits: int) -> np.ndarray:
        """``layer.forward_batch(rows, QuantizationConfig(weight_bits=bits))``.

        The quantised weights are swapped in for the call instead of being
        re-quantised by it -- ``quantize`` is deterministic, so the
        arithmetic is unchanged.
        """
        original = layer.weights
        layer.weights = self._quantized_weights(layer, bits)
        try:
            return layer.forward_batch(rows, None)
        finally:
            layer.weights = original

    def _fc_weight_probe(self, layer: FullyConnected, rows: np.ndarray, bits: int) -> np.ndarray:
        """``layer.forward_batch(rows, QuantizationConfig(weight_bits=bits))``, row-blocked.

        W is quantised one block of output rows at a time into the layer's
        cache-resident scratch block, and each block is multiplied straight
        into its output columns.  Every block equals the matching rows of
        ``quantize(W, bits)`` element for element -- the scale comes from the
        cached ``max(|W|)``, or for the 1-bit candidate from the layer's mean
        magnitude -- so only the GEMM grouping differs from the full-matrix
        call, which the lockstep contract covers.
        """
        scratch = self._scratch(layer)
        weights = layer.weights
        layer.statistics.observe(rows)
        if bits == 1:
            if scratch.mean_abs is None:
                scratch.mean_abs = _mean_magnitude(np.asarray(weights, dtype=np.float64))
            magnitude = scratch.mean_abs
        else:
            scale = quantization_scale(weights, bits, max_abs=scratch.max_abs)
        outputs = np.empty((rows.shape[0], weights.shape[0]))
        step = scratch.buffer.shape[0]
        for start in range(0, weights.shape[0], step):
            block = weights[start : start + step]
            quantized = scratch.buffer[: block.shape[0]]
            if bits == 1:
                # quantize's binary path: np.where(block >= 0, s, -s).
                np.copyto(quantized, -magnitude)
                np.copyto(quantized, magnitude, where=block >= 0.0)
            else:
                quantize(block, bits, scale=scale, max_abs=scratch.max_abs, out=quantized)
            np.matmul(rows, quantized.T, out=outputs[:, start : start + step])
        outputs += layer.bias
        return outputs

    #: Samples evaluated by the leading certification probe of a scan's first
    #: candidate (later candidates re-probe the samples that disagreed at
    #: lower bit widths instead).
    _PROBE_CHUNK = 4

    def _scan(
        self,
        layer_name: str,
        target: str,
        reference: np.ndarray,
        passes: Callable[[int], bool],
    ) -> Generator[_Probe, _Answer, int]:
        """One layer's minimum-bits scan, yielding its row batches as probes.

        Candidates are tried from low to high bits exactly as the reference
        does.  The pass/fail decision is a monotone function of the number
        of correctly-classified (or argmax-agreeing) samples, so any
        evaluated subset whose disagreements already push the best
        achievable score below the target certifies *failure* without
        touching the rest of the batch.  A candidate is therefore probed in
        up to two stages:

        * every sample seen disagreeing at the lower-bit candidates of this
          scan (corruption shrinks as bits grow, so previous offenders are
          the cheapest failure certificate available) -- or, for the first
          candidate, a leading chunk of ``_PROBE_CHUNK`` samples;
        * if that does not certify failure, every sample not yet evaluated,
          after which the decision is the reference's own.

        Each probe is sent back as ``(sample indices, predictions)``; a
        sweep may answer with more samples than asked (a near-tie
        fallback answers for the whole batch).  Returns the minimum bits.
        """
        count = reference.shape[0]
        suspects = np.arange(0)
        for bits in self.candidate_bits:
            if target == "weights":
                config = QuantizationConfig(weight_bits=bits)
            else:
                config = QuantizationConfig(activation_bits=bits)
            pending = suspects if suspects.size else np.arange(min(self._PROBE_CHUNK, count))
            known = np.zeros(count, dtype=bool)
            wrong = np.zeros(count, dtype=bool)
            while True:
                indices, predictions = yield _Probe(layer_name, config, pending)
                known[indices] = True
                wrong[indices] = predictions != reference[indices]
                # Best achievable hits: every sample not seen disagreeing.
                passed = passes(count - int(np.count_nonzero(wrong)))
                if known.all() or not passed:
                    break
                pending = np.flatnonzero(~known)
            if passed:
                return bits
            # Accumulate every sample seen disagreeing in this scan:
            # near-threshold candidates often fail through a different
            # sample than their predecessor, and the union keeps all of
            # them on the cheap certification path.
            suspects = np.union1d(suspects, np.flatnonzero(wrong))
        return self.candidate_bits[-1]

    def _sweep(self, probes: list[_Probe]) -> list[_Answer]:
        """Run every probe in one pass down the network; answer each.

        Rows are carried down in one concatenated batch.  At each weighted
        layer, the probes entering there join it: activation probes with
        their rows pre-quantised (per sample, as the layer itself would),
        so they share the layer's unquantised GEMM with the carried rows;
        weight probes through one extra call with their quantised weights
        (the row-blocked kernel on FC layers).
        Every layer below the first entry therefore runs once on the
        unquantised weights (plus once for a weight probe entering there).
        """
        self.sweeps += 1
        prefix = self._layer_prefix_inputs()
        entering: dict[int, list[int]] = {}
        for number, probe in enumerate(probes):
            entering.setdefault(prefix[probe.layer][0], []).append(number)
        carried: np.ndarray | None = None
        owners: list[int] = []  # probe number of each row segment, in row order
        for position in range(min(entering), len(self.network.layers)):
            layer = self.network.layers[position]
            shared = [] if carried is None else [carried]
            weight_probes = []
            for number in entering.get(position, ()):
                probe = probes[number]
                rows = prefix[probe.layer][1][probe.indices]
                if probe.config.weight_bits is None:
                    shared.append(quantize_per_sample(rows, probe.config.activation_bits))
                    owners.append(number)
                else:
                    weight_probes.append((number, rows))
            outputs = []
            if shared:
                outputs.append(layer.forward_batch(_stack(shared), None))
            if type(layer) is FullyConnected:
                weight_probe = self._fc_weight_probe
            else:
                weight_probe = self._forward_quantized_weights
            for number, rows in weight_probes:
                outputs.append(weight_probe(layer, rows, probes[number].config.weight_bits))
                owners.append(number)
            carried = _stack(outputs)
        predictions = np.argmax(carried, axis=1)
        near_ties = _near_ties(carried)
        answers: list[_Answer] = [None] * len(probes)  # type: ignore[list-item]
        start = 0
        for number in owners:
            probe = probes[number]
            stop = start + probe.indices.size
            if near_ties[start:stop].any():
                self.near_tie_fallbacks += 1
                logits = self._suffix_logits(probe.layer, probe.config)
                answers[number] = (np.arange(logits.shape[0]), np.argmax(logits, axis=1))
            else:
                answers[number] = (probe.indices, predictions[start:stop])
            start = stop
        return answers

    def _lockstep_profile(self) -> list[LayerPrecisionProfile]:
        """All scans of all layers, advanced together one sweep at a time."""
        count = self.samples.shape[0]
        self._layer_prefix_inputs()  # also fills the baseline logits
        if self.labels is None:
            reference = self._baseline_predictions
            baseline = 1.0
        else:
            reference = self.labels
            baseline = self.baseline_accuracy()
            if baseline == 0:
                raise ValueError("baseline accuracy is zero; cannot compute relative accuracy")

        def passes(hits: int) -> bool:
            # Exactly mirrors the reference metrics' np.mean over the full
            # batch: sums of 0/1 values are exact integers, so hits/count is
            # the same correctly-rounded float64 they produce (and x / 1.0
            # is x under the agreement proxy).
            accuracy = float(np.float64(hits) / np.float64(count))
            return accuracy / baseline >= self.relative_accuracy_target

        names = [layer.name for layer in self.network.weighted_layers()]
        scans = {
            (name, target): self._scan(name, target, reference, passes)
            for name in names
            for target in ("weights", "activations")
        }
        found: dict[tuple[str, str], int] = {}
        try:
            pending = {key: next(scan) for key, scan in scans.items()}
            while pending:
                keys = list(pending)
                for key, answer in zip(keys, self._sweep([pending[key] for key in keys])):
                    try:
                        pending[key] = scans[key].send(answer)
                    except StopIteration as done:
                        found[key] = done.value
                        del pending[key]
        finally:
            self._weight_scratch.clear()
        return [
            LayerPrecisionProfile(
                layer=name,
                weight_bits=found[(name, "weights")],
                activation_bits=found[(name, "activations")],
            )
            for name in names
        ]

    # -- search ------------------------------------------------------------------

    def minimum_bits_for_layer(self, layer_name: str, *, target: str) -> int:
        """Smallest precision of ``target`` (``"weights"``/``"activations"``) for one layer.

        Full-forward reference evaluation of every candidate.
        """
        if target not in ("weights", "activations"):
            raise ValueError("target must be 'weights' or 'activations'")
        layer_names = [layer.name for layer in self.network.weighted_layers()]
        if layer_name not in layer_names:
            raise ValueError(f"unknown weighted layer {layer_name!r}")
        for bits in self.candidate_bits:
            if target == "weights":
                config = QuantizationConfig(weight_bits=bits)
            else:
                config = QuantizationConfig(activation_bits=bits)
            if self.relative_accuracy({layer_name: config}) >= self.relative_accuracy_target:
                return bits
        return self.candidate_bits[-1]

    def profile(self, *, incremental: bool = False) -> list[LayerPrecisionProfile]:
        """Per-layer minimum weight and activation precisions (Fig. 6 data).

        ``incremental=True`` runs the lockstep search (same profile, a
        fraction of the weight traffic); the default full-forward
        evaluation is the golden reference.
        """
        if incremental:
            return self._lockstep_profile()
        return [
            LayerPrecisionProfile(
                layer=layer.name,
                weight_bits=self.minimum_bits_for_layer(layer.name, target="weights"),
                activation_bits=self.minimum_bits_for_layer(layer.name, target="activations"),
            )
            for layer in self.network.weighted_layers()
        ]

    def uniform_configs(self, profiles: list[LayerPrecisionProfile]) -> dict[str, QuantizationConfig]:
        """Quantisation configs applying every layer's found precisions at once."""
        return {
            profile.layer: QuantizationConfig(
                weight_bits=profile.weight_bits, activation_bits=profile.activation_bits
            )
            for profile in profiles
        }
