"""Tests for the unified AlgorithmDescriptor registry and the public surface."""

from __future__ import annotations

import importlib

import pytest

from repro import InvalidParameterError, UnknownAlgorithmError
from repro.api import (
    AlgorithmDescriptor,
    Simplifier,
    algorithm_names,
    get_descriptor,
    list_descriptors,
    open_raw_stream,
    register_algorithm,
    unregister_algorithm,
)

# The paper algorithms with a native push/finish implementation: the ground
# truth the streaming capability flags must match.
NATIVE_STREAMING = {"operb", "raw-operb", "operb-a", "raw-operb-a", "fbqs", "dead-reckoning"}
PAPER_NAMES = {
    "dp", "dp-sed", "opw", "opw-tr", "bqs", "fbqs", "uniform", "dead-reckoning",
    "operb", "raw-operb", "operb-a", "raw-operb-a",
}


class TestRegistry:
    def test_all_builtin_algorithms_registered(self):
        assert PAPER_NAMES <= set(algorithm_names())

    def test_lookup_is_case_insensitive_and_normalising(self):
        assert get_descriptor(" OPERB-A ").name == "operb-a"

    def test_descriptor_passthrough(self):
        descriptor = get_descriptor("dp")
        assert get_descriptor(descriptor) is descriptor

    def test_unknown_algorithm_raises(self):
        with pytest.raises(UnknownAlgorithmError):
            get_descriptor("does-not-exist")

    def test_list_descriptors_sorted(self):
        names = [d.name for d in list_descriptors()]
        assert names == sorted(names)

    def test_register_decorator_and_unregister(self):
        @register_algorithm("unit-test-algo", error_metric="none", summary="test-only")
        def keep_everything(trajectory, epsilon=0.0):
            from repro.trajectory.piecewise import PiecewiseRepresentation

            return PiecewiseRepresentation.from_retained_indices(
                trajectory, list(range(len(trajectory))), algorithm="unit-test-algo"
            )

        try:
            descriptor = get_descriptor("unit-test-algo")
            assert descriptor.batch is keep_everything
            assert descriptor.summary == "test-only"
            assert not descriptor.streaming and not descriptor.one_pass
            assert "unit-test-algo" in algorithm_names()
        finally:
            unregister_algorithm("unit-test-algo")
        assert "unit-test-algo" not in algorithm_names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_algorithm("dp")(lambda trajectory, epsilon: None)

    def test_one_pass_requires_streaming_factory(self):
        with pytest.raises(InvalidParameterError):
            AlgorithmDescriptor(name="broken", batch=lambda t, e: None, one_pass=True)

    def test_invalid_error_metric_rejected(self):
        with pytest.raises(InvalidParameterError):
            AlgorithmDescriptor(name="broken", batch=lambda t, e: None, error_metric="vertical")


class TestCapabilityFlags:
    def test_streaming_flags_match_legacy_streaming_set(self):
        streaming = {d.name for d in list_descriptors() if d.streaming}
        assert streaming & PAPER_NAMES == NATIVE_STREAMING

    def test_one_pass_implies_streaming(self):
        for descriptor in list_descriptors():
            if descriptor.one_pass:
                assert descriptor.streaming

    def test_operb_family_is_one_pass(self):
        for name in ("operb", "raw-operb", "operb-a", "raw-operb-a"):
            assert get_descriptor(name).one_pass

    def test_fbqs_streams_but_is_not_one_pass(self):
        descriptor = get_descriptor("fbqs")
        assert descriptor.streaming and not descriptor.one_pass

    def test_uniform_is_not_error_bounded(self):
        descriptor = get_descriptor("uniform")
        assert descriptor.error_metric == "none"
        assert not descriptor.error_bounded

    def test_sed_metrics(self):
        for name in ("dp-sed", "opw-tr", "dead-reckoning"):
            assert get_descriptor(name).error_metric == "sed"

    def test_capabilities_dict(self):
        caps = get_descriptor("operb-a").capabilities()
        assert caps["streaming"] and caps["one_pass"]
        assert "gamma_max" in caps["accepted_kwargs"]

    def test_pyramid_flag_on_builtin_streamers(self):
        for name in ("operb", "raw-operb", "operb-a", "raw-operb-a"):
            assert get_descriptor(name).pyramid
        # fbqs streams and is error bounded, but its convex window accepts
        # points that project beyond the emitted endpoints, so the endpoint
        # cascade cannot honour the coarse bound.
        assert not get_descriptor("fbqs").pyramid
        assert not get_descriptor("dead-reckoning").pyramid

    def test_pyramid_capable_derivation(self):
        # Native streamers qualify through the pyramid flag; batch-only SED
        # algorithms qualify through the buffered adapter because their
        # time-synchronised witnesses stay inside each chord's span.
        assert get_descriptor("operb").pyramid_capable
        for name in ("dp-sed", "opw-tr"):
            descriptor = get_descriptor(name)
            assert descriptor.pyramid_capable and not descriptor.pyramid
        # Line-distance window/batch algorithms are excluded (witness
        # overhang); dead-reckoning has no segment re-ingest hook, and
        # uniform is not error-bounded at all.
        for name in ("fbqs", "opw", "bqs", "dp"):
            assert not get_descriptor(name).pyramid_capable, name
        assert not get_descriptor("dead-reckoning").pyramid_capable
        assert not get_descriptor("uniform").pyramid_capable

    def test_pyramid_in_capabilities_dict(self):
        caps = get_descriptor("operb").capabilities()
        assert caps["pyramid"] is True

    def test_pyramid_requires_streaming_factory(self):
        with pytest.raises(InvalidParameterError):
            AlgorithmDescriptor(name="broken", batch=lambda t, e: None, pyramid=True)

    def test_pyramid_requires_error_bound(self):
        with pytest.raises(InvalidParameterError):
            AlgorithmDescriptor(
                name="broken",
                batch=lambda t, e: None,
                streaming_factory=lambda epsilon, **kw: None,
                error_metric="none",
                pyramid=True,
            )

    def test_validate_kwargs_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            get_descriptor("dp").validate_kwargs({"bogus": 1})

    def test_validate_kwargs_distinguishes_modes(self):
        descriptor = get_descriptor("operb")
        descriptor.validate_kwargs({"config": None})
        with pytest.raises(InvalidParameterError):
            descriptor.validate_kwargs({"config": None}, streaming=True)
        descriptor.validate_kwargs({"opt_two_sided_deviation": False}, streaming=True)


class TestReplacementEntryPoints:
    # What callers of the removed helpers use instead yields the same output.
    def test_descriptor_batch_matches_session_run(self, noisy_walk):
        batch = get_descriptor("dp").batch(noisy_walk, 25.0)
        assert batch.segments == Simplifier("dp", 25.0).run(noisy_walk).segments

    def test_raw_stream_matches_session_stream(self, noisy_walk):
        raw = open_raw_stream(get_descriptor("operb"), 25.0)
        segments = []
        for point in noisy_walk:
            segments.extend(raw.push(point))
        segments.extend(raw.finish())

        with Simplifier("operb", 25.0).open_stream() as stream:
            stream.feed(noisy_walk)
        assert segments == list(stream.result().segments)


class TestPublicSurface:
    # The pre-descriptor entry points and the pipeline/counting wrappers;
    # repro.api.Simplifier is the only way in.
    REMOVED = {
        "ALGORITHMS",
        "BufferedBatchAdapter",
        "CountingPointSource",
        "CountingSimplifier",
        "PipelineResult",
        "STREAMING_ALGORITHMS",
        "StreamingPipeline",
        "get_algorithm",
        "list_algorithms",
        "make_streaming_simplifier",
        "run_pipeline",
        "simplify",
    }

    @pytest.mark.parametrize(
        "package", ["repro", "repro.api", "repro.algorithms", "repro.streaming"]
    )
    def test_exports_resolve_and_exclude_removed_names(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} is exported but missing"
        removed = set(self.REMOVED)
        if package == "repro.api":
            removed.discard("BufferedBatchAdapter")  # its one home
        assert not removed & set(module.__all__)
        assert not [name for name in removed if hasattr(module, name)]
