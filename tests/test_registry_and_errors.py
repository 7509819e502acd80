"""Registry dispatch and the exception hierarchy."""

import pytest

from repro.common.errors import (
    UnknownOptionError,
    CommunicationError,
    ConfigurationError,
    DeadlockError,
    MemoryModelError,
    ReproError,
    ScheduleError,
    ValidationError,
)
from repro.schedules.registry import available_schemes, build_schedule


class TestRegistry:
    def test_all_schemes_listed_in_table2_order(self):
        assert available_schemes() == (
            "pipedream",
            "pipedream_2bw",
            "gpipe",
            "gems",
            "dapple",
            "chimera",
            "zb_h1",
            "zb_v",
            "zb_vhalf",
            "zb_vmin",
            "synthesize",
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            build_schedule("megatron", 4, 4)

    def test_unknown_scheme_error_lists_canonical_order(self):
        """The error message must enumerate schemes in the same order as
        available_schemes(), not alphabetically."""
        with pytest.raises(ConfigurationError) as err:
            build_schedule("megatron", 4, 4)
        assert str(list(available_schemes())) in str(err.value)

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_dispatch_builds_named_scheme(self, scheme):
        assert build_schedule(scheme, 4, 4).scheme == scheme

    def test_options_forwarded_to_builder(self):
        schedule = build_schedule("chimera", 4, 8, concat="halving")
        assert schedule.metadata["concat"] == "halving"

    def test_bad_option_surfaces(self):
        # Unknown builder options fail up front with a distinguished
        # error naming the scheme and the key (not a TypeError deep in
        # the builder).
        with pytest.raises(UnknownOptionError, match="gpipe.*concat"):
            build_schedule("gpipe", 4, 4, concat="halving")
        with pytest.raises(UnknownOptionError, match="dapple.*max_in_flight"):
            build_schedule("dapple", 4, 4, max_in_flight=2)
        # ...while the pipeline option is universal, and the only one:
        # a transform such as recompute is named in the spec.
        build_schedule("gpipe", 2, 2, passes="recompute,lower_p2p")
        with pytest.raises(UnknownOptionError, match=r"options \['passes'\]"):
            build_schedule("gpipe", 2, 2, recompute=True)


class TestDynamicRegistration:
    """Unknown-scheme errors enumerate the registry *at raise time*."""

    @staticmethod
    def _builder(depth, num_micro_batches):  # pragma: no cover - never built
        raise AssertionError("the dummy scheme must never be built")

    def test_register_then_error_lists_new_scheme(self):
        from repro.schedules.registry import (
            SchemeTraits,
            register_scheme,
            scheme_traits,
            unregister_scheme,
        )

        register_scheme("frankenpipe", self._builder, SchemeTraits())
        try:
            assert available_schemes()[-1] == "frankenpipe"
            with pytest.raises(ConfigurationError, match="frankenpipe"):
                build_schedule("megatron", 4, 4)
            with pytest.raises(ConfigurationError, match="frankenpipe"):
                scheme_traits("megatron")
        finally:
            unregister_scheme("frankenpipe")
        # ...and stops listing it the moment it is gone: the list is
        # interpolated fresh on every raise, never cached at import time.
        with pytest.raises(ConfigurationError) as err:
            build_schedule("megatron", 4, 4)
        assert "frankenpipe" not in str(err.value)
        assert "frankenpipe" not in available_schemes()

    def test_duplicate_name_needs_replace(self):
        from repro.schedules.registry import SchemeTraits, register_scheme

        with pytest.raises(ConfigurationError, match="already registered"):
            register_scheme("dapple", self._builder, SchemeTraits())

    def test_cost_parameterized_requires_fingerprint(self):
        from repro.schedules.registry import SchemeTraits, register_scheme

        with pytest.raises(ConfigurationError, match="builder_fingerprint"):
            register_scheme(
                "costly", self._builder, SchemeTraits(cost_parameterized=True)
            )
        assert "costly" not in available_schemes()

    def test_unregister_unknown_rejected(self):
        from repro.schedules.registry import unregister_scheme

        with pytest.raises(ConfigurationError, match="unknown scheme"):
            unregister_scheme("megatron")


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ScheduleError,
            ValidationError,
            CommunicationError,
            DeadlockError,
            MemoryModelError,
            ConfigurationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_deadlock_is_a_communication_error(self):
        assert issubclass(DeadlockError, CommunicationError)

    def test_single_except_catches_everything(self):
        with pytest.raises(ReproError):
            build_schedule("chimera", 5, 5)  # odd depth -> ScheduleError
