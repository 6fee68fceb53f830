"""Unit tests for relay policies."""

from repro.core.policies import (
    BuilderAccess,
    CensorshipPolicy,
    RelayPolicy,
)


class TestBuilderAccess:
    def test_internal_flags(self):
        assert BuilderAccess.INTERNAL.runs_own_builder
        assert not BuilderAccess.INTERNAL.open_to_anyone

    def test_permissionless_flags(self):
        assert BuilderAccess.PERMISSIONLESS.open_to_anyone
        assert not BuilderAccess.PERMISSIONLESS.runs_own_builder

    def test_internal_permissionless_both(self):
        access = BuilderAccess.INTERNAL_PERMISSIONLESS
        assert access.runs_own_builder and access.open_to_anyone


class TestRelayPolicy:
    def test_internal_only_admits_internal(self):
        policy = RelayPolicy(builder_access=BuilderAccess.INTERNAL)
        internal = frozenset({"own"})
        assert policy.admits_builder("own", internal)
        assert not policy.admits_builder("stranger", internal)

    def test_permissionless_admits_anyone(self):
        policy = RelayPolicy(builder_access=BuilderAccess.PERMISSIONLESS)
        assert policy.admits_builder("anyone", frozenset())

    def test_internal_external_uses_allowlist(self):
        policy = RelayPolicy(
            builder_access=BuilderAccess.INTERNAL_EXTERNAL,
            allowed_builders=frozenset({"friend"}),
        )
        internal = frozenset({"own"})
        assert policy.admits_builder("own", internal)
        assert policy.admits_builder("friend", internal)
        assert not policy.admits_builder("stranger", internal)

    def test_censorship_flag(self):
        censoring = RelayPolicy(
            builder_access=BuilderAccess.PERMISSIONLESS,
            censorship=CensorshipPolicy.OFAC_COMPLIANT,
        )
        neutral = RelayPolicy(builder_access=BuilderAccess.PERMISSIONLESS)
        assert censoring.is_censoring
        assert not neutral.is_censoring
