"""Tests for the levels of computational self-awareness."""


from repro.core.levels import CapabilityProfile, SelfAwarenessLevel, ladder


class TestSelfAwarenessLevel:
    def test_ordering_is_increasing_sophistication(self):
        assert (SelfAwarenessLevel.STIMULUS < SelfAwarenessLevel.INTERACTION
                < SelfAwarenessLevel.TIME < SelfAwarenessLevel.GOAL
                < SelfAwarenessLevel.META)

    def test_all_levels_enumerates_five(self):
        assert len(SelfAwarenessLevel) == 5

    def test_neisser_names_cover_all_levels(self):
        for level in SelfAwarenessLevel:
            assert level.neisser_name
        assert SelfAwarenessLevel.STIMULUS.neisser_name == "ecological self"
        assert SelfAwarenessLevel.META.neisser_name == "meta-self-awareness"

    def test_describe_is_nonempty_and_distinct(self):
        descriptions = {lv.describe() for lv in SelfAwarenessLevel}
        assert len(descriptions) == 5


class TestCapabilityProfile:
    def test_of_builds_exact_set(self):
        p = CapabilityProfile.of(SelfAwarenessLevel.TIME, SelfAwarenessLevel.GOAL)
        assert p.has(SelfAwarenessLevel.TIME)
        assert p.has(SelfAwarenessLevel.GOAL)
        assert not p.has(SelfAwarenessLevel.STIMULUS)
        assert len(p) == 2

    def test_up_to_is_cumulative(self):
        p = CapabilityProfile.up_to(SelfAwarenessLevel.TIME)
        assert set(p.levels) == {SelfAwarenessLevel.STIMULUS,
                                 SelfAwarenessLevel.INTERACTION,
                                 SelfAwarenessLevel.TIME}

    def test_full_stack_has_everything(self):
        p = CapabilityProfile.full_stack()
        assert all(p.has(lv) for lv in SelfAwarenessLevel)
        assert p.is_meta_self_aware()

    def test_minimal_is_stimulus_only(self):
        p = CapabilityProfile.minimal()
        assert set(p.levels) == {SelfAwarenessLevel.STIMULUS}
        assert not p.is_meta_self_aware()

    def test_with_and_without_level_are_functional(self):
        p = CapabilityProfile.minimal()
        p2 = p.with_level(SelfAwarenessLevel.META)
        assert p2.is_meta_self_aware()
        assert not p.is_meta_self_aware()  # original untouched
        p3 = p2.without_level(SelfAwarenessLevel.META)
        assert set(p3.levels) == set(p.levels)

    def test_empty_profile_describes_pre_reflective(self):
        assert "no self-awareness" in CapabilityProfile.of().describe()

    def test_dominates_is_strict_superset(self):
        full = CapabilityProfile.full_stack()
        minimal = CapabilityProfile.minimal()
        assert full.dominates(minimal)
        assert not minimal.dominates(full)
        assert not full.dominates(full)

    def test_iteration_is_sorted_by_level(self):
        p = CapabilityProfile.of(SelfAwarenessLevel.META,
                                 SelfAwarenessLevel.STIMULUS)
        assert list(p) == [SelfAwarenessLevel.STIMULUS, SelfAwarenessLevel.META]

    def test_contains_protocol(self):
        p = CapabilityProfile.up_to(SelfAwarenessLevel.INTERACTION)
        assert SelfAwarenessLevel.STIMULUS in p
        assert SelfAwarenessLevel.META not in p

    def test_profile_is_hashable(self):
        assert len({CapabilityProfile.minimal(), CapabilityProfile.minimal()}) == 1


class TestLadder:
    def test_ladder_grows_one_level_at_a_time(self):
        profiles = list(ladder())
        assert len(profiles) == 5
        for i, p in enumerate(profiles):
            assert len(p) == i + 1
        for smaller, larger in zip(profiles, profiles[1:]):
            assert larger.dominates(smaller)

    def test_ladder_can_stop_early(self):
        profiles = list(ladder(SelfAwarenessLevel.TIME))
        assert len(profiles) == 3
        assert not profiles[-1].has(SelfAwarenessLevel.GOAL)
