"""Hypothesis profiles for the property tests.

``default`` (always loaded unless HYPOTHESIS_PROFILE names another) replays
the same examples on every run and has no deadline.  ``explore``
(HYPOTHESIS_PROFILE=explore) draws fresh random examples, at least 400 per
property test; the per-test ``max_examples`` only raise that floor.
"""

import os

from hypothesis import settings

EXPLORE_EXAMPLES = 400

settings.register_profile("default", deadline=None, derandomize=True)
settings.register_profile("explore", deadline=None, derandomize=False,
                          max_examples=EXPLORE_EXAMPLES)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_collection_modifyitems(items):
    if settings.default.derandomize:
        return
    for item in items:
        test = getattr(item, "obj", None)
        if getattr(test, "hypothesis", None) is None:
            continue
        # a per-test @settings(max_examples=...) would cap the profile's count
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=max(own.max_examples, EXPLORE_EXAMPLES))
