"""Hypothesis profiles. A test that sets no max_examples of its own takes
the active profile's count: hypothesis's default locally, and more under
`--hypothesis-profile=ci`, which the CI workflow passes."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
