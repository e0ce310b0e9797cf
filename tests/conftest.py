"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes every property test
derandomised and prints the blob that reproduces a failure, so a failure in
CI reproduces from its log."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
