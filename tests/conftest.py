"""Hypothesis profiles: "ci" draws the same examples on every host and
prints a reproduction blob for a failure. Select it with
HYPOTHESIS_PROFILE=ci; without the variable the default profile holds."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
