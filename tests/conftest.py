"""Settings shared by every test module.

Hypothesis draws its examples from a fixed seed (``derandomize``) and keeps
no database of failing examples, so a tree passes or fails the same way on
every run and in every checkout.  Each test's own ``max_examples`` stays.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
