from hypothesis import settings

# `pytest --hypothesis-profile=ci`: the same examples on every run, no
# per-example deadline on shared runners
settings.register_profile("ci", derandomize=True, deadline=None)
