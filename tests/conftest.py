from hypothesis import settings

# reproducible examples and no per-example deadline, so that a loaded shared
# machine cannot turn a slow example into a failure
settings.register_profile("tier1", deadline=None, derandomize=True, max_examples=30)
settings.load_profile("tier1")
