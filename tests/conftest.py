from hypothesis import settings

# no per-example deadline (timings vary with the host), and a fixed
# example sequence so every run of the suite draws the same cases
settings.register_profile("projlab", deadline=None, derandomize=True)
settings.load_profile("projlab")
