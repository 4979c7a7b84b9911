from hypothesis import HealthCheck, settings

# example timing follows machine load, not the code under test; per-example
# deadlines would turn a busy machine into spurious failures
settings.register_profile(
    "dnacf",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dnacf")
