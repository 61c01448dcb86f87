from hypothesis import HealthCheck, settings

settings.register_profile(
    "eislab",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("eislab")
