"""Shared pytest set-up: a deterministic, bounded hypothesis profile.

Property tests draw the same examples on every run (`derandomize`) and keep
no example database, so the tier-1 suite stays reproducible and quick.
Without hypothesis installed the property tests skip and nothing else changes.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile(
        "tier1", derandomize=True, max_examples=40, deadline=None, database=None
    )
    settings.load_profile("tier1")
