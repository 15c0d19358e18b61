"""Shared test configuration: one hypothesis profile for every property test.

Property examples may fill oracle tables from cold, so single examples take
uneven time; the profile turns off hypothesis's per-example deadline.
"""
from hypothesis import settings

settings.register_profile("polytopenums", deadline=None)
settings.load_profile("polytopenums")
