"""Seeded contract violations — one per C-rule — for the analyzer tests.

Every module here contains both a deliberate violation and a nearby
correct twin, so the tests pin false-negative AND false-positive
behavior.  The repo's default analysis run reads it only as read-side
evidence (tests are ``--refs``, and ``[tool.detlint] exclude`` drops
their D-findings); only the analysis tests judge it as a program.
"""
