"""Turntable scan reconstruction: calibration, fusion, registration,
Poisson meshing, and vertex re-dyeing, with a synthetic rig simulator
for end-to-end validation.

The package root exports nothing; import from the submodules, such as
``turnscan.pipeline`` for the stages and ``turnscan.truth`` for the
ground truth of a synthetic session.
"""
