"""Shared low-level helpers: bit/byte manipulation (:mod:`repro.utils.bits`)
and deterministic RNG (:mod:`repro.utils.rng`).

Import from the submodules: only the array helpers need numpy, and
the cycle engine's import path stays numpy-free.
"""
