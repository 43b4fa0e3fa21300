"""Shared low-level helpers: bit reflection and hex dumps
(:mod:`repro.utils.bits`) and deterministic RNG (:mod:`repro.utils.rng`).

Import from the submodules: :mod:`repro.utils.rng` needs numpy, and the
cycle engine's import path stays numpy-free.
"""
