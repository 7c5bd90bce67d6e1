"""Exact toric and Chow-ring computations for relative Hilbert schemes of
points on the line, with a stratification oracle for the generating
functions of their motivic classes.

Names are imported from their modules: ``loghilb.fan``, ``loghilb.chow``,
``loghilb.strata``, ``loghilb.poly``, ``loghilb.linalg`` and ``loghilb.cli``.
"""
