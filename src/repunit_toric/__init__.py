"""Exact-arithmetic toolkit for binomial ideals of repunit monomial curves.

Layers, bottom up: semigroup arithmetic, monomial/binomial algebra with
checked exponents, matrix term orders, a binomial Buchberger engine with
saturation, the structured minor and relation families of an instance, an
exact fiber oracle for minimal generators (meet-in-the-middle fiber
enumeration, no Groebner engine), and claim verifiers with structured
reports plus a CLI.  Each name is imported from its module, such as
repunit_toric.groebner; the package root holds only __version__.
"""

__version__ = "0.1.0"
