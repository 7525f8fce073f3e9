"""Exact-arithmetic toolkit for binomial ideals of repunit monomial curves.

Layers, bottom up: semigroup arithmetic, monomial/binomial algebra with
checked exponents, matrix term orders, a binomial Buchberger engine with
saturation, the structured minor and relation families of an instance, an
exact fiber oracle for minimal generators (a search from the sides of each
degree's generators, no Groebner engine; enumerate_fiber is only the
reference that tests compare against), claim verifiers that return
structured reports, and a CLI that renders them and sets every exit code.
Each name is imported from its module, such as
repunit_toric.groebner; the package root holds only __version__.
"""

__version__ = "0.1.0"
