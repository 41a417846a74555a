"""Exact computations for monotone Lagrangian twist tori.

Four pieces fit together:

* `forests`: twist words, rooted trees/forests, canonical forms, and the
  enumeration of ample trees (the shapes primitive twist tori realize);
* `discs`: candidate Maslov-2 disc classes from intersection positivity,
  via one exact Fourier-Motzkin cascade that decides boundedness and
  drives a prefix-pruned lattice enumeration;
* `pearl` / `certificates`: group-ring Laurent algebra, the quadratic pearl
  differential, and Groebner/gcd certificates that degree zero survives
  while positive degrees vanish (non-displaceability); one Buchberger core
  computes both, the gcd being the one-variable reduced basis;
* `germs`: displacement-energy germs as min-of-covectors formulas and their
  GL(n, Z) classification.

The package re-exports nothing: each name is imported from the module that
defines it (`from twistkit.laurent import LaurentPoly`), so importing one
half does not load the other (`import twistkit.forests` loads no algebra).
The version is the installed distribution's,
`importlib.metadata.version("twistkit")`.
"""
