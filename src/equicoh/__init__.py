"""Exact-rational computational homological algebra for Lie algebra,
equivariant, and Poisson cohomology.

Modules: `ratlin` (rational linear algebra), `bases` (graded index
machinery), `poly` (polynomial forms and multivector fields), `core`
(graded spaces, cochain complexes, subquotients), `lie` (Lie algebras,
representations, cochain complexes, bialgebras), `gdiff` (complexes with
contraction and Lie-operator actions, Weil algebras, Cartan models),
`spectral` (filtered complexes and their pages), `poisson` (truncated
polynomial Poisson structures, momentum data, the equivariant theory),
and `cli` (the `equicoh` command)."""

__version__ = "0.1.0"
