"""Tree GP and prototype-tree probabilistic recombination on the ORDER and
TRAP benchmark families, with a population-sizing experiment harness."""

__version__ = "0.1.0"
