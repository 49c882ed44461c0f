"""Verification toolkit for half-interval quadratic residue counts.

Core claim under audit: for every prime p = 3 mod 4, the character sum
A(p) = sum of (a/p) over a = 1 .. (p-1)/2 is strictly positive. The
package evaluates Legendre symbols by two independent methods, counts
residues in the half interval, executes a constructive pairing audit,
checks an exact floor-series identity, and cross-checks class numbers
h(-p) computed two ways.
"""

__version__ = "0.1.0"
